//! One module per paper artifact; each exposes `run(scale)`, which prints
//! the regenerated table or figure and appends it to `bench_results/`.

pub mod chaos;
pub mod fig11;
pub mod fig7;
pub mod fig8;
pub mod khop;
pub mod runreport;
pub mod scalability;
pub mod stages;
pub mod table2;
pub mod table3;
pub mod table6;
pub mod table7;
