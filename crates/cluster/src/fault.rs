//! Deterministic fault injection for the simulated cluster.
//!
//! The paper's evaluation runs on a real 8-machine MPI cluster, where
//! machines crash, stall, and corrupt payloads; our in-process simulation
//! is otherwise infallible. This module makes failure a first-class,
//! *reproducible* input: a [`FaultPlan`] describes which faults can occur
//! (sampled rates and/or exactly scripted events), and its
//! [`FaultPlan::decide`] is a pure decision function — the fault
//! injected into a given (query, fragment, host, attempt) tuple depends
//! only on those coordinates, never on wall-clock time or thread
//! scheduling. Same seed + same plan ⇒ the same faults, every run.
//!
//! The taxonomy mirrors what a coordinator actually observes over a wire:
//!
//! * [`FaultKind::Crash`] — the site is gone; the connection is refused
//!   immediately (cheap to detect, retryable).
//! * [`FaultKind::Stall`] — the site never answers; the coordinator eats
//!   its full per-request deadline before declaring a timeout.
//! * [`FaultKind::Corrupt`] — the site answers, but the payload is
//!   damaged in flight; the wire codec's length checks reject it.
//! * [`FaultKind::Overload`] — the site sheds load and refuses the
//!   request (admission control), cheap to detect and retryable.
//! * [`FaultKind::Slow`] — the site answers correctly but `slow_factor`×
//!   slower (a straggler); not an error, only a latency hit.

use std::fmt;
use std::time::Duration;

/// One injectable fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The site process is down; requests are refused immediately.
    Crash,
    /// The site never responds; the request runs into its deadline.
    Stall,
    /// The response payload is corrupted in flight.
    Corrupt,
    /// The site rejects the request under load shedding.
    Overload,
    /// The site responds correctly but `slow_factor`× slower.
    Slow,
}

/// Why a site request failed, as observed by the coordinator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteError {
    /// The host refused the connection (site down).
    Crashed {
        /// The unresponsive host (site index).
        host: u16,
    },
    /// The host did not answer within the per-request deadline.
    Timeout {
        /// The silent host (site index).
        host: u16,
        /// The deadline that expired.
        deadline: Duration,
    },
    /// The host answered but the payload failed wire validation.
    CorruptPayload {
        /// The host whose payload was rejected (site index).
        host: u16,
    },
    /// The host shed the request under load.
    Overloaded {
        /// The overloaded host (site index).
        host: u16,
    },
}

impl SiteError {
    /// The host (site index) the error was observed at.
    pub fn host(&self) -> u16 {
        match *self {
            SiteError::Crashed { host }
            | SiteError::Timeout { host, .. }
            | SiteError::CorruptPayload { host }
            | SiteError::Overloaded { host } => host,
        }
    }

    /// True if retrying the same or another replica can succeed. Every
    /// variant in the taxonomy is transient in this simulation.
    pub fn is_retryable(&self) -> bool {
        true
    }
}

impl fmt::Display for SiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SiteError::Crashed { host } => write!(f, "site {host} crashed"),
            SiteError::Timeout { host, deadline } => {
                write!(f, "site {host} timed out after {:?}", deadline)
            }
            SiteError::CorruptPayload { host } => {
                write!(f, "site {host} returned a corrupt payload")
            }
            SiteError::Overloaded { host } => write!(f, "site {host} is overloaded"),
        }
    }
}

impl std::error::Error for SiteError {}

/// An exactly scripted fault: deterministic regardless of the sampled
/// rates, for reproducing specific failure scenarios in tests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScriptedFault {
    /// Restrict to requests for this fragment (`None` = any fragment).
    pub fragment: Option<u16>,
    /// Restrict to requests served by this host (`None` = any host).
    pub host: Option<u16>,
    /// The fault to inject.
    pub kind: FaultKind,
    /// Inject into the first `first_attempts` attempts of each matching
    /// (fragment, host) pair; `u32::MAX` means every attempt, forever.
    pub first_attempts: u32,
}

impl ScriptedFault {
    fn matches(&self, fragment: u16, host: u16, attempt: u32) -> bool {
        self.fragment.is_none_or(|f| f == fragment)
            && self.host.is_none_or(|h| h == host)
            && attempt < self.first_attempts
    }
}

/// A reproducible description of the faults a run may experience:
/// per-attempt sampling rates plus exactly scripted events.
///
/// Rates are probabilities per site request attempt, evaluated in the
/// fixed order crash → stall → corrupt → overload → slow (the first match
/// wins), so their sum should stay ≤ 1.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for every sampled decision (and derived jitter streams).
    pub seed: u64,
    /// P(crash) per attempt.
    pub crash: f64,
    /// P(stall past the deadline) per attempt.
    pub stall: f64,
    /// P(corrupted payload) per attempt.
    pub corrupt: f64,
    /// P(load-shed rejection) per attempt.
    pub overload: f64,
    /// P(straggler) per attempt.
    pub slow: f64,
    /// Latency multiplier for [`FaultKind::Slow`] responses.
    pub slow_factor: f64,
    /// Sites cut off by a network partition (the coordinator↔site link is
    /// down; see `NetworkModel::partitioned`).
    pub cut_sites: Vec<u16>,
    /// Exactly scripted events, checked before any sampling.
    pub scripted: Vec<ScriptedFault>,
}

impl FaultPlan {
    /// A plan that injects nothing (the fault-free baseline).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            crash: 0.0,
            stall: 0.0,
            corrupt: 0.0,
            overload: 0.0,
            slow: 0.0,
            slow_factor: 4.0,
            cut_sites: Vec::new(),
            scripted: Vec::new(),
        }
    }

    /// A plan sampling every fault kind at the same `rate`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            crash: rate,
            stall: rate,
            corrupt: rate,
            overload: rate,
            slow: rate,
            ..FaultPlan::none()
        }
    }

    /// True if the plan can never inject anything.
    pub fn is_quiet(&self) -> bool {
        self.crash == 0.0
            && self.stall == 0.0
            && self.corrupt == 0.0
            && self.overload == 0.0
            && self.slow == 0.0
            && self.cut_sites.is_empty()
            && self.scripted.is_empty()
    }

    /// Parses a `key=value[,key=value…]` chaos spec, e.g.
    /// `crash=0.1,stall=0.05,corrupt=0.02,overload=0.1,slow=0.2,slow-factor=3,cut=2+5`.
    ///
    /// Keys: `crash`, `stall`, `corrupt`, `overload`, `slow` (rates in
    /// `[0,1]`), `slow-factor` (≥ 1), and `cut` (`+`-separated site
    /// indices whose coordinator link is down). The seed is set
    /// separately (it is a run parameter, not part of the scenario).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for item in spec.split(',').filter(|s| !s.is_empty()) {
            let Some((key, value)) = item.split_once('=') else {
                return Err(format!("chaos spec item '{item}' is not key=value"));
            };
            let rate = |v: &str| -> Result<f64, String> {
                let r: f64 = v
                    .parse()
                    .map_err(|_| format!("chaos spec: cannot parse '{v}' as a number"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("chaos rate '{v}' must be in [0, 1]"));
                }
                Ok(r)
            };
            match key {
                "crash" => plan.crash = rate(value)?,
                "stall" => plan.stall = rate(value)?,
                "corrupt" => plan.corrupt = rate(value)?,
                "overload" => plan.overload = rate(value)?,
                "slow" => plan.slow = rate(value)?,
                "slow-factor" => {
                    let f: f64 = value
                        .parse()
                        .map_err(|_| format!("chaos spec: cannot parse '{value}' as a number"))?;
                    if f < 1.0 {
                        return Err("chaos slow-factor must be ≥ 1".to_owned());
                    }
                    plan.slow_factor = f;
                }
                "cut" => {
                    for part in value.split('+') {
                        let site: u16 = part.parse().map_err(|_| {
                            format!("chaos spec: cannot parse cut site '{part}'")
                        })?;
                        plan.cut_sites.push(site);
                    }
                }
                other => {
                    return Err(format!(
                        "unknown chaos key '{other}' \
                         (crash|stall|corrupt|overload|slow|slow-factor|cut)"
                    ))
                }
            }
        }
        let total = plan.crash + plan.stall + plan.corrupt + plan.overload + plan.slow;
        if total > 1.0 {
            return Err(format!("chaos rates sum to {total:.3} > 1"));
        }
        Ok(plan)
    }

    /// Deterministic per-attempt hash stream, also used to seed backoff
    /// jitter so retries of different attempts de-synchronize.
    pub fn attempt_hash(&self, query_seq: u64, fragment: u16, host: u16, attempt: u32) -> u64 {
        let mut h = self.seed;
        h = splitmix64(h ^ query_seq);
        h = splitmix64(h ^ (u64::from(fragment) << 32) ^ u64::from(host));
        splitmix64(h ^ u64::from(attempt))
    }

    /// The fault (if any) injected into attempt `attempt` of the request
    /// for `fragment` served by `host` during query number `query_seq`.
    ///
    /// A function of those coordinates and the plan only, so decisions
    /// are identical across runs and independent of thread scheduling —
    /// the property the determinism tests pin down.
    pub fn decide(
        &self,
        query_seq: u64,
        fragment: u16,
        host: u16,
        attempt: u32,
    ) -> Option<FaultKind> {
        for s in &self.scripted {
            if s.matches(fragment, host, attempt) {
                return Some(s.kind);
            }
        }
        let u = unit_f64(self.attempt_hash(query_seq, fragment, host, attempt));
        let mut threshold = 0.0;
        for (rate, kind) in [
            (self.crash, FaultKind::Crash),
            (self.stall, FaultKind::Stall),
            (self.corrupt, FaultKind::Corrupt),
            (self.overload, FaultKind::Overload),
            (self.slow, FaultKind::Slow),
        ] {
            threshold += rate;
            if u < threshold {
                return Some(kind);
            }
        }
        None
    }
}

/// SplitMix64 — the same tiny mixer the workspace's `rand` shim uses;
/// statistically fine for fault sampling and emphatically reproducible.
#[must_use]
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform sample in `[0, 1)` from a hash value.
pub(crate) fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_never_injects() {
        let plan = FaultPlan::none();
        for q in 0..10u64 {
            for f in 0..4u16 {
                for a in 0..4u32 {
                    assert_eq!(plan.decide(q, f, f, a), None);
                }
            }
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::uniform(42, 0.1);
        let b = FaultPlan::uniform(42, 0.1);
        for q in 0..20u64 {
            for f in 0..4u16 {
                for att in 0..4u32 {
                    assert_eq!(a.decide(q, f, f, att), b.decide(q, f, f, att));
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let a = FaultPlan::uniform(1, 0.3);
        let b = FaultPlan::uniform(2, 0.3);
        let differs = (0..50u64).any(|q| a.decide(q, 0, 0, 0) != b.decide(q, 0, 0, 0));
        assert!(differs, "seeds 1 and 2 produced identical fault streams");
    }

    #[test]
    fn rates_roughly_respected() {
        // crash-only plan at 30%: the empirical rate over many attempts
        // should land in a generous band around it.
        let plan = FaultPlan {
            crash: 0.3,
            ..FaultPlan::none()
        };
        let plan = FaultPlan { seed: 7, ..plan };
        let n = 10_000u64;
        let crashes = (0..n)
            .filter(|&q| plan.decide(q, 0, 0, 0) == Some(FaultKind::Crash))
            .count();
        let rate = crashes as f64 / n as f64;
        assert!((0.25..0.35).contains(&rate), "empirical crash rate {rate}");
    }

    #[test]
    fn scripted_faults_win_over_sampling() {
        let plan = FaultPlan {
            scripted: vec![ScriptedFault {
                fragment: Some(1),
                host: None,
                kind: FaultKind::Stall,
                first_attempts: 2,
            }],
            ..FaultPlan::none()
        };
        assert_eq!(plan.decide(0, 1, 1, 0), Some(FaultKind::Stall));
        assert_eq!(plan.decide(0, 1, 2, 1), Some(FaultKind::Stall));
        assert_eq!(plan.decide(0, 1, 1, 2), None, "third attempt succeeds");
        assert_eq!(plan.decide(0, 0, 0, 0), None, "other fragments untouched");
    }

    #[test]
    fn parse_round_trips_the_readme_spec() {
        let plan =
            FaultPlan::parse("crash=0.1,stall=0.05,corrupt=0.02,overload=0.1,slow=0.2,slow-factor=3,cut=2+5")
                .unwrap();
        assert_eq!(plan.crash, 0.1);
        assert_eq!(plan.stall, 0.05);
        assert_eq!(plan.corrupt, 0.02);
        assert_eq!(plan.overload, 0.1);
        assert_eq!(plan.slow, 0.2);
        assert_eq!(plan.slow_factor, 3.0);
        assert_eq!(plan.cut_sites, vec![2, 5]);
        assert!(!plan.is_quiet());
        assert!(FaultPlan::parse("").unwrap().is_quiet());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("crash").is_err());
        assert!(FaultPlan::parse("crash=nope").is_err());
        assert!(FaultPlan::parse("crash=1.5").is_err());
        assert!(FaultPlan::parse("bogus=0.1").is_err());
        assert!(FaultPlan::parse("slow-factor=0.5").is_err());
        assert!(FaultPlan::parse("cut=x").is_err());
        assert!(FaultPlan::parse("crash=0.6,stall=0.6").is_err(), "rates sum > 1");
    }

    #[test]
    fn site_error_reports_host_and_is_retryable() {
        let errors = [
            SiteError::Crashed { host: 3 },
            SiteError::Timeout {
                host: 3,
                deadline: Duration::from_millis(100),
            },
            SiteError::CorruptPayload { host: 3 },
            SiteError::Overloaded { host: 3 },
        ];
        for e in errors {
            assert_eq!(e.host(), 3);
            assert!(e.is_retryable());
            assert!(e.to_string().contains('3'), "{e}");
        }
    }
}
