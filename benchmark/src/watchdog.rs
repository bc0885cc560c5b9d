//! The wall-clock budget a run enforces on itself: a watchdog thread
//! that fires once the cap elapses unless the run finished first.

use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// An armed watchdog. Dropping it without [`Watchdog::disarm`] also
/// stands it down (the channel closes), but does not wait for its thread.
pub struct Watchdog {
    finished: Sender<()>,
    handle: JoinHandle<()>,
}

impl Watchdog {
    /// Calls `on_expire` from a background thread once `cap` has
    /// elapsed, unless [`Self::disarm`] ran first. In the binary
    /// `on_expire` prints a failed result and exits non-zero.
    pub fn arm(cap: Duration, on_expire: impl FnOnce() + Send + 'static) -> Watchdog {
        let (finished, wait) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            // A message or a closed channel both mean the run is over.
            if wait.recv_timeout(cap) == Err(RecvTimeoutError::Timeout) {
                on_expire();
            }
        });
        Watchdog { finished, handle }
    }

    /// The run finished in time: stop the watchdog and join its thread.
    pub fn disarm(self) {
        let _ = self.finished.send(());
        self.handle.join().expect("watchdog thread does not panic");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn fires_after_a_one_second_cap() {
        let (tx, rx) = mpsc::channel();
        let t0 = Instant::now();
        let _dog = Watchdog::arm(Duration::from_secs(1), move || {
            let _ = tx.send(t0.elapsed());
        });
        // The callback is the signal; the generous timeout only bounds a
        // broken watchdog, it is not what the test waits on.
        let fired_after = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("watchdog fired");
        assert!(
            fired_after >= Duration::from_secs(1),
            "fired early: {fired_after:?}"
        );
    }

    #[test]
    fn disarmed_watchdog_never_fires() {
        let (tx, rx) = mpsc::channel::<()>();
        let dog = Watchdog::arm(Duration::from_secs(1), move || {
            let _ = tx.send(());
        });
        dog.disarm();
        // Disarm joined the thread, so the sender is gone: a fired
        // callback would have left a message behind instead.
        assert_eq!(rx.recv(), Err(mpsc::RecvError));
    }
}
