//! One shared way to turn user-facing execution knobs (mode string,
//! cache flag, thread count) into an [`ExecRequest`].
//!
//! The CLI REPL (`mpc serve`), the TCP front end (`mpc-server`), and the
//! bench harness all accept the same three knobs; [`RequestSpec`] is the
//! single place that interprets them, so "crossing" means the same
//! thing — and `threads: 0` resolves the same way — on every path.

use crate::coordinator::{ExecMode, ExecRequest};
use mpc_obs::Recorder;

/// The user-facing execution knobs, before a recorder is attached.
/// Plain data: build one per client/session and stamp out an
/// [`ExecRequest`] per query with [`RequestSpec::to_request`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestSpec {
    /// Recognition / decomposition strategy.
    pub mode: ExecMode,
    /// Allow answering from the serving layer's result cache.
    pub cached: bool,
    /// Worker threads for the per-site fan-out; 0 = auto (resolve via
    /// `MPC_THREADS`, then available parallelism).
    pub threads: usize,
}

impl Default for RequestSpec {
    fn default() -> Self {
        RequestSpec {
            mode: ExecMode::default(),
            cached: true,
            threads: 0,
        }
    }
}

impl RequestSpec {
    /// Parses a mode flag as every front end spells it: `"crossing"`
    /// (or absent) for the paper's crossing-aware execution, `"star"`
    /// for the star-decomposition baseline.
    ///
    /// # Errors
    /// Returns the offending string for anything else.
    pub fn parse_mode(arg: Option<&str>) -> Result<ExecMode, String> {
        match arg {
            None | Some("crossing") => Ok(ExecMode::CrossingAware),
            Some("star") => Ok(ExecMode::StarOnly),
            Some(other) => Err(other.to_string()),
        }
    }

    /// What `threads: 0` resolves to on this machine (`MPC_THREADS`,
    /// then the available parallelism — [`mpc_par::resolve_threads`]).
    /// An environment and cgroup read: a front end that runs several
    /// requests at once takes it once and divides it among its workers.
    pub fn auto_threads() -> usize {
        mpc_par::resolve_threads(None)
    }

    /// Sets the mode.
    #[must_use]
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Allows or forbids cached answers.
    #[must_use]
    pub fn cached(mut self, cached: bool) -> Self {
        self.cached = cached;
        self
    }

    /// Pins the worker-thread count (0 = auto).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builds the per-query [`ExecRequest`], tracing into `rec`.
    pub fn to_request(&self, rec: &Recorder) -> ExecRequest {
        let mut req = ExecRequest::new()
            .mode(self.mode)
            .traced(rec)
            .cached(self.cached);
        if self.threads > 0 {
            req = req.threads(self.threads);
        }
        req
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing_matches_all_front_ends() {
        assert_eq!(RequestSpec::parse_mode(None), Ok(ExecMode::CrossingAware));
        assert_eq!(
            RequestSpec::parse_mode(Some("crossing")),
            Ok(ExecMode::CrossingAware)
        );
        assert_eq!(RequestSpec::parse_mode(Some("star")), Ok(ExecMode::StarOnly));
        assert_eq!(RequestSpec::parse_mode(Some("both")), Err("both".into()));
    }

    #[test]
    fn spec_builds_equivalent_request() {
        let rec = Recorder::disabled();
        let req = RequestSpec::default()
            .mode(ExecMode::StarOnly)
            .cached(false)
            .threads(4)
            .to_request(&rec);
        assert!(matches!(req.mode, ExecMode::StarOnly));
        assert!(!req.cached);
        assert_eq!(req.threads, Some(4));
        // threads = 0 leaves the request on the auto path (None), the
        // same resolution Some(0) would take — but visibly "unset".
        let auto = RequestSpec::default().to_request(&rec);
        assert_eq!(auto.threads, None);
        assert!(auto.cached);
    }
}
