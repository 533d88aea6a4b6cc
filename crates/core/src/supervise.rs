//! Worker supervision and deterministic fault injection.
//!
//! The oSIP study (paper §4.3) points DART at hundreds of library
//! functions and *expects* the targets to crash, hang and exhaust
//! resources — the engine must survive all of that. This module provides
//! the two halves of that discipline:
//!
//! * [`run_caught`] — runs one worker session under
//!   [`std::panic::catch_unwind`], so an engine-internal panic is
//!   reported as data (a [`crate::sweep::SweepOutcome::EngineFault`])
//!   instead of poisoning the whole sweep. The default panic hook is
//!   suppressed for supervised calls only, so faulted sessions do not
//!   spray backtraces over the sweep's output.
//! * [`FaultPlan`] / [`FaultState`] — a deterministic fault-injection
//!   hook ("panic in session *k*", "force `Unknown` on query *n*", "deny
//!   allocation *m*") threaded through the driver and sweep, available
//!   only under `cfg(any(test, feature = "fault-injection"))`. Injected
//!   faults are keyed to deterministic per-session counters, never to
//!   wall-clock or scheduling, so supervision tests reproduce
//!   byte-for-byte.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// A deterministic fault-injection plan.
///
/// Each field selects one fault site by a scheduling-independent index;
/// `None` (the [`Default`]) injects nothing. The plan rides on
/// [`crate::DartConfig`] and is consulted through a per-session
/// [`FaultState`], so a sweep with a plan is exactly as reproducible as
/// one without.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic (an injected engine fault) in the sweep session with this
    /// input-order index — on every attempt, so a retried session faults
    /// again and surfaces as an
    /// [`crate::sweep::SweepOutcome::EngineFault`].
    pub panic_in_session: Option<usize>,
    /// Force the session's `n`-th solver query (0-based, counted across
    /// runs) to return `Unknown` without solving. The driver records it
    /// as ordinary solver incompleteness.
    pub unknown_on_query: Option<u64>,
    /// Deny the session's `m`-th dynamic allocation statement (0-based,
    /// counted across runs), terminating that run with
    /// [`crate::RunTermination::OutOfMemory`] as if the allocation
    /// budget had just run out.
    pub deny_alloc: Option<u64>,
    /// `abort()` the whole process (a non-unwinding crash that
    /// `catch_unwind` cannot contain) in the sweep session with this
    /// input-order index. Only honoured on the farm's worker-process
    /// path, where the supervisor reaps the SIGABRT; the in-process
    /// sweep ignores it rather than kill its host.
    pub abort_in_session: Option<usize>,
}

#[cfg(any(test, feature = "fault-injection"))]
impl FaultPlan {
    /// Reads a plan from the `DART_FAULT_*` environment variables
    /// (`PANIC_SESSION`, `ABORT_SESSION`, `UNKNOWN_QUERY`, `DENY_ALLOC`):
    /// the transport a farm supervisor (or test) uses to hand a plan to
    /// a spawned `--farm-worker` process. Unset or unparseable variables
    /// inject nothing.
    pub fn from_env() -> FaultPlan {
        fn read<T: std::str::FromStr>(name: &str) -> Option<T> {
            std::env::var(name).ok()?.parse().ok()
        }
        FaultPlan {
            panic_in_session: read("DART_FAULT_PANIC_SESSION"),
            unknown_on_query: read("DART_FAULT_UNKNOWN_QUERY"),
            deny_alloc: read("DART_FAULT_DENY_ALLOC"),
            abort_in_session: read("DART_FAULT_ABORT_SESSION"),
        }
    }
}

/// Per-session fault-injection counters.
///
/// Always compiled so driver/search signatures do not change shape with
/// the feature gate; without `cfg(any(test, feature = "fault-injection"))`
/// it is a zero-sized no-op whose methods return `false`.
#[derive(Debug, Default)]
pub struct FaultState {
    #[cfg(any(test, feature = "fault-injection"))]
    plan: FaultPlan,
    #[cfg(any(test, feature = "fault-injection"))]
    queries_seen: u64,
    #[cfg(any(test, feature = "fault-injection"))]
    allocs_seen: u64,
}

#[cfg(any(test, feature = "fault-injection"))]
impl FaultState {
    /// Fresh counters for one session under `config`'s plan.
    pub fn for_config(config: &crate::DartConfig) -> FaultState {
        FaultState {
            plan: config.faults,
            queries_seen: 0,
            allocs_seen: 0,
        }
    }

    /// Consumes one query slot; `true` iff this query is the plan's
    /// forced-`Unknown` one.
    pub fn force_unknown_next_query(&mut self) -> bool {
        let n = self.queries_seen;
        self.queries_seen += 1;
        self.plan.unknown_on_query == Some(n)
    }

    /// Whether the plan denies any allocation at all; when it does not,
    /// callers may skip [`FaultState::deny_next_alloc`] entirely.
    pub fn may_deny_alloc(&self) -> bool {
        self.plan.deny_alloc.is_some()
    }

    /// Consumes one allocation slot; `true` iff this allocation is the
    /// plan's denied one.
    pub fn deny_next_alloc(&mut self) -> bool {
        let n = self.allocs_seen;
        self.allocs_seen += 1;
        self.plan.deny_alloc == Some(n)
    }
}

#[cfg(not(any(test, feature = "fault-injection")))]
impl FaultState {
    /// Fresh counters for one session (no-op without the gate).
    pub fn for_config(_config: &crate::DartConfig) -> FaultState {
        FaultState::default()
    }

    /// Never injects without the gate.
    pub fn force_unknown_next_query(&mut self) -> bool {
        false
    }

    /// Never injects without the gate.
    pub fn may_deny_alloc(&self) -> bool {
        false
    }

    /// Never injects without the gate.
    pub fn deny_next_alloc(&mut self) -> bool {
        false
    }
}

/// Panics iff `config`'s plan names this sweep-session `index`
/// (fault-injection entry point used by [`crate::sweep::sweep`]).
#[cfg(any(test, feature = "fault-injection"))]
pub(crate) fn maybe_panic(config: &crate::DartConfig, index: usize) {
    if config.faults.panic_in_session == Some(index) {
        panic!("injected fault: panic in session {index}");
    }
}

#[cfg(not(any(test, feature = "fault-injection")))]
pub(crate) fn maybe_panic(_config: &crate::DartConfig, _index: usize) {}

/// Aborts the process iff `config`'s plan names this sweep-session
/// `index` — a non-unwinding crash for exercising process-level
/// containment. Called only on the farm worker path ([`crate::farm`]);
/// the in-process sweep deliberately never consults this field.
#[cfg(any(test, feature = "fault-injection"))]
pub(crate) fn maybe_abort(config: &crate::DartConfig, index: usize) {
    if config.faults.abort_in_session == Some(index) {
        std::process::abort();
    }
}

#[cfg(not(any(test, feature = "fault-injection")))]
pub(crate) fn maybe_abort(_config: &crate::DartConfig, _index: usize) {}

thread_local! {
    /// Whether this thread is currently inside [`run_caught`]: the
    /// wrapping panic hook stays quiet for those panics (they are
    /// reported as data), and loud for everything else.
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Installs (once per process) a panic hook that defers to the previous
/// hook except while the current thread runs supervised work.
fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(|s| s.get()) {
                prev(info);
            }
        }));
    });
}

/// Runs `work` under [`catch_unwind`], converting a panic into its
/// payload message. The worker state is per-session and discarded on
/// fault (the caller retries from a fresh session), which is what makes
/// the `AssertUnwindSafe` sound: nothing that survives a fault is
/// observed again.
pub(crate) fn run_caught<T>(work: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_hook();
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(true));
    let result = catch_unwind(AssertUnwindSafe(work));
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(false));
    result.map_err(|payload| payload_message(payload.as_ref()))
}

/// Best-effort extraction of a panic payload's message (`panic!` with a
/// literal yields `&str`, with a format string `String`). Non-string
/// payloads — `panic_any(42)` and friends — are rendered by value for
/// the handful of primitive types worth special-casing, and otherwise by
/// the payload's [`TypeId`](std::any::TypeId), so the fault message
/// always identifies *what* was thrown instead of collapsing to one
/// generic string.
fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    macro_rules! try_primitive {
        ($($ty:ty),*) => {
            $(if let Some(v) = payload.downcast_ref::<$ty>() {
                return format!(
                    "engine panic with {} payload: {v}",
                    stringify!($ty)
                );
            })*
        };
    }
    try_primitive!(
        i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, u128, usize, bool, char, f32, f64
    );
    format!(
        "engine panic with non-string payload of type {:?}",
        payload.type_id()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_caught_passes_values_through() {
        assert_eq!(run_caught(|| 42), Ok(42));
    }

    #[test]
    fn run_caught_reports_str_and_string_payloads() {
        assert_eq!(
            run_caught(|| -> u32 { panic!("plain literal") }),
            Err("plain literal".to_string())
        );
        let n = 7;
        assert_eq!(
            run_caught(|| -> u32 { panic!("formatted {n}") }),
            Err("formatted 7".to_string())
        );
    }

    #[test]
    fn run_caught_describes_non_string_payloads() {
        let msg = run_caught(|| -> u32 { std::panic::panic_any(42i32) }).unwrap_err();
        assert_eq!(msg, "engine panic with i32 payload: 42");
        let msg = run_caught(|| -> u32 { std::panic::panic_any(true) }).unwrap_err();
        assert_eq!(msg, "engine panic with bool payload: true");
        #[derive(Debug)]
        struct Opaque;
        let msg = run_caught(|| -> u32 { std::panic::panic_any(Opaque) }).unwrap_err();
        assert!(
            msg.starts_with("engine panic with non-string payload of type "),
            "unexpected message: {msg}"
        );
    }

    #[test]
    fn fault_plan_reads_from_environment() {
        // Process-global env: use names no other test touches, and clean up.
        std::env::set_var("DART_FAULT_ABORT_SESSION", "3");
        std::env::set_var("DART_FAULT_UNKNOWN_QUERY", "junk");
        let plan = FaultPlan::from_env();
        std::env::remove_var("DART_FAULT_ABORT_SESSION");
        std::env::remove_var("DART_FAULT_UNKNOWN_QUERY");
        assert_eq!(plan.abort_in_session, Some(3));
        assert_eq!(plan.unknown_on_query, None);
        assert_eq!(plan.panic_in_session, None);
    }

    #[test]
    fn fault_state_counters_are_deterministic() {
        let config = crate::DartConfig {
            faults: FaultPlan {
                unknown_on_query: Some(2),
                deny_alloc: Some(0),
                ..FaultPlan::default()
            },
            ..crate::DartConfig::default()
        };
        let mut st = FaultState::for_config(&config);
        assert!(!st.force_unknown_next_query()); // query 0
        assert!(!st.force_unknown_next_query()); // query 1
        assert!(st.force_unknown_next_query()); // query 2: injected
        assert!(!st.force_unknown_next_query()); // query 3
        assert!(st.deny_next_alloc()); // alloc 0: injected
        assert!(!st.deny_next_alloc()); // alloc 1
    }

    #[test]
    fn default_plan_injects_nothing() {
        let mut st = FaultState::for_config(&crate::DartConfig::default());
        for _ in 0..10 {
            assert!(!st.force_unknown_next_query());
            assert!(!st.deny_next_alloc());
        }
    }
}
