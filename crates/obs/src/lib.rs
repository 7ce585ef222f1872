//! # itqc-obs — deterministic counters, wall-clock spans, metrics sinks
//!
//! A zero-dependency observability subsystem for the itqc workspace,
//! split into two determinism classes that never mix:
//!
//! * **Deterministic events** — named monotonic counters and integer
//!   value histograms that count *logical work* (shots drawn, sampler
//!   dispatches, memo lookups, decoder rounds). Every quantity admitted
//!   to this class is partition-invariant: its end-of-run total is the
//!   same at any `--threads`/`--workers` count, because worker shards
//!   hold plain `u64` sums and histogram buckets whose merge is
//!   commutative addition. The [`Registry::deterministic_snapshot`] of
//!   such a run is bit-identical across thread counts — CI diffs it.
//! * **Nondeterministic telemetry** — wall-clock [`span`] timers plus
//!   counters/histograms whose value genuinely depends on how work was
//!   partitioned (thread-local cache hits/misses, Walsh–Hadamard
//!   butterflies amortised by per-thread caches). These live in a
//!   separate section of the emitted document and are structurally
//!   excluded from the deterministic snapshot: [`Snapshot`] has no span
//!   field, and in debug builds registering a deterministic name under
//!   the reserved `nd.`/`span.` prefixes panics.
//!
//! The whole layer is **disabled by default**: every ambient event call
//! is a single relaxed atomic load and a branch until
//! [`set_enabled`]`(true)` (the bench binaries flip it under
//! `--metrics`). Hot loops therefore pay nothing in
//! ordinary runs — `make obs-check` pins the overhead.
//!
//! Reporting is the caller's job: binaries render
//! [`Registry::document`] (a versioned JSON object whose
//! `"deterministic"` member is a single line, so shell gates can
//! `grep`-and-`diff` it) to **stderr or a sidecar file, never stdout**,
//! preserving the repo's byte-identity gates.

#![warn(missing_docs)]

mod event_impl;
mod registry;
mod span_impl;

pub use registry::{Counter, Registry, Snapshot, SpanStat};

/// Ambient thread-local event shards: [`event::add`], [`event::observe`]
/// and their `_nd` variants accumulate locally, [`event::flush`] folds
/// the shard into the global registry.
pub mod event {
    pub use crate::event_impl::{add, add_nd, flush, observe, observe_nd};
}

/// Scoped wall-clock phase timers; see [`span::timed`].
pub mod span {
    pub use crate::span_impl::{timed, SpanGuard};
}

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// Turns the ambient event/span layer on or off process-wide. Off (the
/// default) reduces every [`event`] call to a relaxed load and a branch.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the ambient event/span layer is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-global registry the ambient [`event`] and [`span`]
/// layers report into. Long-lived subsystems that need isolation (the
/// fleet service, unit tests) construct their own [`Registry`] instead.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The ambient layer is process-global state; tests touching it must
    // not interleave.
    static AMBIENT: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_events_record_nothing() {
        let _guard = AMBIENT.lock().unwrap();
        set_enabled(false);
        event::add("test.disabled", 5);
        event::flush();
        let snap = global().deterministic_snapshot();
        assert_eq!(snap.counters.get("test.disabled"), None);
    }

    #[test]
    fn events_fold_through_the_shard() {
        let _guard = AMBIENT.lock().unwrap();
        set_enabled(true);
        event::add("test.folded", 2);
        event::add("test.folded", 3);
        event::observe("test.hist", 7, 4);
        event::add_nd("test.nd_counter", 1);
        event::observe_nd("test.nd_hist", 1, 1);
        event::flush();
        set_enabled(false);
        let snap = global().deterministic_snapshot();
        assert_eq!(snap.counters.get("test.folded"), Some(&5));
        assert_eq!(snap.histograms.get("test.hist"), Some(&vec![(7, 4)]));
        // nd events never reach the deterministic snapshot.
        assert_eq!(snap.counters.get("test.nd_counter"), None);
        assert_eq!(snap.histograms.get("test.nd_hist"), None);
    }

    #[test]
    fn spans_stay_out_of_the_deterministic_snapshot() {
        let _guard = AMBIENT.lock().unwrap();
        set_enabled(true);
        {
            let _s = span::timed("test_phase");
        }
        set_enabled(false);
        let snap = global().deterministic_snapshot();
        assert!(snap.counters.keys().all(|k| !k.starts_with("span.")));
        // But the span did land in the document's nondeterministic
        // section.
        let doc = global().document("unit", 0.0);
        assert!(doc.contains("\"spans\""));
        assert!(doc.contains("\"test_phase\""));
    }

    #[test]
    fn span_guard_is_none_when_disabled() {
        let _guard = AMBIENT.lock().unwrap();
        set_enabled(false);
        assert!(span::timed("idle").is_none());
    }
}
