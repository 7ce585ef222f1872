//! Cross-trial memoisation of exact circuit scores.
//!
//! The Monte-Carlo sweeps (Table II, Fig. 9) evaluate the *same* noisy
//! circuit's exact score thousands of times: threshold re-tunes replay
//! a rung's class battery within a trial, and every class test whose
//! couplings escaped the trial's planted faults compiles to a circuit
//! byte-identical across trials. The score is a pure function of the
//! accumulated `(circuit, target, statistic)` triple, so a thread-local
//! memo keyed on [`crate::cache::xx_key`] returns the exact float the
//! first evaluation produced — outputs are bit-identical with the memo
//! on or off, at any thread count (each worker thread owns its own
//! table; values never cross threads, so scheduling cannot matter).
//!
//! The memo complements the [`crate::cache::PrepCache`] one level up:
//! the prep cache amortises *table construction* for sampling and
//! repeated-target queries, this memo amortises *single-target exact
//! evaluation* on the oracle fast path that never builds tables at all.

use std::cell::RefCell;
use std::collections::HashMap;

/// Entries held per thread before an epoch flush. A key is ~3 words per
/// gate plus the boxed f64; at Table II's 32-qubit class tests (~120
/// gates) the table tops out around 100 MiB worst-case.
pub const SCORE_MEMO_CAPACITY: usize = 1 << 15;

/// Gate count below which memoisation is skipped: tiny circuits (point
/// tests, canaries on a few couplings) evaluate faster than their key
/// hashes.
pub const SCORE_MEMO_MIN_GATES: usize = 6;

/// The memoised statistic, part of the key (one circuit serves both).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScoreKind {
    /// Exact target-string probability.
    ExactTarget,
    /// Worst per-qubit agreement over the support.
    WorstQubit,
}

/// Memo key: the exact circuit key, the target string, the statistic.
type ScoreMemoKey = (Vec<u64>, itqc_sim::BitString, ScoreKind);

thread_local! {
    static SCORE_MEMO: RefCell<HashMap<ScoreMemoKey, f64>> = RefCell::new(HashMap::new());
}

/// Returns the memoised score for `(circuit_key, target, kind)`,
/// computing and storing it on first sight. `circuit_key` must come
/// from [`crate::cache::xx_key`] (or be equally exact): the memo is
/// only sound because the key determines the score bit-for-bit.
pub fn cached_score<F: FnOnce() -> f64>(
    circuit_key: Vec<u64>,
    target: itqc_sim::BitString,
    kind: ScoreKind,
    compute: F,
) -> f64 {
    let key = (circuit_key, target, kind);
    // Lookups are logical work (one per memo-eligible score request,
    // whatever the sharding) — deterministic. The hit/miss split
    // depends on which thread's table a request lands in, so it is
    // nondeterministic telemetry.
    itqc_obs::event::add("backend.memo.lookups", 1);
    if let Some(hit) = SCORE_MEMO.with(|m| m.borrow().get(&key).copied()) {
        itqc_obs::event::add_nd("backend.memo.hits", 1);
        return hit;
    }
    itqc_obs::event::add_nd("backend.memo.misses", 1);
    let value = compute();
    SCORE_MEMO.with(|m| {
        let mut m = m.borrow_mut();
        if m.len() >= SCORE_MEMO_CAPACITY {
            m.clear(); // epoch flush, same policy as PrepCache
        }
        m.insert(key, value);
    });
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_returns_the_first_computation_bit_for_bit() {
        let key = vec![4u64, 0, 1, 0.5f64.to_bits()];
        let first = cached_score(key.clone(), 3, ScoreKind::ExactTarget, || 0.123456789);
        // A conflicting recompute must be ignored: the memo serves the
        // original value.
        let second = cached_score(key.clone(), 3, ScoreKind::ExactTarget, || 0.987654321);
        assert_eq!(first.to_bits(), second.to_bits());
        // Different target or statistic is a different entry.
        let other = cached_score(key.clone(), 4, ScoreKind::ExactTarget, || 0.5);
        assert_eq!(other, 0.5);
        let worst = cached_score(key, 3, ScoreKind::WorstQubit, || 0.25);
        assert_eq!(worst, 0.25);
    }

    #[test]
    fn capacity_flush_keeps_the_table_bounded() {
        // Overfill the thread's memo; the epoch flush must keep it
        // usable (and the flushed entry recomputes to the same value —
        // pure functions make eviction invisible).
        for i in 0..(SCORE_MEMO_CAPACITY + 16) {
            let v = cached_score(vec![i as u64], 0, ScoreKind::ExactTarget, || i as f64);
            assert_eq!(v, i as f64);
        }
        let again = cached_score(vec![7u64], 0, ScoreKind::ExactTarget, || 7.0);
        assert_eq!(again, 7.0);
    }
}
