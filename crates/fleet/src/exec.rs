//! The cache-routed test executor for fleet traps.
//!
//! [`CachedTrapExecutor`] implements `itqc_core::TestExecutor` over a
//! [`VirtualTrap`]. The trap emits each test circuit
//! ([`VirtualTrap::noisy_xx`]) and the one trap scorer
//! ([`score_on_trap`]) samples and bills it; only the preparation
//! in between is routed through the two cache layers — per-trap L1,
//! shared snapshot L2 — with an [`XxPrepared`] built only on a double
//! miss and logged so the scheduler can admit it into the shared cache
//! at the tick barrier.
//!
//! Shot outcomes are drawn from the trap's own RNG, so a machine behaves
//! bit-identically whether its tests run through this executor, another
//! trap warmed the cache first, or no cache exists at all. This is the
//! property that makes the fleet summary independent of worker count.
//!
//! Requires a trap with zero amplitude jitter (the fleet runs the
//! quasi-static drift model, where noise moves only at drift epochs):
//! per-shot jitter would make the circuit — and hence the cache key —
//! change under the executor's feet.

use crate::cache::{CacheSnapshot, TrapCache};
use itqc_backend::cache::xx_key;
use itqc_backend::XxPrepared;
use itqc_core::executor::score_on_trap;
use itqc_core::{TestExecutor, TestSpec};
use itqc_trap::VirtualTrap;
use std::sync::Arc;

/// A per-trap executor routing circuit preparation through the fleet's
/// cache hierarchy. Borrows the trap and its tick-scoped state for the
/// duration of one queue item.
pub struct CachedTrapExecutor<'a> {
    trap: &'a mut VirtualTrap,
    l1: &'a mut TrapCache,
    l2: &'a CacheSnapshot,
}

impl<'a> CachedTrapExecutor<'a> {
    /// Wires an executor over one trap's tick state.
    pub fn new(trap: &'a mut VirtualTrap, l1: &'a mut TrapCache, l2: &'a CacheSnapshot) -> Self {
        debug_assert!(
            trap.config().amplitude_jitter_std == 0.0,
            "cached execution needs quasi-static noise (no per-shot jitter)"
        );
        CachedTrapExecutor { trap, l1, l2 }
    }

    /// Resolves the prepared circuit for `spec` under the trap's current
    /// calibration: L1, then the L2 snapshot, then build-and-log.
    pub fn prepared_for(&mut self, spec: &TestSpec) -> Arc<XxPrepared> {
        let xx = self.trap.noisy_xx(&spec.gates);
        let key = xx_key(&xx);
        if let Some(p) = self.l1.get(&key) {
            return p;
        }
        if let Some(p) = self.l2.get(&key) {
            self.l1.insert_l2_hit(key, Arc::clone(&p));
            return p;
        }
        let prep = Arc::new(XxPrepared::prepare(xx).expect("fleet test circuits are commuting-XX"));
        prep.distributions(); // materialize before sharing
        self.l1.insert_built(key, Arc::clone(&prep));
        prep
    }
}

impl TestExecutor for CachedTrapExecutor<'_> {
    fn n_qubits(&self) -> usize {
        self.trap.n_qubits()
    }

    fn run_test(&mut self, spec: &TestSpec, shots: usize) -> f64 {
        if shots == 0 {
            return 0.0;
        }
        let prep = self.prepared_for(spec);
        score_on_trap(self.trap, &prep, spec, shots)
    }

    fn note_adaptation(&mut self, couplings_compiled: usize) {
        self.trap.bill_adaptation(couplings_compiled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itqc_circuit::Coupling;
    use itqc_core::testplan::ScoreMode;
    use itqc_trap::{Activity, TrapConfig};

    #[test]
    fn cached_executor_matches_direct_trap_execution() {
        // Same seed → the cached path must reproduce the trap's own
        // uncached path bit for bit, for both score modes and for a
        // circuit that splits into several connected components.
        let specs = [
            (TestSpec::for_couplings("t", &[Coupling::new(0, 3)], 4), 400),
            (
                TestSpec::for_couplings("t", &[Coupling::new(1, 2)], 2)
                    .with_score(ScoreMode::WorstQubit),
                250,
            ),
            (
                TestSpec::for_couplings(
                    "t",
                    &[Coupling::new(0, 3), Coupling::new(1, 2), Coupling::new(4, 5)],
                    2,
                ),
                300,
            ),
        ];
        let mut direct = VirtualTrap::new(TrapConfig::ideal(6, 4242));
        direct.inject_fault(Coupling::new(0, 3), 0.21);
        direct.inject_fault(Coupling::new(4, 5), -0.13);
        let d: Vec<f64> = specs.iter().map(|(spec, shots)| direct.run_test(spec, *shots)).collect();

        let mut trap = VirtualTrap::new(TrapConfig::ideal(6, 4242));
        trap.inject_fault(Coupling::new(0, 3), 0.21);
        trap.inject_fault(Coupling::new(4, 5), -0.13);
        let (mut l1, l2) = (TrapCache::default(), CacheSnapshot::default());
        let mut exec = CachedTrapExecutor::new(&mut trap, &mut l1, &l2);
        for ((spec, shots), d) in specs.iter().zip(d) {
            assert_eq!(d.to_bits(), exec.run_test(spec, *shots).to_bits(), "{spec}");
        }
        assert_eq!(
            direct.duty().seconds(Activity::Testing).to_bits(),
            trap.duty().seconds(Activity::Testing).to_bits(),
            "billing must match the uncached path"
        );
        // Every circuit was cold: one logged build each, no L2 hit.
        let (built, touched) = l1.take_l2_logs();
        assert_eq!(built.len(), 3);
        assert!(touched.is_empty());
    }

    #[test]
    fn repeat_tests_hit_l1_and_warm_snapshots_hit_l2() {
        let spec = TestSpec::for_couplings("t", &[Coupling::new(0, 1)], 2);
        let mut trap = VirtualTrap::new(TrapConfig::ideal(6, 7));
        let (mut l1, l2) = (TrapCache::default(), CacheSnapshot::default());
        {
            let mut exec = CachedTrapExecutor::new(&mut trap, &mut l1, &l2);
            let _ = exec.run_test(&spec, 10);
            let _ = exec.run_test(&spec, 10); // replay within the tick: L1
        }
        let (built, touched) = l1.take_l2_logs();
        assert_eq!((built.len(), touched.len()), (1, 0), "replay is absorbed by L1");
        let l1c = l1.counters();
        assert_eq!((l1c.hits, l1c.misses), (1, 1));

        // Promote the build into a shared cache and re-run on a fresh tick.
        let mut shared = crate::cache::SharedPrepCache::new(usize::MAX);
        for (k, p) in built {
            shared.admit(k, p, 0);
        }
        shared.end_tick(0);
        let snap = shared.snapshot();
        l1.begin_tick();
        let mut exec = CachedTrapExecutor::new(&mut trap, &mut l1, &snap);
        let _ = exec.run_test(&spec, 10);
        let (built, touched) = l1.take_l2_logs();
        assert_eq!(touched.len(), 1, "next tick is an L2 snapshot hit, logged for LRU refresh");
        assert!(built.is_empty());
    }
}
