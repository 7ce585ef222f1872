//! The scalable analytic backend for commuting-XX test circuits.
//!
//! Every gate of a test circuit is an `XX(θ)`; they all commute, so the
//! output state factorizes over the connected components of the coupling
//! graph and each component's amplitudes are an Ising character sum over
//! its own qubits only (see `itqc_sim::xx`). This backend exploits that
//! structure three ways:
//!
//! * **per-qubit marginals** — closed form `⟨Z_q⟩ = Π cos(Θ_qb)`,
//!   `O(degree)` per qubit at any register size;
//! * **exact output probabilities** — one Gray-code sum of `2^c` terms
//!   per *component* (`c` = component size), never `2^N`;
//! * **shot sampling** — the full `2^c` outcome distribution per
//!   component via a Gray-code phase walk plus a Walsh–Hadamard
//!   transform (`O(c·2^c)`), then one inverse-CDF draw per component
//!   per shot through the canonical sampler of [`crate::dist`].
//!
//! A first-round class test on `N = 32` qubits is a single 16-qubit
//! component: `2^16` table entries, milliseconds — where the dense path
//! would need `2^32` amplitudes. Prepared circuits (including their
//! distributions) are memoized in a per-backend cache keyed by the
//! noisy coupling angles, so repeated shot batteries at the same
//! repetition rung reuse one preparation.

use crate::cache::{xx_key, CacheCounters, PrepCache};
use crate::chain::{self, ChainDist, CHAIN_MAX_SPECIAL};
use crate::dist::{
    connected_components, sample_strings, sample_strings_blocked, walsh_hadamard, ComponentDist,
    SampleComponent,
};
use crate::{BackendError, PreparedCircuit, SimBackend};
use itqc_circuit::Circuit;
use itqc_math::gray;
use itqc_sim::{BitString, XxCircuit};
use rand::rngs::SmallRng;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::OnceLock;

/// Largest connected component the analytic backend will prepare: the
/// sampling table is `2^c` entries, so 20 caps it at ~8 MiB of f64 CDF.
/// Protocol class tests need `c = N/2` (16 at the paper's 32-qubit
/// ceiling); anything larger returns [`BackendError::SupportTooLarge`].
pub const MAX_COMPONENT: usize = 20;

/// Entries held per thread in the component-distribution cache before an
/// epoch flush. A 16-qubit component's CDF is ~½ MiB, so 96 entries cap
/// the per-thread table memory at ~48 MiB worst-case.
pub const COMPONENT_CACHE_CAPACITY: usize = 96;

/// One component's string sampler, selected by size: the joint `2^c`
/// table at or below [`MAX_COMPONENT`] qubits, the conditional-marginal
/// chain sampler ([`crate::chain`]) above it. Both run under the
/// canonical component-ordered sampling scheme of [`crate::dist`] (one
/// pre-scaled uniform per component per shot, joint tie semantics), so
/// the dispatch is invisible to seeded shot streams wherever both
/// engines apply.
#[derive(Clone, Debug)]
pub enum ComponentSampler {
    /// Full `2^c` outcome table (components of ≤ [`MAX_COMPONENT`]
    /// qubits).
    Joint(ComponentDist),
    /// Conditional-marginal chain sampler for oversize near-complete
    /// components.
    Chain(ChainDist),
}

impl ComponentSampler {
    /// The exact probability of the full-register basis string `global`
    /// on this component (bits outside the component are ignored).
    pub fn probability_global(&self, global: BitString) -> f64 {
        match self {
            ComponentSampler::Joint(d) => d.probability(d.local_state(global)),
            ComponentSampler::Chain(d) => d.probability_global(global),
        }
    }

    /// Resident bytes of the sampler's probability tables.
    pub fn table_bytes(&self) -> usize {
        match self {
            ComponentSampler::Joint(d) => (1usize << d.qubits().len()) * std::mem::size_of::<f64>(),
            ComponentSampler::Chain(d) => d.table_bytes(),
        }
    }
}

impl SampleComponent for ComponentSampler {
    fn qubits(&self) -> &[usize] {
        match self {
            ComponentSampler::Joint(d) => d.qubits(),
            ComponentSampler::Chain(d) => d.qubits(),
        }
    }

    fn mass(&self) -> f64 {
        match self {
            ComponentSampler::Joint(d) => d.mass(),
            ComponentSampler::Chain(d) => d.mass(),
        }
    }

    fn place(&self, x: f64, string: &mut BitString) {
        match self {
            ComponentSampler::Joint(d) => d.place(x, string),
            ComponentSampler::Chain(d) => d.place(x, string),
        }
    }
}

/// A cache of materialized [`ComponentSampler`] tables keyed on the exact
/// component sub-circuit ([`xx_key`]: qubits + angle bits) — the
/// batch-amortisation layer of the backend. Trials that share a coupling
/// graph produce byte-identical components wherever the noisy-angle
/// perturbation leaves a component's angles untouched (e.g. healthy
/// classes across trials, repeated rungs within one), and the component
/// factorisation lets each such table be built once and reused even when
/// *other* components of the circuit differ.
///
/// The cache is thread-local behind [`component_cache_stats`]: a
/// [`ComponentSampler`] is a pure function of its key, so per-thread
/// tables can never make results depend on scheduling.
#[derive(Debug, Default)]
pub struct ComponentDistCache {
    map: HashMap<Vec<u64>, ComponentSampler>,
    counters: CacheCounters,
}

impl ComponentDistCache {
    /// Returns the cached table for `key`, building and storing it on
    /// first sight.
    pub fn get_or_build<F: FnOnce() -> ComponentSampler>(
        &mut self,
        key: Vec<u64>,
        build: F,
    ) -> ComponentSampler {
        if let Some(hit) = self.map.get(&key) {
            self.counters.hits += 1;
            // Which requests hit depends on how trials were sharded
            // across threads (each thread owns a cache) — nd telemetry.
            itqc_obs::event::add_nd("backend.component_cache.hits", 1);
            return hit.clone();
        }
        self.counters.misses += 1;
        itqc_obs::event::add_nd("backend.component_cache.misses", 1);
        let dist = build();
        if self.map.len() >= COMPONENT_CACHE_CAPACITY {
            self.counters.evictions += self.map.len() as u64;
            itqc_obs::event::add_nd("backend.component_cache.evictions", self.map.len() as u64);
            self.map.clear(); // epoch flush, same policy as PrepCache
        }
        self.map.insert(key, dist.clone());
        dist
    }

    /// Full hit/miss/eviction counters since construction.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Number of cached component tables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

thread_local! {
    static COMPONENT_CACHE: RefCell<ComponentDistCache> =
        RefCell::new(ComponentDistCache::default());
}

/// Hit/miss/eviction counters of this thread's component-distribution
/// cache since thread start — the denominator of the batch
/// amortisation's observability.
pub fn component_cache_stats() -> CacheCounters {
    COMPONENT_CACHE.with(|c| c.borrow().counters())
}

/// The analytic commuting-XX backend with its prepared-circuit cache.
#[derive(Clone, Debug, Default)]
pub struct XxAnalyticBackend {
    cache: Rc<RefCell<PrepCache>>,
}

impl XxAnalyticBackend {
    /// A backend with a fresh cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// (hits, misses) of the prepared-circuit cache — clones of this
    /// backend share one cache, so an executor and its shot-sampling
    /// wrapper reuse each other's preparations.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.borrow().stats()
    }

    /// Prepares an accumulated [`XxCircuit`] directly (the circuit-free
    /// entry point used by the executor fast path and tests).
    pub fn prepare_xx(&self, xx: XxCircuit) -> Result<Rc<XxPrepared>, BackendError> {
        let key = xx_key(&xx);
        if let Some(hit) = self.cache.borrow_mut().get(&key) {
            return Ok(hit);
        }
        let prepared = Rc::new(XxPrepared::build(xx)?);
        self.cache.borrow_mut().insert(key, Rc::clone(&prepared));
        Ok(prepared)
    }
}

impl SimBackend for XxAnalyticBackend {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn prepare(&self, circuit: &Circuit) -> Result<Rc<dyn PreparedCircuit>, BackendError> {
        let xx = XxCircuit::from_circuit(circuit).ok_or(BackendError::NotCommutingXx)?;
        Ok(self.prepare_xx(xx)? as Rc<dyn PreparedCircuit>)
    }

    fn prepare_batch(
        &self,
        circuits: &[Circuit],
    ) -> Vec<Result<Rc<dyn PreparedCircuit>, BackendError>> {
        circuits
            .iter()
            .map(|circuit| {
                let xx = XxCircuit::from_circuit(circuit).ok_or(BackendError::NotCommutingXx)?;
                let prepared = self.prepare_xx(xx)?;
                // Batch callers sample: materialize now so shared
                // components amortise across the batch through the
                // thread's component cache.
                prepared.distributions();
                Ok(prepared as Rc<dyn PreparedCircuit>)
            })
            .collect()
    }
}

/// A prepared commuting-XX circuit: component split done, distributions
/// materialized lazily on the first sampling request.
///
/// `Send + Sync` (distributions materialize through a [`OnceLock`]), so
/// preparations can be shared across threads behind an `Arc` — the
/// property the fleet's cross-trap prepared-circuit cache builds on.
#[derive(Debug)]
pub struct XxPrepared {
    xx: XxCircuit,
    support: Vec<usize>,
    /// One accumulated sub-circuit per connected component (qubits kept
    /// in global numbering), ascending by first qubit, with each
    /// component's qubit bit-mask alongside.
    comp_circuits: Vec<(XxCircuit, BitString)>,
    dists: OnceLock<Vec<ComponentSampler>>,
}

impl XxPrepared {
    /// Prepares an accumulated commuting-XX circuit outside any backend
    /// — the entry point for external cache layers that manage sharing
    /// themselves (e.g. the fleet's concurrent cross-trap cache, which
    /// stores preparations behind `Arc` instead of this crate's
    /// per-backend `Rc`).
    pub fn prepare(xx: XxCircuit) -> Result<Self, BackendError> {
        Self::build(xx)
    }

    pub(crate) fn build(xx: XxCircuit) -> Result<Self, BackendError> {
        let support = xx.support();
        let pos: BTreeMap<usize, usize> =
            support.iter().enumerate().map(|(k, &q)| (q, k)).collect();
        let edges: Vec<(usize, usize)> = xx.terms().map(|((a, b), _)| (pos[&a], pos[&b])).collect();
        let comps = connected_components(support.len(), &edges);
        let comp_circuits: Vec<(XxCircuit, BitString)> = comps
            .iter()
            .map(|members| {
                let qubits: Vec<usize> = members.iter().map(|&k| support[k]).collect();
                let set: std::collections::BTreeSet<usize> = qubits.iter().copied().collect();
                let mut sub = XxCircuit::new(xx.n_qubits());
                for ((a, b), theta) in xx.terms() {
                    if set.contains(&a) {
                        debug_assert!(set.contains(&b), "edge must stay inside its component");
                        sub.add_xx(a, b, theta);
                    }
                }
                let mask = qubits.iter().fold(0 as BitString, |m, &q| m | ((1 as BitString) << q));
                (sub, mask)
            })
            .collect();
        // Oversize components must carry chain-sampleable structure;
        // the cheap O(c²) plan runs here so an unstructured giant
        // surfaces as a typed refusal at prepare time, never as a 2^c
        // table attempt (or a panic) at first sampling request.
        for (sub, mask) in &comp_circuits {
            if mask.count_ones() as usize > MAX_COMPONENT {
                if let Err(refusal) = chain::plan(sub) {
                    return Err(BackendError::ChainUnsupported {
                        support: refusal.support,
                        special: refusal.special,
                        limit: CHAIN_MAX_SPECIAL,
                    });
                }
            }
        }
        Ok(XxPrepared { xx, support, comp_circuits, dists: OnceLock::new() })
    }

    /// The underlying accumulated circuit.
    pub fn xx(&self) -> &XxCircuit {
        &self.xx
    }

    /// The component samplers, materialized on first use through the
    /// calling thread's [`ComponentDistCache`] so circuits sharing a
    /// component (same qubits, same exact angles) build its table once
    /// per thread. Components of ≤ [`MAX_COMPONENT`] qubits get the
    /// joint `2^c` table, larger ones the chain sampler (structure
    /// validated at prepare time). Cached tables are byte-identical to
    /// fresh builds (the key pins the angles bit-for-bit), so the cache
    /// is invisible to every downstream statistic.
    pub fn distributions(&self) -> &[ComponentSampler] {
        self.dists
            .get_or_init(|| COMPONENT_CACHE.with(|cache| self.build_dists(&mut cache.borrow_mut())))
    }

    /// Materializes the distributions through an explicit cache instead
    /// of the thread-local one — for callers that manage their own
    /// amortisation scope (tests pinning hit counts, external layers).
    /// A no-op if the tables already exist.
    pub fn materialize_with(&self, cache: &mut ComponentDistCache) -> &[ComponentSampler] {
        self.dists.get_or_init(|| self.build_dists(cache))
    }

    fn build_dists(&self, cache: &mut ComponentDistCache) -> Vec<ComponentSampler> {
        self.comp_circuits
            .iter()
            .map(|(sub, mask)| {
                cache.get_or_build(xx_key(sub), || {
                    if mask.count_ones() as usize <= MAX_COMPONENT {
                        ComponentSampler::Joint(component_distribution(sub))
                    } else {
                        let dist = ChainDist::build(sub)
                            .expect("oversize component structure validated at prepare time");
                        ComponentSampler::Chain(dist)
                    }
                })
            })
            .collect()
    }

    /// Connected-component sizes in qubits, in preparation order.
    pub fn component_sizes(&self) -> Vec<usize> {
        self.comp_circuits.iter().map(|(_, mask)| mask.count_ones() as usize).collect()
    }

    /// Resident-size estimate of the fully materialized preparation:
    /// per component the `2^c` f64 CDF table (joint) or the layered
    /// `(z_T, k)` prefix tables (chain, `Σ_τ 2^{t−τ}·(n+1)` entries) —
    /// the expensive, shareable part — plus the accumulated gate list.
    /// Used by byte-budgeted cache layers.
    pub fn table_bytes(&self) -> usize {
        let tables: usize = self
            .comp_circuits
            .iter()
            .map(|(sub, mask)| {
                let c = mask.count_ones() as usize;
                if c <= MAX_COMPONENT {
                    (1usize << c) * std::mem::size_of::<f64>()
                } else {
                    let plan =
                        chain::plan(sub).expect("oversize structure validated at prepare time");
                    let t = plan.special.len();
                    ((1usize << (t + 1)) - 1) * (c - t + 1) * std::mem::size_of::<f64>()
                }
            })
            .sum();
        tables + self.xx.terms().count() * 3 * std::mem::size_of::<u64>()
    }
}

/// The full `2^c` outcome distribution of one connected commuting-XX
/// component: a Gray-code walk fills the X-basis phase table
/// `v[y] = e^{−iφ(y)}`, a Walsh–Hadamard transform turns it into the
/// amplitude table `A(z) = 2^{−c}·Σ_y (−1)^{y·z} v[y]`, and `|A|²` is
/// the distribution.
fn component_distribution(sub: &XxCircuit) -> ComponentDist {
    let qubits = sub.support();
    let c = qubits.len();
    debug_assert!(c >= 1);
    let pos: BTreeMap<usize, usize> = qubits.iter().enumerate().map(|(k, &q)| (q, k)).collect();
    // Dense symmetric weight matrix over the component.
    let mut w = vec![0.0f64; c * c];
    for ((a, b), theta) in sub.terms() {
        let (ia, ib) = (pos[&a], pos[&b]);
        w[ia * c + ib] += theta;
        w[ib * c + ia] += theta;
    }
    // Gray walk over the 2^c spin configurations, exactly as
    // XxCircuit::amplitude (see its derivation), but storing every
    // phase instead of accumulating one target's sum.
    let size = 1usize << c;
    let mut re = vec![0.0f64; size];
    let mut im = vec![0.0f64; size];
    let mut s = vec![1.0f64; c];
    let mut r: Vec<f64> = (0..c).map(|q| (0..c).map(|b| w[q * c + b]).sum()).collect();
    let mut phi: f64 = 0.25 * r.iter().sum::<f64>();
    let mut y = 0usize;
    re[0] = phi.cos(); // cis(−φ) = (cos φ, −sin φ)
    im[0] = -phi.sin();
    for k in 1..size {
        let q = k.trailing_zeros() as usize;
        phi -= s[q] * r[q];
        let delta = -2.0 * s[q];
        for b in 0..c {
            if b != q {
                r[b] += w[q * c + b] * delta;
            }
        }
        s[q] = -s[q];
        y ^= 1 << q;
        debug_assert_eq!(y, gray(k));
        re[y] = phi.cos();
        im[y] = -phi.sin();
    }
    // One WHT stage per qubit, half the table per stage.
    itqc_obs::event::add_nd("backend.wht.butterflies", (c as u64) << (c - 1));
    walsh_hadamard(&mut re, &mut im);
    let norm = 1.0 / (size * size) as f64; // |2^{−c}·WHT|²
    let probs: Vec<f64> = re.iter().zip(&im).map(|(&a, &b)| (a * a + b * b) * norm).collect();
    ComponentDist::new(qubits, &probs)
}

/// Counts the Joint-vs-Chain sampler dispatch of one sampling call.
/// Counted at *sample* time (not table-build time, which thread-local
/// caches make partition-dependent): the number of sampling calls
/// routed to each engine is logical work, so it belongs to the
/// deterministic snapshot.
fn record_sampler_dispatch(dists: &[ComponentSampler]) {
    if !itqc_obs::enabled() {
        return;
    }
    let joint = dists.iter().filter(|d| matches!(d, ComponentSampler::Joint(_))).count() as u64;
    let chain = dists.len() as u64 - joint;
    if joint > 0 {
        itqc_obs::event::add("backend.sampler.joint_components", joint);
    }
    if chain > 0 {
        itqc_obs::event::add("backend.sampler.chain_components", chain);
    }
}

impl PreparedCircuit for XxPrepared {
    fn n_qubits(&self) -> usize {
        self.xx.n_qubits()
    }

    fn support(&self) -> &[usize] {
        &self.support
    }

    fn probability(&self, target: BitString) -> f64 {
        // Off-support bits must stay |0⟩.
        let mut mask: BitString = 0;
        for &q in &self.support {
            mask |= (1 as BitString) << q;
        }
        if target & !mask != 0 {
            return 0.0;
        }
        // Product of per-component probabilities — each an exact table
        // lookup once sampling materialized the samplers.
        if let Some(dists) = self.dists.get() {
            return dists.iter().map(|d| d.probability_global(target)).product();
        }
        if self.comp_circuits.iter().all(|(_, m)| m.count_ones() as usize <= MAX_COMPONENT) {
            // Small components: one exact 2^c Gray sum each, cheaper
            // than materializing tables for a single target. Each
            // component only sees its own bits of the target; bits of
            // other components would (wrongly) zero its amplitude.
            return self.comp_circuits.iter().map(|(sub, m)| sub.fidelity(target & m)).product();
        }
        // An oversize component makes the Gray sum intractable; the
        // chain sampler's (z_T, k) table answers any target in O(c),
        // so materialize through the thread cache and look up.
        self.distributions().iter().map(|d| d.probability_global(target)).product()
    }

    fn marginal_one(&self, q: usize) -> f64 {
        self.xx.marginal_one(q)
    }

    fn sample(&self, rng: &mut SmallRng, shots: usize) -> Vec<BitString> {
        let dists = self.distributions();
        record_sampler_dispatch(dists);
        sample_strings(dists, rng, shots)
    }

    fn sample_block(&self, rng: &mut SmallRng, shots: usize) -> Vec<BitString> {
        let dists = self.distributions();
        record_sampler_dispatch(dists);
        sample_strings_blocked(dists, rng, shots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::FRAC_PI_2;

    fn random_xx(rng: &mut SmallRng, n: usize, gates: usize) -> XxCircuit {
        let mut xx = XxCircuit::new(n);
        for _ in 0..gates {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n);
            while b == a {
                b = rng.gen_range(0..n);
            }
            xx.add_xx(a, b, rng.gen_range(-3.0..3.0));
        }
        xx
    }

    fn joint(d: &ComponentSampler) -> &ComponentDist {
        match d {
            ComponentSampler::Joint(j) => j,
            ComponentSampler::Chain(_) => panic!("expected a joint table"),
        }
    }

    #[test]
    fn component_distribution_matches_gray_sum_fidelities() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..10 {
            let xx = random_xx(&mut rng, 7, 9);
            let prep = XxPrepared::build(xx.clone()).unwrap();
            for _ in 0..12 {
                let target = rng.gen_range(0..(1usize << 7)) as BitString;
                let direct = xx.fidelity(target);
                let via_prep = prep.probability(target);
                assert!((direct - via_prep).abs() < 1e-10, "target {target:07b}");
            }
            // Materialize the tables and re-check through them.
            let _ = prep.distributions();
            for target in [0 as BitString, 0b1010101, 0b0110011] {
                assert!((xx.fidelity(target) - prep.probability(target)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn distribution_normalizes_and_respects_components() {
        // Two disjoint pairs → two 2-qubit components, each P(00)=P(11)=½.
        let mut xx = XxCircuit::new(6);
        xx.add_xx(0, 2, FRAC_PI_2).add_xx(3, 5, FRAC_PI_2);
        let prep = XxPrepared::build(xx).unwrap();
        let dists = prep.distributions();
        assert_eq!(dists.len(), 2);
        assert_eq!(dists[0].qubits(), &[0, 2]);
        assert_eq!(dists[1].qubits(), &[3, 5]);
        for d in dists {
            let d = joint(d);
            assert!((d.probability(0) - 0.5).abs() < 1e-12);
            assert!((d.probability(0b11) - 0.5).abs() < 1e-12);
            assert!(d.probability(0b01) < 1e-12);
        }
        // Sampled strings only ever flip pairs together.
        let mut rng = SmallRng::seed_from_u64(3);
        for s in PreparedCircuit::sample(&prep, &mut rng, 200) {
            let pair1 = (s & 1, (s >> 2) & 1);
            let pair2 = ((s >> 3) & 1, (s >> 5) & 1);
            assert_eq!(pair1.0, pair1.1);
            assert_eq!(pair2.0, pair2.1);
        }
    }

    #[test]
    fn cache_returns_shared_preparations() {
        let backend = XxAnalyticBackend::new();
        let mut xx = XxCircuit::new(4);
        xx.add_xx(0, 1, 0.7).add_xx(2, 3, -0.2);
        let a = backend.prepare_xx(xx.clone()).unwrap();
        let b = backend.prepare_xx(xx).unwrap();
        assert!(Rc::ptr_eq(&a, &b), "identical circuits must share one preparation");
        let (hits, misses) = backend.cache_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn prepared_circuits_are_send_sync_with_size_accounting() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<XxPrepared>();
        // Two disjoint pairs → components of 2 qubits each; table bytes
        // dominated by two 2^2 CDFs plus the 2-term gate list.
        let mut xx = XxCircuit::new(6);
        xx.add_xx(0, 2, 0.3).add_xx(3, 5, 0.4);
        let prep = XxPrepared::prepare(xx).unwrap();
        assert_eq!(prep.component_sizes(), vec![2, 2]);
        assert_eq!(prep.table_bytes(), 2 * 4 * 8 + 2 * 3 * 8);
    }

    #[test]
    fn component_cache_amortises_shared_components_across_circuits() {
        // Two circuits share the (0,1) component with identical angle
        // bits but differ on their second component — the shared table
        // must build once, and cached tables must be byte-identical to
        // fresh builds.
        let mut a = XxCircuit::new(6);
        a.add_xx(0, 1, 0.7).add_xx(2, 3, 0.4);
        let mut b = XxCircuit::new(6);
        b.add_xx(0, 1, 0.7).add_xx(2, 3, 0.9); // perturbed second component
        let prep_a = XxPrepared::build(a).unwrap();
        let prep_b = XxPrepared::build(b).unwrap();
        let mut cache = ComponentDistCache::default();
        let dists_a = prep_a.materialize_with(&mut cache).to_vec();
        let dists_b = prep_b.materialize_with(&mut cache).to_vec();
        let counters = cache.counters();
        assert_eq!(
            (counters.hits, counters.misses),
            (1, 3),
            "the shared (0,1) component must hit on the second circuit"
        );
        assert_eq!(cache.len(), 3);
        assert!(!cache.is_empty());
        // The cache-served distribution equals a fresh build bit-for-bit.
        let mut fresh = XxCircuit::new(6);
        fresh.add_xx(0, 1, 0.7).add_xx(2, 3, 0.4);
        let prep_fresh = XxPrepared::build(fresh).unwrap();
        let mut empty = ComponentDistCache::default();
        let dists_fresh = prep_fresh.materialize_with(&mut empty);
        for (cached, built) in [(&dists_b[0], &dists_fresh[0]), (&dists_a[1], &dists_fresh[1])] {
            let (cached, built) = (joint(cached), joint(built));
            assert_eq!(cached.qubits(), built.qubits());
            for local in 0..(1usize << cached.qubits().len()) {
                assert_eq!(
                    cached.probability(local).to_bits(),
                    built.probability(local).to_bits(),
                    "cached table must be byte-identical to a fresh build"
                );
            }
        }
    }

    #[test]
    fn batch_prepare_materializes_through_the_thread_cache() {
        let backend = XxAnalyticBackend::new();
        let before = component_cache_stats();
        let mut c1 = Circuit::new(4);
        c1.xx(0, 1, 0.3).xx(2, 3, 0.8);
        let mut c2 = Circuit::new(4);
        c2.xx(0, 1, 0.3).xx(2, 3, 0.81);
        let preps = SimBackend::prepare_batch(&backend, &[c1, c2]);
        assert_eq!(preps.len(), 2);
        let after = component_cache_stats();
        // Four components total, one shared: ≥1 hit, exactly 3 misses.
        assert_eq!(after.misses - before.misses, 3);
        assert!(after.hits - before.hits >= 1);
        // Batched preparations sample like unbatched ones.
        let a = preps[0].as_ref().unwrap();
        let mut r1 = SmallRng::seed_from_u64(5);
        let mut r2 = SmallRng::seed_from_u64(5);
        assert_eq!(a.sample_block(&mut r1, 64), a.sample(&mut r2, 64));
    }

    #[test]
    fn oversized_component_without_structure_is_rejected_typed() {
        // A star has no complete-graph bulk: every present edge deviates
        // from the modal (absent-pair) angle, so all qubits are special
        // and the chain sampler must refuse — with a typed error at
        // prepare time, not a 2^22 table attempt downstream.
        let mut xx = XxCircuit::new(MAX_COMPONENT + 2);
        for q in 1..MAX_COMPONENT + 2 {
            xx.add_xx(0, q, 0.1); // a star: one (MAX_COMPONENT+2)-qubit component
        }
        match XxPrepared::build(xx) {
            Err(BackendError::ChainUnsupported { support, special, limit }) => {
                assert_eq!(support, MAX_COMPONENT + 2);
                assert_eq!(special, MAX_COMPONENT + 2);
                assert_eq!(limit, CHAIN_MAX_SPECIAL);
            }
            other => panic!("expected ChainUnsupported, got {other:?}"),
        }
    }

    #[test]
    fn oversized_complete_component_now_prepares_and_samples() {
        // The old hard cap: a 24-qubit complete class was
        // SupportTooLarge. The chain path accepts it (t = 0) and
        // samples full strings; its marginals must track closed form.
        let mut xx = XxCircuit::new(24);
        for a in 0..24usize {
            for b in (a + 1)..24 {
                xx.add_xx(a, b, 2.0 * FRAC_PI_2 * 0.96);
            }
        }
        let prep = XxPrepared::build(xx).unwrap();
        let dists = prep.distributions();
        assert_eq!(dists.len(), 1);
        assert!(matches!(dists[0], ComponentSampler::Chain(_)));
        let p_one = prep.marginal_one(0);
        let mut rng = SmallRng::seed_from_u64(17);
        let shots = 4000usize;
        let strings = PreparedCircuit::sample(&prep, &mut rng, shots);
        let sampled = strings.iter().filter(|&&s| s & 1 == 1).count() as f64 / shots as f64;
        let sigma = (p_one * (1.0 - p_one) / shots as f64).sqrt().max(1e-4);
        assert!((sampled - p_one).abs() < 5.0 * sigma, "sampled {sampled} vs closed-form {p_one}");
    }

    #[test]
    fn thirty_two_qubit_class_component_prepares_fast() {
        // The Fig. 8 workload: a 16-qubit complete class on 32 qubits.
        let mut xx = XxCircuit::new(32);
        let class: Vec<usize> = (0..32).filter(|q| q % 2 == 0).collect();
        for (i, &a) in class.iter().enumerate() {
            for &b in &class[i + 1..] {
                xx.add_xx(a, b, 2.0 * FRAC_PI_2 * 0.97);
            }
        }
        let prep = XxPrepared::build(xx).unwrap();
        let dists = prep.distributions();
        assert_eq!(dists.len(), 1);
        assert_eq!(dists[0].qubits().len(), 16);
        let mut rng = SmallRng::seed_from_u64(9);
        let strings = PreparedCircuit::sample(&prep, &mut rng, 50);
        assert_eq!(strings.len(), 50);
        // Odd (untouched) qubits always read 0.
        for s in strings {
            assert_eq!(s & 0xAAAA_AAAA, 0);
        }
    }
}
