//! Adversarial fault-configuration generator: the worst-case placements
//! ROADMAP item 5 calls for testing coverage claims against, instead of
//! uniform draws only.
//!
//! Two structural blind spots of the paper's pipeline are constructed
//! here deterministically:
//!
//! * **Even-degree configurations** — fault sets in which every qubit
//!   touches an even number of faulty couplings, i.e. cycles and
//!   disjoint unions of cycles in the coupling graph. Under the
//!   worst-qubit statistic a qubit of faulty degree `d` agrees with the
//!   canary target with probability `(1 + cos(r·u·π/2)^d)/2`, which for
//!   even `d` is at least `1/2` at *any* fault magnitude — the fixed
//!   full-coupling canary passes and the Fig. 5 loop converges without
//!   running a single diagnosis (footnote-8 territory, degree-parity
//!   flavoured).
//! * **Tied disjoint perfect-fit covers** — fault sets aliased against a
//!   disjoint partner set producing the *identical* failing set and the
//!   identical analog score vector at every repetition count. A
//!   coupling's subcube-class membership *is* its label-agreement
//!   syndrome, so two couplings with equal syndromes are interchangeable
//!   in every first-round test; the evidence-fusion decoder's consensus
//!   honestly abstains on such families, and only a point-test
//!   tie-breaker (the `Interrogate` extension) can split them.
//!
//! Every scenario is a set of deterministic unitary under-rotations —
//! [`FaultKind::BeamIntensityMiscalibration`], the recalibration-target
//! quadrant of Table I — so the unchanged protocol applies verbatim:
//! adversarial coverage is a property of the *placement*, not of an
//! exotic fault model.

use crate::taxonomy::FaultKind;
use itqc_circuit::Coupling;
use itqc_math::bits;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The configuration classes of the adversarial scorecard.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConfigClass {
    /// Uniformly random distinct couplings (the Table II draw) — the
    /// baseline every adversarial class is scored against.
    Uniform,
    /// A cycle or disjoint-cycle union in the coupling graph: every
    /// qubit has even faulty degree, so the fixed canary passes.
    EvenDegree,
    /// One member each of two conflicting same-syndrome families: the
    /// failing set admits several disjoint perfect-fit covers with
    /// identical score predictions at every rung.
    TiedCover,
}

impl ConfigClass {
    /// All classes, scorecard order.
    pub const ALL: [ConfigClass; 3] =
        [ConfigClass::Uniform, ConfigClass::EvenDegree, ConfigClass::TiedCover];
}

impl fmt::Display for ConfigClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConfigClass::Uniform => "uniform",
            ConfigClass::EvenDegree => "even-degree",
            ConfigClass::TiedCover => "tied-cover",
        };
        write!(f, "{s}")
    }
}

/// One adversarial fault placement, exposed through the taxonomy: the
/// planted mechanism is a beam-intensity miscalibration (deterministic,
/// unitary, static — `is_recalibration_target()`), so every scenario
/// runs the paper's unchanged protocol.
#[derive(Clone, Debug, PartialEq)]
pub struct AdversarialScenario {
    /// Which scorecard class the placement belongs to.
    pub class: ConfigClass,
    /// The planted faulty couplings, sorted.
    pub faults: Vec<Coupling>,
    /// The taxonomy cell of the planted mechanism.
    pub kind: FaultKind,
    /// For [`ConfigClass::TiedCover`]: the disjoint partner covers that
    /// produce the identical failing set and score predictions (empty
    /// for the other classes). Useful for asserting that an abstaining
    /// decoder at least confines its interrogation to the tie family.
    pub tied_alternatives: Vec<Vec<Coupling>>,
}

impl AdversarialScenario {
    fn new(class: ConfigClass, mut faults: Vec<Coupling>, tied: Vec<Vec<Coupling>>) -> Self {
        faults.sort();
        AdversarialScenario {
            class,
            faults,
            kind: FaultKind::BeamIntensityMiscalibration,
            tied_alternatives: tied,
        }
    }

    /// Faulty degree of every touched qubit (the fault multigraph).
    pub fn degrees(&self) -> BTreeMap<usize, usize> {
        let mut d = BTreeMap::new();
        for c in &self.faults {
            *d.entry(c.lo()).or_insert(0) += 1;
            *d.entry(c.hi()).or_insert(0) += 1;
        }
        d
    }

    /// `true` when every touched qubit has even faulty degree — the
    /// canary-invisibility condition.
    pub fn is_even_degree(&self) -> bool {
        self.degrees().values().all(|&d| d % 2 == 0)
    }
}

/// The label-agreement syndrome of a coupling: the `(bit, value)` pairs
/// on which both endpoint labels agree. Local mirror of the core
/// syndrome (this crate sits below `itqc_core` in the dependency
/// order), kept here so tied families can be constructed from labels
/// alone.
pub fn syndrome_bits(c: Coupling, n_bits: u32) -> Vec<(u32, bool)> {
    let (a, b) = c.endpoints();
    (0..n_bits)
        .filter(|&i| bits::bit(a, i) == bits::bit(b, i))
        .map(|i| (i, bits::bit(a, i)))
        .collect()
}

/// All simple cycles on exactly `len` distinct qubits of an `n_qubits`
/// machine, as edge lists, in a deterministic canonical order: vertex
/// subsets ascend lexicographically; within a subset the smallest
/// vertex is fixed first and reflections are deduplicated.
///
/// # Panics
///
/// Panics if `len < 3`.
pub fn cycles(n_qubits: usize, len: usize) -> Vec<Vec<Coupling>> {
    assert!(len >= 3, "a cycle needs at least three vertices");
    let mut out = Vec::new();
    if len > n_qubits {
        return out;
    }
    let mut subset = Vec::with_capacity(len);
    enumerate_subsets(n_qubits, len, 0, &mut subset, &mut |vs| {
        // Fix vs[0] first; enumerate orders of the rest with
        // order[0] < order[last] so each undirected cycle appears once.
        let rest: Vec<usize> = vs[1..].to_vec();
        let mut order = Vec::with_capacity(rest.len());
        let mut used = vec![false; rest.len()];
        permute_cycles(vs[0], &rest, &mut used, &mut order, &mut out);
    });
    out
}

fn enumerate_subsets(
    n: usize,
    len: usize,
    start: usize,
    acc: &mut Vec<usize>,
    emit: &mut impl FnMut(&[usize]),
) {
    if acc.len() == len {
        emit(acc);
        return;
    }
    for v in start..n {
        if n - v < len - acc.len() {
            break;
        }
        acc.push(v);
        enumerate_subsets(n, len, v + 1, acc, emit);
        acc.pop();
    }
}

fn permute_cycles(
    anchor: usize,
    rest: &[usize],
    used: &mut [bool],
    order: &mut Vec<usize>,
    out: &mut Vec<Vec<Coupling>>,
) {
    if order.len() == rest.len() {
        if order.first() < order.last() {
            let mut edges = Vec::with_capacity(rest.len() + 1);
            let mut prev = anchor;
            for &v in order.iter() {
                edges.push(Coupling::new(prev, v));
                prev = v;
            }
            edges.push(Coupling::new(prev, anchor));
            edges.sort();
            out.push(edges);
        }
        return;
    }
    for i in 0..rest.len() {
        if used[i] {
            continue;
        }
        used[i] = true;
        order.push(rest[i]);
        permute_cycles(anchor, rest, used, order, out);
        order.pop();
        used[i] = false;
    }
}

/// Systematic enumeration of even-degree configurations: every single
/// cycle of length `3..=max_cycle`, plus (when the machine is large
/// enough) every union of two vertex-disjoint triangles. Deterministic
/// order: ascending fault count, then the cycle enumeration order.
pub fn even_degree_configs(n_qubits: usize, max_cycle: usize) -> Vec<Vec<Coupling>> {
    let mut out = Vec::new();
    for len in 3..=max_cycle.min(n_qubits) {
        out.extend(cycles(n_qubits, len));
    }
    if n_qubits >= 6 && max_cycle >= 6 {
        // Unions of two vertex-disjoint triangles, first triangle's
        // smallest vertex below the second's (each union once).
        let triangles = cycles(n_qubits, 3);
        for (i, t1) in triangles.iter().enumerate() {
            let v1: BTreeSet<usize> = t1.iter().flat_map(|c| [c.lo(), c.hi()]).collect();
            for t2 in &triangles[i + 1..] {
                let disjoint = t2.iter().all(|c| !v1.contains(&c.lo()) && !v1.contains(&c.hi()));
                if disjoint {
                    let mut union = t1.clone();
                    union.extend(t2.iter().copied());
                    union.sort();
                    out.push(union);
                }
            }
        }
    }
    out
}

/// Draws `k` distinct qubits, deterministic in the rng stream.
fn sample_qubits<R: Rng + ?Sized>(n_qubits: usize, k: usize, rng: &mut R) -> Vec<usize> {
    assert!(k <= n_qubits, "cannot draw {k} distinct qubits from {n_qubits}");
    let mut chosen: BTreeSet<usize> = BTreeSet::new();
    let mut order = Vec::with_capacity(k);
    while order.len() < k {
        let q = rng.gen_range(0..n_qubits);
        if chosen.insert(q) {
            order.push(q);
        }
    }
    order
}

/// Seeded draw of one even-degree configuration: a uniformly chosen
/// structure (triangle, 4-cycle, 5-cycle where the register allows,
/// or a union of two vertex-disjoint triangles) on uniformly chosen
/// qubits in a uniformly random cyclic order.
///
/// # Panics
///
/// Panics if `n_qubits < 3` (no cycle fits).
pub fn sample_even_degree<R: Rng + ?Sized>(n_qubits: usize, rng: &mut R) -> Vec<Coupling> {
    assert!(n_qubits >= 3, "even-degree configurations need at least 3 qubits");
    let mut structures: Vec<usize> = vec![3];
    if n_qubits >= 4 {
        structures.push(4);
    }
    if n_qubits >= 5 {
        structures.push(5);
    }
    if n_qubits >= 6 {
        structures.push(33); // two disjoint triangles
    }
    let pick = structures[rng.gen_range(0..structures.len())];
    let mut edges = match pick {
        33 => {
            let vs = sample_qubits(n_qubits, 6, rng);
            let mut e = cycle_edges(&vs[..3]);
            e.extend(cycle_edges(&vs[3..]));
            e
        }
        len => cycle_edges(&sample_qubits(n_qubits, len, rng)),
    };
    edges.sort();
    edges
}

fn cycle_edges(vs: &[usize]) -> Vec<Coupling> {
    let mut edges = Vec::with_capacity(vs.len());
    for w in vs.windows(2) {
        edges.push(Coupling::new(w[0], w[1]));
    }
    edges.push(Coupling::new(vs[vs.len() - 1], vs[0]));
    edges
}

/// All tied disjoint perfect-fit cover scenarios of the trap size: for
/// every label bit `i`, the couplings whose syndrome is *exactly*
/// `{(i, 0)}` form one family and those with exactly `{(i, 1)}` the
/// other; planting one member of each produces a bit-`i` conflict whose
/// candidate covers — every cross pair — predict identical analog
/// scores at every repetition count (same-syndrome couplings share all
/// class memberships). Deterministic enumeration order.
pub fn tied_cover_scenarios(n_qubits: usize) -> Vec<AdversarialScenario> {
    let n_bits = bits::label_bits(n_qubits);
    let all: Vec<Coupling> = {
        let mut v = Vec::new();
        for a in 0..n_qubits {
            for b in (a + 1)..n_qubits {
                v.push(Coupling::new(a, b));
            }
        }
        v
    };
    let mut out = Vec::new();
    for i in 0..n_bits {
        let family = |value: bool| -> Vec<Coupling> {
            all.iter().copied().filter(|&c| syndrome_bits(c, n_bits) == vec![(i, value)]).collect()
        };
        let g0 = family(false);
        let g1 = family(true);
        if g0.len() < 2 || g1.len() < 2 {
            continue; // no disjoint alternative cover: not a tie
        }
        for &x in &g0 {
            for &y in &g1 {
                let mut alternatives = Vec::new();
                for &ax in &g0 {
                    for &ay in &g1 {
                        if (ax, ay) != (x, y) {
                            let mut alt = vec![ax, ay];
                            alt.sort();
                            alternatives.push(alt);
                        }
                    }
                }
                out.push(AdversarialScenario::new(
                    ConfigClass::TiedCover,
                    vec![x, y],
                    alternatives,
                ));
            }
        }
    }
    out
}

/// Seeded draw of one scenario of the requested class. Uniform draws
/// match the even-degree fault-count distribution (so the scorecard
/// compares placements, not budgets); tied-cover draws index the
/// enumerated pool.
///
/// # Panics
///
/// Panics if the trap is too small for the class (tied covers need a
/// register whose same-syndrome families have at least two members —
/// 8 qubits and up).
pub fn sample_scenario<R: Rng + ?Sized>(
    class: ConfigClass,
    n_qubits: usize,
    rng: &mut R,
) -> AdversarialScenario {
    match class {
        ConfigClass::EvenDegree => {
            AdversarialScenario::new(class, sample_even_degree(n_qubits, rng), Vec::new())
        }
        ConfigClass::Uniform => {
            // Match the even-degree budget distribution, then place the
            // same number of faults uniformly.
            let k = sample_even_degree(n_qubits, rng).len();
            let mut chosen: BTreeSet<Coupling> = BTreeSet::new();
            while chosen.len() < k {
                let q = sample_qubits(n_qubits, 2, rng);
                chosen.insert(Coupling::new(q[0], q[1]));
            }
            AdversarialScenario::new(class, chosen.into_iter().collect(), Vec::new())
        }
        ConfigClass::TiedCover => {
            let pool = tied_cover_scenarios(n_qubits);
            assert!(
                !pool.is_empty(),
                "no tied disjoint covers exist at {n_qubits} qubits (need >= 8)"
            );
            pool[rng.gen_range(0..pool.len())].clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn triangle_count_matches_binomial() {
        assert_eq!(cycles(8, 3).len(), 56); // C(8,3)
        assert_eq!(cycles(8, 4).len(), 210); // C(8,4) * 3
        assert_eq!(cycles(4, 5).len(), 0);
    }

    #[test]
    fn every_enumerated_config_is_even_degree() {
        for cfg in even_degree_configs(8, 6) {
            let s = AdversarialScenario::new(ConfigClass::EvenDegree, cfg, Vec::new());
            assert!(s.is_even_degree(), "{:?}", s.faults);
            assert!(s.kind.is_recalibration_target());
        }
    }

    #[test]
    fn enumeration_has_no_duplicates() {
        let pool = even_degree_configs(8, 5);
        let distinct: BTreeSet<Vec<Coupling>> = pool.iter().cloned().collect();
        assert_eq!(distinct.len(), pool.len());
    }

    #[test]
    fn sampled_even_degree_is_even_degree_and_seed_stable() {
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..50 {
            let s = AdversarialScenario::new(
                ConfigClass::EvenDegree,
                sample_even_degree(8, &mut rng),
                Vec::new(),
            );
            assert!(s.is_even_degree(), "{:?}", s.faults);
        }
        let a: Vec<_> =
            (0..10).map(|_| sample_even_degree(16, &mut SmallRng::seed_from_u64(7))).collect();
        let b: Vec<_> =
            (0..10).map(|_| sample_even_degree(16, &mut SmallRng::seed_from_u64(7))).collect();
        assert_eq!(a, b, "same seed must give the same draw");
    }

    #[test]
    fn tied_families_share_failing_sets_and_are_disjoint() {
        let n_bits = 3;
        for s in tied_cover_scenarios(8) {
            assert_eq!(s.faults.len(), 2);
            assert!(!s.tied_alternatives.is_empty(), "a tie needs an alternative");
            let truth_syn: BTreeSet<(u32, bool)> =
                s.faults.iter().flat_map(|&c| syndrome_bits(c, n_bits)).collect();
            for alt in &s.tied_alternatives {
                let alt_syn: BTreeSet<(u32, bool)> =
                    alt.iter().flat_map(|&c| syndrome_bits(c, n_bits)).collect();
                assert_eq!(alt_syn, truth_syn, "alternative must fit the same failing set");
            }
            // The fully disjoint alternative exists: no qubit shared
            // with the planted pair.
            let planted: BTreeSet<usize> = s.faults.iter().flat_map(|c| [c.lo(), c.hi()]).collect();
            assert!(
                s.tied_alternatives.iter().any(|alt| alt
                    .iter()
                    .all(|c| !planted.contains(&c.lo()) && !planted.contains(&c.hi()))),
                "{:?} has no disjoint partner cover",
                s.faults
            );
        }
    }

    #[test]
    fn eight_qubit_tied_pool_is_the_paper_example_size() {
        // 3 bits x (2 members x 2 members) = 12 scenarios.
        assert_eq!(tied_cover_scenarios(8).len(), 12);
        // 16 qubits: every one-bit family has 4 complement-pair members.
        assert_eq!(tied_cover_scenarios(16).len(), 4 * 16);
    }

    #[test]
    fn uniform_draws_match_even_degree_budgets() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..30 {
            let s = sample_scenario(ConfigClass::Uniform, 8, &mut rng);
            assert!(matches!(s.faults.len(), 3..=6), "{:?}", s.faults);
            let distinct: BTreeSet<Coupling> = s.faults.iter().copied().collect();
            assert_eq!(distinct.len(), s.faults.len());
        }
    }

    #[test]
    fn scenarios_carry_the_recalibration_target_kind() {
        let mut rng = SmallRng::seed_from_u64(3);
        for class in ConfigClass::ALL {
            let s = sample_scenario(class, 8, &mut rng);
            assert_eq!(s.kind, FaultKind::BeamIntensityMiscalibration);
            assert!(s.kind.is_recalibration_target());
        }
    }
}
