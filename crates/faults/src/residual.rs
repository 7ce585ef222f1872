//! Residual coupling to the motional bus.
//!
//! An imperfect MS pulse leaves a little spin–motion entanglement behind
//! (nonzero `α_p` in the paper's Eq. 1). At the circuit level the paper
//! models this as extra odd-parity population: its simulator includes
//! "residual coupling to the motional modes that generates 1% odd
//! population" (§VI). We realise it as small random single-qubit kicks on
//! both ions after each MS gate, with the kick angle calibrated so the
//! expected odd-population leakage matches the configured level.

use itqc_circuit::{Gate, Op};
use rand::Rng;

/// Residual-bus noise: after every MS gate, each participating ion gets a
/// random equatorial kick `R(θ_kick, φ~U[0,2π))`.
///
/// A kick of angle `θ` flips a qubit with probability `sin²(θ/2)`; two
/// independent kicks produce odd parity with probability
/// `≈ 2·sin²(θ/2)` to first order, so
/// `θ_kick = 2·asin(√(odd_population/2))`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResidualCoupling {
    odd_population: f64,
    kick_angle: f64,
}

impl ResidualCoupling {
    /// Creates a model producing the given expected odd-population leakage
    /// per MS gate (the paper's operating point is `0.01`).
    ///
    /// # Panics
    ///
    /// Panics if `odd_population` is outside `[0, 1]`.
    pub fn new(odd_population: f64) -> Self {
        assert!((0.0..=1.0).contains(&odd_population), "odd population must be a probability");
        let kick_angle = 2.0 * (odd_population / 2.0).sqrt().asin();
        ResidualCoupling { odd_population, kick_angle }
    }

    /// The configured odd-population level.
    pub fn odd_population(&self) -> f64 {
        self.odd_population
    }

    /// The per-ion kick angle.
    pub fn kick_angle(&self) -> f64 {
        self.kick_angle
    }

    /// Emits the random kicks following one MS op (empty for other gates).
    pub fn kicks_after<R: Rng + ?Sized>(&self, op: &Op, rng: &mut R, out: &mut Vec<Op>) {
        if self.odd_population == 0.0 {
            return;
        }
        if matches!(op.gate, Gate::Xx(_) | Gate::Ms { .. }) {
            for &q in op.qubits() {
                let phi = rng.gen_range(0.0..std::f64::consts::TAU);
                out.push(Op::one(Gate::R { theta: self.kick_angle, phi }, q));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itqc_circuit::Circuit;
    use itqc_sim::run;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn kick_angle_calibration() {
        let rc = ResidualCoupling::new(0.01);
        // sin²(θ/2)·2 = 0.01
        let odd = 2.0 * (rc.kick_angle() / 2.0).sin().powi(2);
        assert!((odd - 0.01).abs() < 1e-12);
    }

    #[test]
    fn zero_level_emits_nothing() {
        let rc = ResidualCoupling::new(0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        rc.kicks_after(&Op::two(Gate::Xx(FRAC_PI_2), 0, 1), &mut rng, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn only_ms_gates_get_kicks() {
        let rc = ResidualCoupling::new(0.01);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut out = Vec::new();
        rc.kicks_after(&Op::one(Gate::H, 0), &mut rng, &mut out);
        assert!(out.is_empty());
        rc.kicks_after(&Op::two(Gate::Xx(FRAC_PI_2), 0, 1), &mut rng, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn measured_odd_population_matches_configuration() {
        // One perfect 4×MS block plus kicks: odd population after the block
        // should average ≈ 4 gates × 1% (small-angle addition), within
        // Monte-Carlo tolerance.
        let level = 0.01;
        let rc = ResidualCoupling::new(level);
        let mut rng = SmallRng::seed_from_u64(3);
        let trials = 400;
        let mut odd_acc = 0.0;
        for _ in 0..trials {
            let mut c = Circuit::new(2);
            for _ in 0..4 {
                c.xx(0, 1, FRAC_PI_2);
                let mut kicks = Vec::new();
                rc.kicks_after(c.ops().last().copied().as_ref().unwrap(), &mut rng, &mut kicks);
                for k in kicks {
                    c.push(k);
                }
            }
            let s = run(&c);
            odd_acc += s.probability(0b01) + s.probability(0b10);
        }
        let odd = odd_acc / trials as f64;
        assert!(odd > 0.015 && odd < 0.07, "odd population {odd} should be near 4 × {level}");
    }
}
