//! State-preparation and measurement (SPAM) errors.
//!
//! The paper notes SPAM errors on ion traps are below 1% and *stable*, so
//! they "can be addressed in post-processing" (§III). We model asymmetric
//! per-qubit readout flips and provide the standard post-processing
//! inversion for marginal probabilities.

use rand::Rng;

/// Independent per-qubit readout flip model: a prepared/true `0` reads `1`
/// with probability `p01`, a true `1` reads `0` with probability `p10`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpamModel {
    /// P(read 1 | true 0).
    pub p01: f64,
    /// P(read 0 | true 1).
    pub p10: f64,
}

impl SpamModel {
    /// A perfect-readout model.
    pub const IDEAL: SpamModel = SpamModel { p01: 0.0, p10: 0.0 };

    /// Creates a SPAM model.
    ///
    /// # Panics
    ///
    /// Panics if either rate is outside `[0, 1]`.
    pub fn new(p01: f64, p10: f64) -> Self {
        assert!((0.0..=1.0).contains(&p01) && (0.0..=1.0).contains(&p10), "bad flip rates");
        SpamModel { p01, p10 }
    }

    /// Corrupts an `n_qubits`-bit measurement outcome with independent
    /// readout flips.
    pub fn corrupt<R: Rng + ?Sized>(&self, outcome: usize, n_qubits: usize, rng: &mut R) -> usize {
        if self.p01 == 0.0 && self.p10 == 0.0 {
            return outcome;
        }
        let mut out = outcome;
        for q in 0..n_qubits {
            let bit = (outcome >> q) & 1;
            let flip_p = if bit == 0 { self.p01 } else { self.p10 };
            if flip_p > 0.0 && rng.gen::<f64>() < flip_p {
                out ^= 1 << q;
            }
        }
        out
    }

    /// The probability that the true string `target` is read out
    /// *unchanged* (the dominant attenuation factor for single-output
    /// tests).
    pub fn retention(&self, target: u128, n_qubits: usize) -> f64 {
        let mask: u128 = if n_qubits >= 128 { u128::MAX } else { (1u128 << n_qubits) - 1 };
        let ones = (target & mask).count_ones() as i32;
        let zeros = n_qubits as i32 - ones;
        (1.0 - self.p01).powi(zeros) * (1.0 - self.p10).powi(ones)
    }

    /// Post-processing correction of a single-qubit "one" probability:
    /// inverts `p̂ = p01 + p·(1 − p01 − p10)`, clamped to `[0, 1]`.
    ///
    /// This is the stable-SPAM correction the paper alludes to.
    pub fn correct_marginal(&self, measured_p_one: f64) -> f64 {
        let denom = 1.0 - self.p01 - self.p10;
        if denom.abs() < 1e-12 {
            return measured_p_one;
        }
        ((measured_p_one - self.p01) / denom).clamp(0.0, 1.0)
    }
}

impl Default for SpamModel {
    fn default() -> Self {
        SpamModel::IDEAL
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_model_is_identity() {
        let mut rng = SmallRng::seed_from_u64(1);
        for x in 0..16 {
            assert_eq!(SpamModel::IDEAL.corrupt(x, 4, &mut rng), x);
        }
        assert_eq!(SpamModel::IDEAL.retention(0b1010, 4), 1.0);
    }

    #[test]
    fn corrupt_statistics() {
        let spam = SpamModel::new(0.02, 0.05);
        let mut rng = SmallRng::seed_from_u64(2);
        let trials = 100_000;
        let mut flips0 = 0usize;
        let mut flips1 = 0usize;
        for _ in 0..trials {
            // true string 0b01: qubit0 = 1, qubit1 = 0
            let read = spam.corrupt(0b01, 2, &mut rng);
            if read & 0b01 == 0 {
                flips1 += 1;
            }
            if read & 0b10 != 0 {
                flips0 += 1;
            }
        }
        assert!((flips1 as f64 / trials as f64 - 0.05).abs() < 0.005);
        assert!((flips0 as f64 / trials as f64 - 0.02).abs() < 0.005);
    }

    #[test]
    fn retention_formula() {
        let spam = SpamModel::new(0.01, 0.03);
        let r = spam.retention(0b011, 3);
        assert!((r - 0.99 * 0.97f64.powi(2)).abs() < 1e-12);
    }

    #[test]
    fn marginal_correction_round_trip() {
        let spam = SpamModel::new(0.02, 0.04);
        let p_true = 0.37;
        let p_meas = spam.p01 + p_true * (1.0 - spam.p01 - spam.p10);
        assert!((spam.correct_marginal(p_meas) - p_true).abs() < 1e-12);
    }
}
