//! Machine timing model (paper §VIII, Fig. 10 assumptions).
//!
//! The cost of a test is dominated by qubit initialisation and readout —
//! not by gate count — while the cost of an *adaptive* step is dominated by
//! classical decision and pulse compilation/upload. Fig. 10 assumes the
//! two-qubit gate time grows as `N²` from 0.2 ms at 8 qubits (gate *speed*
//! scales as `1/N²`). All knobs are explicit so the Fig. 10 sweep can vary
//! them.

/// Wall-clock model for a trapped-ion machine. All times in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingModel {
    /// Qubit (re-)initialisation per circuit run: cooling + optical
    /// pumping.
    pub prep: f64,
    /// State readout per circuit run.
    pub readout: f64,
    /// Two-qubit gate time at the reference register size.
    pub two_qubit_gate_ref: f64,
    /// Reference register size for the gate-time scaling (8 in the paper).
    pub gate_ref_qubits: usize,
    /// Single-qubit gate time (independent of N).
    pub single_qubit_gate: f64,
    /// Classical decision latency per adaptive round (syndrome decode +
    /// next-test selection on the control computer).
    pub decision: f64,
    /// Pulse compilation time per coupling appearing in the next batch.
    pub compile_per_coupling: f64,
    /// Control-system upload latency per adaptive round.
    pub upload: f64,
}

impl TimingModel {
    /// Defaults calibrated so an 11-qubit full point-check characterisation
    /// takes on the order of a minute and the diagnosis protocols take
    /// ~10 s — the operating points quoted in the paper's §IX.
    pub fn paper_defaults() -> Self {
        TimingModel {
            prep: 0.5e-3,
            readout: 0.4e-3,
            two_qubit_gate_ref: 0.2e-3,
            gate_ref_qubits: 8,
            single_qubit_gate: 10e-6,
            decision: 50e-3,
            compile_per_coupling: 5e-3,
            upload: 100e-3,
        }
    }

    /// Two-qubit gate time on an `n`-qubit register:
    /// `t(N) = t_ref · (N/N_ref)²`.
    pub fn two_qubit_gate(&self, n_qubits: usize) -> f64 {
        let ratio = n_qubits as f64 / self.gate_ref_qubits as f64;
        self.two_qubit_gate_ref * ratio * ratio
    }

    /// Wall-clock of one circuit execution (a single shot).
    pub fn circuit_run(
        &self,
        n_qubits: usize,
        two_qubit_gates: usize,
        one_qubit_gates: usize,
    ) -> f64 {
        self.prep
            + self.readout
            + two_qubit_gates as f64 * self.two_qubit_gate(n_qubits)
            + one_qubit_gates as f64 * self.single_qubit_gate
    }

    /// Wall-clock of `shots` repetitions of the same circuit (no
    /// re-compilation between shots).
    pub fn shots(
        &self,
        n_qubits: usize,
        two_qubit_gates: usize,
        one_qubit_gates: usize,
        shots: usize,
    ) -> f64 {
        shots as f64 * self.circuit_run(n_qubits, two_qubit_gates, one_qubit_gates)
    }

    /// Wall-clock of one adaptation round compiling pulses for
    /// `couplings_compiled` couplings.
    pub fn adaptation(&self, couplings_compiled: usize) -> f64 {
        self.decision + self.upload + couplings_compiled as f64 * self.compile_per_coupling
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_time_scales_quadratically() {
        let t = TimingModel::paper_defaults();
        assert!((t.two_qubit_gate(8) - 0.2e-3).abs() < 1e-12);
        assert!((t.two_qubit_gate(16) - 0.8e-3).abs() < 1e-12);
        assert!((t.two_qubit_gate(32) - 3.2e-3).abs() < 1e-12);
    }

    #[test]
    fn run_time_dominated_by_prep_and_readout_for_shallow_tests() {
        // The paper's §IV premise: a few-gate test costs mostly init+readout.
        let t = TimingModel::paper_defaults();
        let total = t.circuit_run(8, 4, 2);
        let overhead = t.prep + t.readout;
        assert!(overhead / total > 0.5, "overhead {overhead} of {total}");
    }

    #[test]
    fn point_check_scale_matches_paper_quote() {
        // Full characterisation of all 55 couplings of an 11-qubit machine
        // with a few hundred shots each should take on the order of a
        // minute (paper: "over a minute").
        let t = TimingModel::paper_defaults();
        let per_coupling = t.shots(11, 4, 0, 300) + t.adaptation(1);
        let total = 55.0 * per_coupling;
        assert!(total > 20.0 && total < 300.0, "total {total} s");
    }

    #[test]
    fn adaptation_grows_with_compiled_couplings() {
        let t = TimingModel::paper_defaults();
        assert!(t.adaptation(496) > t.adaptation(28));
        assert!((t.adaptation(0) - 0.15).abs() < 1e-12);
    }
}
