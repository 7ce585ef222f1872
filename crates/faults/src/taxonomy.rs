//! The fault taxonomy of the paper's Table I.
//!
//! Quantum faults are classified along three axes: whether the faulty
//! evolution is still *unitary*, whether it is *deterministic*, and the
//! *time scale* on which it varies. The paper's central observation is that
//! today's ion traps are dominated by deterministic unitary faults
//! (miscalibrations), which accumulate coherently under gate repetition and
//! are therefore detectable by short test circuits and removable by
//! recalibration.

use std::fmt;

/// Determinism axis of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Determinism {
    /// Reproducible run-to-run (at the observation time scale).
    Deterministic,
    /// Random parameter fluctuations or discrete random events.
    Stochastic,
}

/// Unitarity axis of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Unitarity {
    /// The faulty evolution is still a unitary map (wrong rotation angle,
    /// wrong axis, spurious coherent coupling).
    Unitary,
    /// The physical model itself is violated (leakage, loss, collapse).
    NonUnitary,
}

/// Time-scale axis (the paper's "third axis"): slow noise can look
/// deterministic within one run but drifts across the duty cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TimeScale {
    /// Static over many duty cycles (alignment, gain errors).
    Static,
    /// Drifts over minutes–hours (stray-field charging, thermal drift).
    Slow,
    /// Varies within a single circuit execution (control noise, heating).
    Fast,
}

/// A concrete fault mechanism named in the paper, placed in the taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Inexact beam-intensity calibration (wrong gain on the illuminating
    /// beams) — the dominant source of MS-gate under-/over-rotation.
    BeamIntensityMiscalibration,
    /// Light-shift miscalibration producing phase errors on gates.
    LightShiftMiscalibration,
    /// Optomechanical beam misalignment degrading effective Rabi rates.
    BeamMisalignment,
    /// Unintended excitation of the vibrational bus leaving residual
    /// spin–motion entanglement (odd-population leakage).
    VibrationalBusExcitation,
    /// Bit flips induced by sideband or anharmonicity terms.
    SidebandAnharmonicity,
    /// Motional heating randomising gate parameters shot-to-shot.
    HeatingFluctuation,
    /// Amplitude/frequency noise on control signals (includes 1/f phase
    /// noise).
    ControlSignalNoise,
    /// Double-ionization event destroying a qubit.
    DoubleIonization,
    /// Ions exchanging positions in the chain (loss of order).
    OrderLoss,
    /// Loss of the entire chain.
    ChainLoss,
    /// State-preparation-and-measurement error (stable, sub-1%).
    Spam,
}

impl FaultKind {
    /// All catalogued fault kinds.
    pub const ALL: [FaultKind; 11] = [
        FaultKind::BeamIntensityMiscalibration,
        FaultKind::LightShiftMiscalibration,
        FaultKind::BeamMisalignment,
        FaultKind::VibrationalBusExcitation,
        FaultKind::SidebandAnharmonicity,
        FaultKind::HeatingFluctuation,
        FaultKind::ControlSignalNoise,
        FaultKind::DoubleIonization,
        FaultKind::OrderLoss,
        FaultKind::ChainLoss,
        FaultKind::Spam,
    ];

    /// Placement on the determinism axis.
    pub fn determinism(&self) -> Determinism {
        match self {
            FaultKind::BeamIntensityMiscalibration
            | FaultKind::LightShiftMiscalibration
            | FaultKind::BeamMisalignment
            | FaultKind::VibrationalBusExcitation
            | FaultKind::SidebandAnharmonicity
            | FaultKind::Spam => Determinism::Deterministic,
            FaultKind::HeatingFluctuation
            | FaultKind::ControlSignalNoise
            | FaultKind::DoubleIonization
            | FaultKind::OrderLoss
            | FaultKind::ChainLoss => Determinism::Stochastic,
        }
    }

    /// Placement on the unitarity axis.
    pub fn unitarity(&self) -> Unitarity {
        match self {
            FaultKind::BeamIntensityMiscalibration
            | FaultKind::LightShiftMiscalibration
            | FaultKind::BeamMisalignment
            | FaultKind::HeatingFluctuation
            | FaultKind::ControlSignalNoise => Unitarity::Unitary,
            FaultKind::VibrationalBusExcitation
            | FaultKind::SidebandAnharmonicity
            | FaultKind::DoubleIonization
            | FaultKind::OrderLoss
            | FaultKind::ChainLoss
            | FaultKind::Spam => Unitarity::NonUnitary,
        }
    }

    /// Typical time scale.
    pub fn time_scale(&self) -> TimeScale {
        match self {
            FaultKind::BeamIntensityMiscalibration
            | FaultKind::BeamMisalignment
            | FaultKind::Spam => TimeScale::Static,
            FaultKind::LightShiftMiscalibration
            | FaultKind::VibrationalBusExcitation
            | FaultKind::SidebandAnharmonicity => TimeScale::Slow,
            FaultKind::HeatingFluctuation
            | FaultKind::ControlSignalNoise
            | FaultKind::DoubleIonization
            | FaultKind::OrderLoss
            | FaultKind::ChainLoss => TimeScale::Fast,
        }
    }

    /// `true` for the fault class the paper's protocols target: faults
    /// that are detectable by single-output tests and fixable by
    /// recalibrating a qubit coupling.
    pub fn is_recalibration_target(&self) -> bool {
        self.determinism() == Determinism::Deterministic && self.unitarity() == Unitarity::Unitary
    }

    /// Human-readable description (the cell text of Table I).
    pub fn description(&self) -> &'static str {
        match self {
            FaultKind::BeamIntensityMiscalibration => {
                "inexact calibration of beam intensity (wrong gain applied to illuminating beams)"
            }
            FaultKind::LightShiftMiscalibration => "light-shift miscalibration shifting gate phases",
            FaultKind::BeamMisalignment => "beam misalignment degrading effective rotation angles",
            FaultKind::VibrationalBusExcitation => {
                "unintended bit flips from vibrational-bus excitation (residual spin-motion coupling)"
            }
            FaultKind::SidebandAnharmonicity => "bit flips induced by sidebands or anharmonicity",
            FaultKind::HeatingFluctuation => "random parameter fluctuations due to motional heating",
            FaultKind::ControlSignalNoise => "control-signal noise in amplitude and frequency",
            FaultKind::DoubleIonization => "double-ionization event",
            FaultKind::OrderLoss => "loss of ion order in the chain",
            FaultKind::ChainLoss => "loss of the ion chain",
            FaultKind::Spam => "state preparation and measurement errors (stable, <1%)",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.description())
    }
}

/// One quadrant of Table I.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaxonomyCell {
    /// Determinism coordinate.
    pub determinism: Determinism,
    /// Unitarity coordinate.
    pub unitarity: Unitarity,
    /// The fault kinds in this quadrant.
    pub kinds: Vec<FaultKind>,
}

/// Reconstructs Table I: the four (determinism × unitarity) quadrants with
/// their member fault kinds.
pub fn table_one() -> Vec<TaxonomyCell> {
    let mut cells = Vec::new();
    for det in [Determinism::Deterministic, Determinism::Stochastic] {
        for uni in [Unitarity::Unitary, Unitarity::NonUnitary] {
            let kinds = FaultKind::ALL
                .iter()
                .copied()
                .filter(|k| k.determinism() == det && k.unitarity() == uni)
                .collect();
            cells.push(TaxonomyCell { determinism: det, unitarity: uni, kinds });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_four_nonempty_quadrants() {
        let t = table_one();
        assert_eq!(t.len(), 4);
        for cell in &t {
            assert!(
                !cell.kinds.is_empty(),
                "quadrant {:?}/{:?} is empty",
                cell.determinism,
                cell.unitarity
            );
        }
    }

    #[test]
    fn every_kind_appears_exactly_once() {
        let t = table_one();
        let total: usize = t.iter().map(|c| c.kinds.len()).sum();
        assert_eq!(total, FaultKind::ALL.len());
    }

    #[test]
    fn recalibration_targets_are_deterministic_unitary() {
        // The protocols target the deterministic-unitary quadrant — the
        // paper's "dominant faults".
        assert!(FaultKind::BeamIntensityMiscalibration.is_recalibration_target());
        assert!(FaultKind::LightShiftMiscalibration.is_recalibration_target());
        assert!(!FaultKind::ChainLoss.is_recalibration_target());
        assert!(!FaultKind::HeatingFluctuation.is_recalibration_target());
    }

    #[test]
    fn paper_table_examples_placed_correctly() {
        // Table I, top-left: beam-intensity miscalibration is
        // deterministic & unitary, usually static in time.
        let k = FaultKind::BeamIntensityMiscalibration;
        assert_eq!(k.determinism(), Determinism::Deterministic);
        assert_eq!(k.unitarity(), Unitarity::Unitary);
        assert_eq!(k.time_scale(), TimeScale::Static);
        // Bottom-right: chain loss is stochastic & non-unitary.
        let k = FaultKind::ChainLoss;
        assert_eq!(k.determinism(), Determinism::Stochastic);
        assert_eq!(k.unitarity(), Unitarity::NonUnitary);
    }

    #[test]
    fn descriptions_are_nonempty_and_lowercase() {
        for k in FaultKind::ALL {
            let d = k.description();
            assert!(!d.is_empty());
            assert!(d.chars().next().unwrap().is_lowercase());
        }
    }
}
