//! The gate set.
//!
//! Includes the discrete Clifford+T gates, the three Pauli-axis rotations,
//! and — centrally for this paper — the ion-trap native gates: the general
//! single-qubit rotation `R(θ, φ)` about an equatorial axis and the
//! Mølmer–Sørensen two-qubit gate in both its ideal `XX(θ)` form and the
//! full phase-parameterised `M(θ, φ₁, φ₂)` form of the paper's Fig. 4, which
//! doubles as the *fault model* for two-qubit unitary errors.

use itqc_math::{Complex64, Mat2, Mat4};
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

/// A quantum gate template, instantiated on qubits by an
/// [`Op`](crate::circuit::Op).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// Pauli X (NOT).
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate `P = diag(1, i)` (the paper's `P`).
    S,
    /// Inverse phase gate `diag(1, -i)`.
    Sdg,
    /// T gate `diag(1, e^{iπ/4})`.
    T,
    /// Inverse T gate.
    Tdg,
    /// Rotation about X: `exp(-iθX/2)`.
    Rx(f64),
    /// Rotation about Y: `exp(-iθY/2)`.
    Ry(f64),
    /// Rotation about Z: `exp(-iθZ/2)`.
    Rz(f64),
    /// General equatorial rotation `R(θ, φ) = exp(-iθ(cosφ·X + sinφ·Y)/2)`
    /// — the ion-trap native single-qubit gate and the paper's single-qubit
    /// fault model (Fig. 4).
    R {
        /// Rotation angle θ.
        theta: f64,
        /// Axis azimuth φ in the XY plane.
        phi: f64,
    },
    /// `diag(1, e^{iλ})` — phase shift of |1⟩.
    Phase(f64),
    /// Controlled-NOT; the first operand qubit is the control.
    Cnot,
    /// Controlled-Z (symmetric).
    Cz,
    /// SWAP.
    Swap,
    /// Ideal Mølmer–Sørensen gate `XX(θ) = exp(-iθ X⊗X/2)`.
    ///
    /// A fully entangling MS gate is `XX(π/2)`.
    Xx(f64),
    /// Phase-parameterised Mølmer–Sørensen gate `M(θ, φ₁, φ₂)` (paper
    /// Fig. 4): the physical gate including per-ion beam phases; reduces to
    /// [`Gate::Xx`] at `φ₁ = φ₂ = 0`. With small parameter deviations this
    /// is the paper's two-qubit unitary fault model.
    Ms {
        /// Entangling angle θ.
        theta: f64,
        /// Beam phase at the first ion.
        phi1: f64,
        /// Beam phase at the second ion.
        phi2: f64,
    },
    /// Controlled phase `diag(1, 1, 1, e^{iλ})` (symmetric).
    CPhase(f64),
}

impl Gate {
    /// Number of qubits the gate acts on (1 or 2).
    pub fn arity(&self) -> usize {
        match self {
            Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::H
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Rx(_)
            | Gate::Ry(_)
            | Gate::Rz(_)
            | Gate::R { .. }
            | Gate::Phase(_) => 1,
            Gate::Cnot
            | Gate::Cz
            | Gate::Swap
            | Gate::Xx(_)
            | Gate::Ms { .. }
            | Gate::CPhase(_) => 2,
        }
    }

    /// Short mnemonic used by `Display` impls and gate counting.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::H => "h",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::R { .. } => "r",
            Gate::Phase(_) => "p",
            Gate::Cnot => "cnot",
            Gate::Cz => "cz",
            Gate::Swap => "swap",
            Gate::Xx(_) => "xx",
            Gate::Ms { .. } => "ms",
            Gate::CPhase(_) => "cp",
        }
    }

    /// `true` for gates in the ion-trap native set: `R(θ,φ)`, virtual
    /// `Rz`, and the Mølmer–Sørensen family.
    pub fn is_native(&self) -> bool {
        matches!(self, Gate::R { .. } | Gate::Rz(_) | Gate::Xx(_) | Gate::Ms { .. })
    }

    /// `true` for two-qubit entangling gates (arity 2, excluding SWAP which
    /// is non-entangling but still exercises a coupling).
    pub fn is_two_qubit(&self) -> bool {
        self.arity() == 2
    }

    /// The inverse gate.
    pub fn dagger(&self) -> Gate {
        match *self {
            Gate::X | Gate::Y | Gate::Z | Gate::H | Gate::Cnot | Gate::Cz | Gate::Swap => *self,
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::Rx(t) => Gate::Rx(-t),
            Gate::Ry(t) => Gate::Ry(-t),
            Gate::Rz(t) => Gate::Rz(-t),
            Gate::R { theta, phi } => Gate::R { theta: -theta, phi },
            Gate::Phase(l) => Gate::Phase(-l),
            Gate::Xx(t) => Gate::Xx(-t),
            Gate::Ms { theta, phi1, phi2 } => Gate::Ms { theta: -theta, phi1, phi2 },
            Gate::CPhase(l) => Gate::CPhase(-l),
        }
    }

    /// The 2×2 matrix of a single-qubit gate, `None` for two-qubit gates.
    pub fn matrix1(&self) -> Option<Mat2> {
        let c = Complex64::new;
        let m = match *self {
            Gate::X => Mat2::new([[c(0., 0.), c(1., 0.)], [c(1., 0.), c(0., 0.)]]),
            Gate::Y => Mat2::new([[c(0., 0.), c(0., -1.)], [c(0., 1.), c(0., 0.)]]),
            Gate::Z => Mat2::new([[c(1., 0.), c(0., 0.)], [c(0., 0.), c(-1., 0.)]]),
            Gate::H => Mat2::new([[c(1., 0.), c(1., 0.)], [c(1., 0.), c(-1., 0.)]])
                .scale(std::f64::consts::FRAC_1_SQRT_2),
            Gate::S => Mat2::new([[c(1., 0.), c(0., 0.)], [c(0., 0.), c(0., 1.)]]),
            Gate::Sdg => Mat2::new([[c(1., 0.), c(0., 0.)], [c(0., 0.), c(0., -1.)]]),
            Gate::T => phase_mat(FRAC_PI_4),
            Gate::Tdg => phase_mat(-FRAC_PI_4),
            Gate::Phase(l) => phase_mat(l),
            Gate::Rx(t) => r_mat(t, 0.0),
            Gate::Ry(t) => r_mat(t, FRAC_PI_2),
            Gate::R { theta, phi } => r_mat(theta, phi),
            Gate::Rz(t) => {
                let h = t / 2.0;
                Mat2::new([[Complex64::cis(-h), c(0., 0.)], [c(0., 0.), Complex64::cis(h)]])
            }
            _ => return None,
        };
        Some(m)
    }

    /// The 4×4 matrix of a two-qubit gate, `None` for single-qubit gates.
    ///
    /// Index convention: the row/column index is `2·b₁ + b₀` where `b₁` is
    /// the basis bit of the *first* operand qubit.
    pub fn matrix2(&self) -> Option<Mat4> {
        let c = Complex64::new;
        let m = match *self {
            Gate::Cnot => Mat4::new([
                [c(1., 0.), c(0., 0.), c(0., 0.), c(0., 0.)],
                [c(0., 0.), c(1., 0.), c(0., 0.), c(0., 0.)],
                [c(0., 0.), c(0., 0.), c(0., 0.), c(1., 0.)],
                [c(0., 0.), c(0., 0.), c(1., 0.), c(0., 0.)],
            ]),
            Gate::Cz => {
                let mut m = Mat4::identity();
                *m.at_mut(3, 3) = c(-1., 0.);
                m
            }
            Gate::Swap => Mat4::new([
                [c(1., 0.), c(0., 0.), c(0., 0.), c(0., 0.)],
                [c(0., 0.), c(0., 0.), c(1., 0.), c(0., 0.)],
                [c(0., 0.), c(1., 0.), c(0., 0.), c(0., 0.)],
                [c(0., 0.), c(0., 0.), c(0., 0.), c(1., 0.)],
            ]),
            Gate::CPhase(l) => {
                let mut m = Mat4::identity();
                *m.at_mut(3, 3) = Complex64::cis(l);
                m
            }
            Gate::Xx(t) => ms_mat(t, 0.0, 0.0),
            Gate::Ms { theta, phi1, phi2 } => ms_mat(theta, phi1, phi2),
            _ => return None,
        };
        Some(m)
    }
}

/// `R(θ, φ)` matrix from the paper's Fig. 4:
/// `[[cos θ/2, −i e^{−iφ} sin θ/2], [−i e^{iφ} sin θ/2, cos θ/2]]`.
fn r_mat(theta: f64, phi: f64) -> Mat2 {
    let (s, c) = (theta / 2.0).sin_cos();
    let mi = Complex64::new(0.0, -1.0);
    Mat2::new([
        [Complex64::real(c), mi * Complex64::cis(-phi) * s],
        [mi * Complex64::cis(phi) * s, Complex64::real(c)],
    ])
}

fn phase_mat(l: f64) -> Mat2 {
    Mat2::new([[Complex64::ONE, Complex64::ZERO], [Complex64::ZERO, Complex64::cis(l)]])
}

/// `M(θ, φ₁, φ₂)` matrix from the paper's Fig. 4.
fn ms_mat(theta: f64, phi1: f64, phi2: f64) -> Mat4 {
    let (s, c) = (theta / 2.0).sin_cos();
    let z = Complex64::ZERO;
    let cc = Complex64::real(c);
    let mi = Complex64::new(0.0, -1.0);
    let sum = phi1 + phi2;
    let dif = phi1 - phi2;
    let a = mi * Complex64::cis(-sum) * s; // row 00, col 11
    let b = mi * Complex64::cis(-dif) * s; // row 01, col 10
    let b2 = mi * Complex64::cis(dif) * s; // row 10, col 01
    let a2 = mi * Complex64::cis(sum) * s; // row 11, col 00
    Mat4::new([[cc, z, z, a], [z, cc, b, z], [z, b2, cc, z], [a2, z, z, cc]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use itqc_math::CMatrix;
    use std::f64::consts::PI;

    const ALL_1Q: [Gate; 14] = [
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::H,
        Gate::S,
        Gate::Sdg,
        Gate::T,
        Gate::Tdg,
        Gate::Rx(0.3),
        Gate::Ry(-1.2),
        Gate::Rz(2.1),
        Gate::R { theta: 0.7, phi: 1.9 },
        Gate::Phase(0.4),
        Gate::R { theta: -0.7, phi: -0.9 },
    ];

    const ALL_2Q: [Gate; 6] = [
        Gate::Cnot,
        Gate::Cz,
        Gate::Swap,
        Gate::Xx(0.5),
        Gate::Ms { theta: 0.5, phi1: 0.3, phi2: -0.8 },
        Gate::CPhase(1.1),
    ];

    #[test]
    fn all_gates_are_unitary() {
        for g in ALL_1Q {
            assert!(g.matrix1().unwrap().is_unitary(1e-12), "{g:?}");
            assert!(g.matrix2().is_none());
        }
        for g in ALL_2Q {
            assert!(g.matrix2().unwrap().is_unitary(1e-12), "{g:?}");
            assert!(g.matrix1().is_none());
        }
    }

    #[test]
    fn daggers_invert() {
        for g in ALL_1Q {
            let m = g.matrix1().unwrap();
            let d = g.dagger().matrix1().unwrap();
            assert!(m.mul(&d).approx_eq_up_to_phase(&Mat2::identity(), 1e-12), "{g:?}");
        }
        for g in ALL_2Q {
            let m = g.matrix2().unwrap();
            let d = g.dagger().matrix2().unwrap();
            assert!(m.mul(&d).approx_eq_up_to_phase(&Mat4::identity(), 1e-12), "{g:?}");
        }
    }

    #[test]
    fn rotations_are_special_cases_of_r() {
        let rx = Gate::Rx(0.9).matrix1().unwrap();
        let r0 = Gate::R { theta: 0.9, phi: 0.0 }.matrix1().unwrap();
        assert!(rx.approx_eq(&r0, 1e-12));
        let ry = Gate::Ry(0.9).matrix1().unwrap();
        let r90 = Gate::R { theta: 0.9, phi: FRAC_PI_2 }.matrix1().unwrap();
        assert!(ry.approx_eq(&r90, 1e-12));
    }

    #[test]
    fn pauli_gates_match_rotations_up_to_phase() {
        // X = e^{iπ/2} Rx(π), etc.
        for (pauli, rot) in
            [(Gate::X, Gate::Rx(PI)), (Gate::Y, Gate::Ry(PI)), (Gate::Z, Gate::Rz(PI))]
        {
            let p = pauli.matrix1().unwrap();
            let r = rot.matrix1().unwrap();
            assert!(p.approx_eq_up_to_phase(&r, 1e-12), "{pauli:?}");
        }
    }

    #[test]
    fn xx_is_ms_with_zero_phases() {
        let a = Gate::Xx(0.77).matrix2().unwrap();
        let b = Gate::Ms { theta: 0.77, phi1: 0.0, phi2: 0.0 }.matrix2().unwrap();
        assert!(a.approx_eq(&b, 1e-15));
    }

    #[test]
    fn fully_entangling_ms_creates_bell_state() {
        // XX(π/2)|00⟩ = (|00⟩ - i|11⟩)/√2 — the state in §III of the paper.
        let m = Gate::Xx(FRAC_PI_2).matrix2().unwrap();
        let out = m.mul_vec([Complex64::ONE, Complex64::ZERO, Complex64::ZERO, Complex64::ZERO]);
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        assert!(out[0].approx_eq(Complex64::real(inv_sqrt2), 1e-12));
        assert!(out[1].approx_eq(Complex64::ZERO, 1e-12));
        assert!(out[2].approx_eq(Complex64::ZERO, 1e-12));
        assert!(out[3].approx_eq(Complex64::new(0.0, -inv_sqrt2), 1e-12));
    }

    #[test]
    fn four_ms_gates_return_to_identity() {
        // XX(π/2)⁴ = XX(2π) = -I: identity up to global phase (the paper's
        // four-MS-gate single-output test rationale).
        let m = Gate::Xx(FRAC_PI_2).matrix2().unwrap();
        let m4 = m.mul(&m).mul(&m).mul(&m);
        assert!(m4.approx_eq_up_to_phase(&Mat4::identity(), 1e-12));
    }

    #[test]
    fn two_ms_gates_give_xx_flip() {
        // XX(π/2)² = XX(π) = -i X⊗X: both qubits flip (the two-MS test's
        // all-ones expected output).
        let m = Gate::Xx(FRAC_PI_2).matrix2().unwrap();
        let m2 = m.mul(&m);
        let xx: CMatrix = CMatrix::from(&Gate::X.matrix1().unwrap())
            .kron(&CMatrix::from(&Gate::X.matrix1().unwrap()));
        let m2d: CMatrix = (&m2).into();
        assert!(m2d.approx_eq_up_to_phase(&xx, 1e-12));
    }

    #[test]
    fn cnot_from_paper_ms_identity() {
        // CNOT = (Ry(π/2)⊗I)(Rx(−π/2)⊗Rx(π/2)) XX(π/2) (Ry(−π/2)⊗I)  [§II-B]
        let i2 = Mat2::identity();
        let lhs = Mat4::kron(&Gate::Ry(FRAC_PI_2).matrix1().unwrap(), &i2)
            .mul(&Mat4::kron(
                &Gate::Rx(-FRAC_PI_2).matrix1().unwrap(),
                &Gate::Rx(FRAC_PI_2).matrix1().unwrap(),
            ))
            .mul(&Gate::Xx(FRAC_PI_2).matrix2().unwrap())
            .mul(&Mat4::kron(&Gate::Ry(-FRAC_PI_2).matrix1().unwrap(), &i2));
        let cnot = Gate::Cnot.matrix2().unwrap();
        assert!(lhs.approx_eq_up_to_phase(&cnot, 1e-12));
    }

    #[test]
    fn ms_phase_conventions() {
        // M(θ, φ₁, φ₂) entries carry e^{∓i(φ₁±φ₂)} exactly as in Fig. 4.
        let th = 0.9;
        let (p1, p2) = (0.4, -0.7);
        let m = Gate::Ms { theta: th, phi1: p1, phi2: p2 }.matrix2().unwrap();
        let s = (th / 2.0).sin();
        let expect = Complex64::new(0.0, -1.0) * Complex64::cis(-(p1 + p2)) * s;
        assert!(m.at(0, 3).approx_eq(expect, 1e-12));
        let expect_mid = Complex64::new(0.0, -1.0) * Complex64::cis(p1 - p2) * s;
        assert!(m.at(2, 1).approx_eq(expect_mid, 1e-12));
    }

    #[test]
    fn arity_and_nativeness() {
        assert_eq!(Gate::H.arity(), 1);
        assert_eq!(Gate::Cnot.arity(), 2);
        assert!(Gate::Xx(0.1).is_native());
        assert!(Gate::R { theta: 0.1, phi: 0.0 }.is_native());
        assert!(Gate::Rz(0.1).is_native());
        assert!(!Gate::H.is_native());
        assert!(!Gate::Cnot.is_native());
    }

    #[test]
    fn echoed_ms_pair_cancels() {
        // Shifting one ion's beam phase by π reverses the XX rotation:
        // M(θ,0,0)·M(θ,π,0) = I — the echo mechanism behind Fig. 3.
        let a = Gate::Ms { theta: 0.8, phi1: 0.0, phi2: 0.0 }.matrix2().unwrap();
        let b = Gate::Ms { theta: 0.8, phi1: PI, phi2: 0.0 }.matrix2().unwrap();
        assert!(a.mul(&b).approx_eq_up_to_phase(&Mat4::identity(), 1e-12));
    }
}
