//! Circuit intermediate representation and builder.
//!
//! A [`Circuit`] is an ordered list of gate applications ([`Op`]) on a fixed
//! qubit register. Construction follows the non-consuming builder
//! convention: mutating methods return `&mut Self` for chaining.

use crate::gates::Gate;
use itqc_math::CMatrix;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;

/// An unordered qubit pair identifying a coupling; stored with the smaller
/// index first so `{a, b}` and `{b, a}` compare equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Coupling {
    lo: usize,
    hi: usize,
}

impl Coupling {
    /// Creates the coupling `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn new(a: usize, b: usize) -> Self {
        assert_ne!(a, b, "a coupling joins two distinct qubits");
        Coupling { lo: a.min(b), hi: a.max(b) }
    }

    /// The smaller qubit index.
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// The larger qubit index.
    pub fn hi(&self) -> usize {
        self.hi
    }

    /// Both endpoints, ascending.
    pub fn endpoints(&self) -> (usize, usize) {
        (self.lo, self.hi)
    }

    /// `true` when `q` is one of the endpoints.
    pub fn touches(&self, q: usize) -> bool {
        self.lo == q || self.hi == q
    }
}

impl fmt::Display for Coupling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{},{}}}", self.lo, self.hi)
    }
}

/// One gate application on specific qubits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Op {
    /// The gate template.
    pub gate: Gate,
    qubits: [usize; 2],
}

impl Op {
    /// A single-qubit gate application.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not single-qubit.
    pub fn one(gate: Gate, q: usize) -> Self {
        assert_eq!(gate.arity(), 1, "gate {:?} is not single-qubit", gate);
        Op { gate, qubits: [q, usize::MAX] }
    }

    /// A two-qubit gate application. For directed gates (CNOT) `a` is the
    /// control.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not two-qubit or `a == b`.
    pub fn two(gate: Gate, a: usize, b: usize) -> Self {
        assert_eq!(gate.arity(), 2, "gate {:?} is not two-qubit", gate);
        assert_ne!(a, b, "two-qubit gate needs distinct qubits");
        Op { gate, qubits: [a, b] }
    }

    /// The qubits the op acts on (length 1 or 2; for directed gates the
    /// control comes first).
    pub fn qubits(&self) -> &[usize] {
        &self.qubits[..self.gate.arity()]
    }

    /// The coupling exercised by a two-qubit op, `None` for single-qubit.
    pub fn coupling(&self) -> Option<Coupling> {
        if self.gate.arity() == 2 {
            Some(Coupling::new(self.qubits[0], self.qubits[1]))
        } else {
            None
        }
    }

    /// The inverse op.
    pub fn dagger(&self) -> Op {
        Op { gate: self.gate.dagger(), qubits: self.qubits }
    }
}

/// A quantum circuit on `n` qubits.
///
/// # Example
///
/// ```
/// use itqc_circuit::Circuit;
///
/// let mut c = Circuit::new(3);
/// c.h(0).cnot(0, 1).cnot(1, 2);
/// assert_eq!(c.len(), 3);
/// assert_eq!(c.two_qubit_gate_count(), 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Circuit {
    n_qubits: usize,
    ops: Vec<Op>,
}

impl Circuit {
    /// Creates an empty circuit on `n_qubits`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits == 0`.
    pub fn new(n_qubits: usize) -> Self {
        assert!(n_qubits > 0, "circuit needs at least one qubit");
        Circuit { n_qubits, ops: Vec::new() }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the circuit has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations in program order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Appends an operation.
    ///
    /// # Panics
    ///
    /// Panics if the op addresses a qubit outside the register.
    pub fn push(&mut self, op: Op) -> &mut Self {
        for &q in op.qubits() {
            assert!(q < self.n_qubits, "qubit {q} out of range (n={})", self.n_qubits);
        }
        self.ops.push(op);
        self
    }

    /// Appends all operations of `other` (registers must match).
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn append(&mut self, other: &Circuit) -> &mut Self {
        assert_eq!(self.n_qubits, other.n_qubits, "register size mismatch");
        self.ops.extend_from_slice(&other.ops);
        self
    }

    // ---- builder conveniences -------------------------------------------

    /// Applies X to `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Op::one(Gate::X, q))
    }

    /// Applies Y to `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push(Op::one(Gate::Y, q))
    }

    /// Applies Z to `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Op::one(Gate::Z, q))
    }

    /// Applies Hadamard to `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Op::one(Gate::H, q))
    }

    /// Applies the phase gate S to `q`.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.push(Op::one(Gate::S, q))
    }

    /// Applies T to `q`.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.push(Op::one(Gate::T, q))
    }

    /// Applies T† to `q`.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.push(Op::one(Gate::Tdg, q))
    }

    /// Applies `Rx(theta)` to `q`.
    pub fn rx(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Op::one(Gate::Rx(theta), q))
    }

    /// Applies `Ry(theta)` to `q`.
    pub fn ry(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Op::one(Gate::Ry(theta), q))
    }

    /// Applies `Rz(theta)` to `q`.
    pub fn rz(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Op::one(Gate::Rz(theta), q))
    }

    /// Applies the native equatorial rotation `R(theta, phi)` to `q`.
    pub fn r(&mut self, q: usize, theta: f64, phi: f64) -> &mut Self {
        self.push(Op::one(Gate::R { theta, phi }, q))
    }

    /// Applies `Phase(lambda)` to `q`.
    pub fn phase(&mut self, q: usize, lambda: f64) -> &mut Self {
        self.push(Op::one(Gate::Phase(lambda), q))
    }

    /// Applies CNOT with control `c` and target `t`.
    pub fn cnot(&mut self, c: usize, t: usize) -> &mut Self {
        self.push(Op::two(Gate::Cnot, c, t))
    }

    /// Applies CZ to `a`, `b`.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Op::two(Gate::Cz, a, b))
    }

    /// Applies SWAP to `a`, `b`.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Op::two(Gate::Swap, a, b))
    }

    /// Applies the ideal Mølmer–Sørensen gate `XX(theta)` to `a`, `b`.
    pub fn xx(&mut self, a: usize, b: usize, theta: f64) -> &mut Self {
        self.push(Op::two(Gate::Xx(theta), a, b))
    }

    /// Applies the phase-parameterised MS gate `M(theta, phi1, phi2)`.
    pub fn ms(&mut self, a: usize, b: usize, theta: f64, phi1: f64, phi2: f64) -> &mut Self {
        self.push(Op::two(Gate::Ms { theta, phi1, phi2 }, a, b))
    }

    /// Applies controlled-phase `CP(lambda)` to `a`, `b`.
    pub fn cphase(&mut self, a: usize, b: usize, lambda: f64) -> &mut Self {
        self.push(Op::two(Gate::CPhase(lambda), a, b))
    }

    /// Appends a Toffoli (CCX) on controls `c1`, `c2` and target `t` using
    /// the standard 6-CNOT + 7-T decomposition (the gate set is 1–2 qubit
    /// only, as on ion-trap hardware).
    ///
    /// # Panics
    ///
    /// Panics if the three qubits are not distinct.
    pub fn toffoli(&mut self, c1: usize, c2: usize, t: usize) -> &mut Self {
        assert!(c1 != c2 && c1 != t && c2 != t, "Toffoli needs distinct qubits");
        self.h(t)
            .cnot(c2, t)
            .tdg(t)
            .cnot(c1, t)
            .t(t)
            .cnot(c2, t)
            .tdg(t)
            .cnot(c1, t)
            .t(c2)
            .t(t)
            .h(t)
            .cnot(c1, c2)
            .t(c1)
            .tdg(c2)
            .cnot(c1, c2)
    }

    // ---- analysis --------------------------------------------------------

    /// The inverse circuit (ops reversed, each inverted).
    pub fn inverse(&self) -> Circuit {
        Circuit { n_qubits: self.n_qubits, ops: self.ops.iter().rev().map(Op::dagger).collect() }
    }

    /// Number of two-qubit gates.
    pub fn two_qubit_gate_count(&self) -> usize {
        self.ops.iter().filter(|o| o.gate.arity() == 2).count()
    }

    /// The set of distinct couplings exercised by two-qubit gates —
    /// the quantity censused in the paper's Fig. 11.
    pub fn used_couplings(&self) -> BTreeSet<Coupling> {
        self.ops.iter().filter_map(Op::coupling).collect()
    }

    /// Gate-name histogram.
    pub fn gate_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for op in &self.ops {
            *m.entry(op.gate.name()).or_insert(0) += 1;
        }
        m
    }

    /// Circuit depth: the length of the longest qubit-dependency chain,
    /// computed by greedy levelisation.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.n_qubits];
        let mut depth = 0;
        for op in &self.ops {
            let start = op.qubits().iter().map(|&q| level[q]).max().unwrap_or(0);
            for &q in op.qubits() {
                level[q] = start + 1;
            }
            depth = depth.max(start + 1);
        }
        depth
    }

    /// `true` when every gate belongs to the ion-trap native set.
    pub fn is_native(&self) -> bool {
        self.ops.iter().all(|o| o.gate.is_native())
    }

    /// Computes the full `2^n × 2^n` unitary of the circuit. Qubit 0 is the
    /// least-significant index bit.
    ///
    /// Intended for verification at small `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > 12` (the matrix would not fit in memory
    /// budgets appropriate for verification).
    pub fn unitary(&self) -> CMatrix {
        assert!(self.n_qubits <= 12, "unitary() is for verification-sized circuits");
        let dim = 1usize << self.n_qubits;
        let mut u = CMatrix::identity(dim);
        for op in &self.ops {
            let g = match op.gate.arity() {
                1 => CMatrix::embed_1q(self.n_qubits, op.qubits()[0], &op.gate.matrix1().unwrap()),
                2 => CMatrix::embed_2q(
                    self.n_qubits,
                    op.qubits()[0],
                    op.qubits()[1],
                    &op.gate.matrix2().unwrap(),
                ),
                _ => unreachable!(),
            };
            u = g.mul(&u);
        }
        u
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit[{} qubits, {} ops]", self.n_qubits, self.ops.len())?;
        for op in &self.ops {
            match op.gate.arity() {
                1 => writeln!(f, "  {:<5} q{}", op.gate.name(), op.qubits()[0])?,
                _ => {
                    writeln!(f, "  {:<5} q{} q{}", op.gate.name(), op.qubits()[0], op.qubits()[1])?
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itqc_math::Complex64;

    #[test]
    fn coupling_is_unordered() {
        assert_eq!(Coupling::new(3, 1), Coupling::new(1, 3));
        assert_eq!(Coupling::new(1, 3).endpoints(), (1, 3));
        assert!(Coupling::new(1, 3).touches(3));
        assert!(!Coupling::new(1, 3).touches(2));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn degenerate_coupling_panics() {
        let _ = Coupling::new(2, 2);
    }

    #[test]
    fn builder_chains() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.depth(), 2);
        assert_eq!(c.two_qubit_gate_count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        let mut c = Circuit::new(2);
        c.x(2);
    }

    #[test]
    fn inverse_cancels() {
        let mut c = Circuit::new(2);
        c.h(0).t(1).cnot(0, 1).rx(0, 0.3).xx(0, 1, 0.7);
        let mut whole = c.clone();
        whole.append(&c.inverse());
        let u = whole.unitary();
        assert!(u.approx_eq_up_to_phase(&CMatrix::identity(4), 1e-10));
    }

    #[test]
    fn bell_circuit_unitary() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let u = c.unitary();
        // |00⟩ → (|00⟩+|11⟩)/√2
        let v = u.mul_vec(&[Complex64::ONE, Complex64::ZERO, Complex64::ZERO, Complex64::ZERO]);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!(v[0].approx_eq(Complex64::real(s), 1e-12));
        assert!(v[3].approx_eq(Complex64::real(s), 1e-12));
        assert!(v[1].norm() < 1e-12 && v[2].norm() < 1e-12);
    }

    #[test]
    fn toffoli_truth_table() {
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2);
        let u = c.unitary();
        // |011⟩ (q0=1,q1=1,q2=0 → index 3) maps to |111⟩ (index 7).
        for input in 0..8usize {
            let mut v = vec![Complex64::ZERO; 8];
            v[input] = Complex64::ONE;
            let out = u.mul_vec(&v);
            let expected = if input & 0b011 == 0b011 { input ^ 0b100 } else { input };
            let (idx, amp) = out
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.norm_sqr().partial_cmp(&b.norm_sqr()).unwrap())
                .unwrap();
            assert_eq!(idx, expected, "input {input}");
            assert!((amp.norm() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn used_couplings_census() {
        let mut c = Circuit::new(4);
        c.cnot(0, 1).cnot(1, 0).xx(2, 3, 0.5).h(0);
        let used = c.used_couplings();
        assert_eq!(used.len(), 2);
        assert!(used.contains(&Coupling::new(0, 1)));
        assert!(used.contains(&Coupling::new(2, 3)));
    }

    #[test]
    fn gate_counts_histogram() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cnot(0, 1);
        let counts = c.gate_counts();
        assert_eq!(counts["h"], 2);
        assert_eq!(counts["cnot"], 1);
    }

    #[test]
    fn depth_accounts_for_parallelism() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3); // all parallel
        assert_eq!(c.depth(), 1);
        c.cnot(0, 1).cnot(2, 3); // still one extra layer
        assert_eq!(c.depth(), 2);
        c.cnot(1, 2); // serialises
        assert_eq!(c.depth(), 3);
    }
}
