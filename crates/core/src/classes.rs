//! The combinatorial test classes of §V-A.
//!
//! Qubits are labelled `0..2^n` (an `N`-qubit machine is padded to
//! `n = ⌈log₂ N⌉` bits; unused labels simply never occur — Corollary
//! V.12). Two families of classes drive the protocol:
//!
//! * **Subcube classes** `(i, b)` — all labels whose `i`-th bit is `b`.
//!   Every non-complementary pair lies in at least one (Lemma V.1) and at
//!   most `n − 1` (Lemma V.3) of them; the complementary classes `(i,0)`,
//!   `(i,1)` partition pairs (Lemma V.2).
//! * **Equal-bits classes** `[j, =]` — labels whose bits at two chosen
//!   positions agree, optionally restricted by fixed bits. Every
//!   bit-complementary pair lies in exactly one of `[j,=]`, `[j,≠]`
//!   (Lemma V.5) and distinct complementary pairs have distinct `[·,=]`
//!   membership signatures (Theorem V.7).

use crate::syndrome::Syndrome;
use itqc_circuit::Coupling;
use itqc_math::bits;
use std::collections::BTreeSet;
use std::fmt;

/// The label space of a machine: `n_qubits` physical qubits on
/// `⌈log₂ n_qubits⌉` index bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LabelSpace {
    n_qubits: usize,
    n_bits: u32,
}

impl LabelSpace {
    /// Creates the label space for an `n_qubits` machine.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits < 2`.
    pub fn new(n_qubits: usize) -> Self {
        assert!(n_qubits >= 2, "need at least two qubits to have a coupling");
        LabelSpace { n_qubits, n_bits: bits::label_bits(n_qubits) }
    }

    /// Number of physical qubits `N`.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of index bits `n = ⌈log₂ N⌉`.
    pub fn n_bits(&self) -> u32 {
        self.n_bits
    }

    /// `true` for labels that exist on the machine.
    pub fn is_physical(&self, label: usize) -> bool {
        label < self.n_qubits
    }

    /// All `C(N,2)` physical couplings, ascending.
    pub fn all_couplings(&self) -> Vec<Coupling> {
        let mut out = Vec::with_capacity(self.n_qubits * (self.n_qubits - 1) / 2);
        for a in 0..self.n_qubits {
            for b in (a + 1)..self.n_qubits {
                out.push(Coupling::new(a, b));
            }
        }
        out
    }
}

/// A first-round subcube class `(i, b)`: labels with bit `i` equal to `b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubcubeClass {
    /// The tested bit position `i`.
    pub bit: u32,
    /// The tested bit value `b`.
    pub value: bool,
}

impl SubcubeClass {
    /// The flat test index `2·i + b` used to order first-round tests.
    pub fn test_index(&self) -> usize {
        2 * self.bit as usize + usize::from(self.value)
    }

    /// `true` when `label` belongs to the class.
    pub fn contains(&self, label: usize) -> bool {
        bits::bit(label, self.bit) == self.value
    }

    /// `true` when both endpoints of `coupling` belong to the class,
    /// i.e. the coupling appears in this class's test circuit (and a
    /// fault on it degrades this test's score) — the membership relation
    /// behind the ranked decoder's forward model.
    pub fn contains_coupling(&self, coupling: Coupling) -> bool {
        let (a, b) = coupling.endpoints();
        self.contains(a) && self.contains(b)
    }

    /// The physical member labels, ascending.
    pub fn members(&self, space: &LabelSpace) -> Vec<usize> {
        (0..space.n_qubits()).filter(|&q| self.contains(q)).collect()
    }

    /// All couplings internal to the class, minus `excluded` —
    /// the coupling set of one first-round test circuit.
    pub fn couplings(&self, space: &LabelSpace, excluded: &BTreeSet<Coupling>) -> Vec<Coupling> {
        let members = self.members(space);
        let mut out = Vec::new();
        for (k, &a) in members.iter().enumerate() {
            for &b in &members[k + 1..] {
                let c = Coupling::new(a, b);
                if !excluded.contains(&c) {
                    out.push(c);
                }
            }
        }
        out
    }
}

impl fmt::Display for SubcubeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.bit, u8::from(self.value))
    }
}

/// The `2n` first-round classes in test-index order:
/// `(0,0), (0,1), (1,0), …`.
pub fn first_round_classes(space: &LabelSpace) -> Vec<SubcubeClass> {
    let mut out = Vec::with_capacity(2 * space.n_bits() as usize);
    for bit in 0..space.n_bits() {
        for value in [false, true] {
            out.push(SubcubeClass { bit, value });
        }
    }
    out
}

/// A second-round equal-bits class: labels whose bits at `pos_lo` and
/// `pos_hi` agree *and* whose fixed bits match the first-round syndrome
/// (§V-A's `[i,=]` classes "adapted to the k bits not specified by the
/// syndrome", Theorem V.10).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EqualBitsClass {
    /// Lower of the two compared free positions.
    pub pos_lo: u32,
    /// Higher of the two compared free positions.
    pub pos_hi: u32,
    /// Bits fixed by the observed syndrome.
    pub fixed: Syndrome,
}

impl EqualBitsClass {
    /// `true` when `label` belongs to the class.
    pub fn contains(&self, label: usize) -> bool {
        self.fixed.matches(label) && bits::bit(label, self.pos_lo) == bits::bit(label, self.pos_hi)
    }

    /// The physical member labels, ascending.
    pub fn members(&self, space: &LabelSpace) -> Vec<usize> {
        (0..space.n_qubits()).filter(|&q| self.contains(q)).collect()
    }

    /// All couplings internal to the class, minus `excluded`.
    pub fn couplings(&self, space: &LabelSpace, excluded: &BTreeSet<Coupling>) -> Vec<Coupling> {
        let members = self.members(space);
        let mut out = Vec::new();
        for (k, &a) in members.iter().enumerate() {
            for &b in &members[k + 1..] {
                let c = Coupling::new(a, b);
                if !excluded.contains(&c) {
                    out.push(c);
                }
            }
        }
        out
    }
}

impl fmt::Display for EqualBitsClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}={}|{}]", self.pos_lo, self.pos_hi, self.fixed)
    }
}

/// The second-round adaptive tests for an observed syndrome: one
/// equal-bits class per *consecutive pair of free positions* — `k − 1`
/// tests for `k` free bits (Theorem V.10).
pub fn second_round_classes(syndrome: &Syndrome, space: &LabelSpace) -> Vec<EqualBitsClass> {
    let free = syndrome.free_positions(space.n_bits());
    free.windows(2)
        .map(|w| EqualBitsClass { pos_lo: w[0], pos_hi: w[1], fixed: syndrome.clone() })
        .collect()
}

/// Decodes the faulty pair from a syndrome plus the second-round pass/fail
/// pattern. `equal_flags[j]` is `true` when the `j`-th second-round test
/// (over free positions `j`, `j+1`) *failed*, i.e. the pair's bits there
/// are equal.
///
/// Returns `None` when the reconstructed pair is unphysical (padding) —
/// which a caller should treat as "no fault found" (footnote 9's zero-
/// fault caveat is handled by a verification test).
pub fn decode_pair(
    syndrome: &Syndrome,
    equal_flags: &[bool],
    space: &LabelSpace,
) -> Option<Coupling> {
    let free = syndrome.free_positions(space.n_bits());
    assert_eq!(
        equal_flags.len() + 1,
        free.len().max(1),
        "need exactly k−1 second-round answers for k free bits"
    );
    if free.is_empty() {
        return None;
    }
    // Anchor the first free bit to 0, then propagate: equal → same bit,
    // unequal → flipped bit.
    let mut a = 0usize;
    for (i, v) in syndrome.iter() {
        if v {
            a |= 1 << i;
        }
    }
    let mut prev = false;
    for (j, &pos) in free.iter().enumerate().skip(1) {
        let equal = equal_flags[j - 1];
        let bit = if equal { prev } else { !prev };
        if bit {
            a |= 1 << pos;
        }
        prev = bit;
    }
    let mut b = a;
    for &pos in &free {
        b ^= 1 << pos;
    }
    if space.is_physical(a) && space.is_physical(b) && a != b {
        Some(Coupling::new(a, b))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space8() -> LabelSpace {
        LabelSpace::new(8)
    }

    #[test]
    fn example_v4_class_members() {
        // Paper Example V.4 (n = 3).
        let s = space8();
        let rows = [
            (0, false, vec![0, 2, 4, 6]),
            (0, true, vec![1, 3, 5, 7]),
            (1, false, vec![0, 1, 4, 5]),
            (1, true, vec![2, 3, 6, 7]),
            (2, false, vec![0, 1, 2, 3]),
            (2, true, vec![4, 5, 6, 7]),
        ];
        for (bit, value, expect) in rows {
            let class = SubcubeClass { bit, value };
            assert_eq!(class.members(&s), expect, "class {class}");
        }
    }

    #[test]
    fn example_v6_equal_bits_members() {
        // Paper Example V.6: [1,=] = {0,3,4,7}; [2,=] = {0,1,6,7}.
        let s = space8();
        let c1 = EqualBitsClass { pos_lo: 0, pos_hi: 1, fixed: Syndrome::empty() };
        assert_eq!(c1.members(&s), vec![0, 3, 4, 7]);
        let c2 = EqualBitsClass { pos_lo: 1, pos_hi: 2, fixed: Syndrome::empty() };
        assert_eq!(c2.members(&s), vec![0, 1, 6, 7]);
    }

    #[test]
    fn footnote7_gray_code_relation() {
        // [i,=] = (GrayCode-related subcube): the equal-bits class over
        // positions (i−1, i) has the same members as the set of labels
        // whose XOR of those bits is 0 — verify against gray-coded masks.
        for i in 1..3u32 {
            let eq = EqualBitsClass { pos_lo: i - 1, pos_hi: i, fixed: Syndrome::empty() };
            for q in 0..8usize {
                let g = itqc_math::gray(q);
                // gray(q) bit i equals q_i ⊕ q_{i+1}; the paper's footnote
                // states [i,=] corresponds to a gray-code subcube. Verify
                // membership is equivalent to the XOR test.
                let xor = itqc_math::bits::bit(q, i - 1) ^ itqc_math::bits::bit(q, i);
                assert_eq!(eq.contains(q), !xor, "q={q} gray={g}");
            }
        }
    }

    #[test]
    fn lemma_v1_every_noncomplementary_pair_covered() {
        let s = space8();
        let classes = first_round_classes(&s);
        for a in 0..8usize {
            for b in (a + 1)..8 {
                let complementary = a ^ b == 7;
                let covering = classes.iter().filter(|cl| cl.contains(a) && cl.contains(b)).count();
                if complementary {
                    assert_eq!(covering, 0, "{{{a},{b}}}");
                } else {
                    assert!(covering >= 1, "{{{a},{b}}} uncovered");
                    // Lemma V.3: at most n−1 classes.
                    assert!(covering <= 2, "{{{a},{b}}} covered {covering} times");
                }
            }
        }
    }

    #[test]
    fn lemma_v2_complementary_classes_partition() {
        for bit in 0..3u32 {
            let c0 = SubcubeClass { bit, value: false };
            let c1 = SubcubeClass { bit, value: true };
            for a in 0..8usize {
                for b in (a + 1)..8 {
                    let in0 = c0.contains(a) && c0.contains(b);
                    let in1 = c1.contains(a) && c1.contains(b);
                    assert!(!(in0 && in1), "pair cannot be in both");
                }
            }
        }
    }

    #[test]
    fn lemma_v5_complementary_pairs_in_equal_or_unequal() {
        // For each complementary pair and each consecutive position pair,
        // both endpoints agree on the (=/≠) relation.
        for a in 0..8usize {
            let b = a ^ 7;
            if a >= b {
                continue;
            }
            for i in 1..3u32 {
                let a_eq = bits::bit(a, i - 1) == bits::bit(a, i);
                let b_eq = bits::bit(b, i - 1) == bits::bit(b, i);
                assert_eq!(a_eq, b_eq, "pair {{{a},{b}}} at i={i}");
            }
        }
    }

    #[test]
    fn theorem_v7_signatures_distinguish_complementary_pairs() {
        // Distinct complementary pairs have distinct (=/≠) signatures.
        let mut seen = std::collections::BTreeSet::new();
        for a in 0..8usize {
            let b = a ^ 7;
            if a >= b {
                continue;
            }
            let sig: Vec<bool> =
                (1..3u32).map(|i| bits::bit(a, i - 1) == bits::bit(a, i)).collect();
            assert!(seen.insert(sig.clone()), "signature {sig:?} repeated");
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn second_round_class_count() {
        // k free bits → k−1 second-round tests.
        let s = space8();
        let syn = Syndrome::from_entries([(1, true)]);
        let classes = second_round_classes(&syn, &s);
        assert_eq!(classes.len(), 1); // free = {0, 2}
        let empty = Syndrome::empty();
        assert_eq!(second_round_classes(&empty, &s).len(), 2);
    }

    #[test]
    fn decode_pair_round_trip_all_pairs() {
        // For every coupling: compute its syndrome, answer the second-round
        // tests truthfully, and check decode returns exactly it.
        let s = space8();
        for a in 0..8usize {
            for b in (a + 1)..8 {
                let truth = Coupling::new(a, b);
                let syn = Syndrome::of_coupling(truth, 3);
                let free = syn.free_positions(3);
                let flags: Vec<bool> =
                    free.windows(2).map(|w| bits::bit(a, w[0]) == bits::bit(a, w[1])).collect();
                let decoded = decode_pair(&syn, &flags, &s);
                assert_eq!(decoded, Some(truth), "pair {{{a},{b}}}");
            }
        }
    }

    #[test]
    fn decode_rejects_padding_labels() {
        // 6 physical qubits on 3 bits: labels 6, 7 are padding. The
        // complementary pair {2, 5} exists, {0, 7} and {1, 6} do not.
        let s = LabelSpace::new(6);
        let syn = Syndrome::empty();
        // flags for pair {0,7}: bits of 0 are all equal → [true, true]
        assert_eq!(decode_pair(&syn, &[true, true], &s), None);
        // flags for pair {1,6}: label 6 = 110 is padding → rejected
        assert_eq!(decode_pair(&syn, &[false, true], &s), None);
        // flags for pair {2,5}: label 2 = 010: bit0≠bit1, bit1≠bit2
        assert_eq!(decode_pair(&syn, &[false, false], &s), Some(Coupling::new(2, 5)));
    }

    #[test]
    fn class_couplings_respect_exclusions() {
        let s = space8();
        let class = SubcubeClass { bit: 0, value: false }; // {0,2,4,6}
        let mut excluded = BTreeSet::new();
        excluded.insert(Coupling::new(0, 2));
        let cs = class.couplings(&s, &excluded);
        assert_eq!(cs.len(), 5); // C(4,2) − 1
        assert!(!cs.contains(&Coupling::new(0, 2)));
    }

    #[test]
    fn label_space_padding() {
        let s = LabelSpace::new(11);
        assert_eq!(s.n_bits(), 4);
        assert!(s.is_physical(10));
        assert!(!s.is_physical(11));
        assert_eq!(s.all_couplings().len(), 55);
    }
}
