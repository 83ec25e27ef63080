//! Booleanization (Lemma 3.5): reducing any CSP instance to a Boolean
//! one.
//!
//! Every element of the right structure `B` is encoded by a bit vector
//! of length `m = ⌈log₂ |B|⌉`; a `k`-ary relation becomes a `k·m`-ary
//! Boolean relation, and every element of the left structure `A` is
//! split into `m` copies. The blow-up is a `⌈log |B|⌉` factor, and
//! `hom(A → B) ⟺ hom(A_b → B_b)`.
//!
//! The encoding is parameterized by a **labeling** (element → code):
//! Example 3.8 of the paper shows the labeling choice matters for which
//! Schaefer classes the Booleanized template lands in (`C₄` is affine
//! under one labeling, affine *and* bijunctive under another).
//!
//! The encoding splits into a template half ([`booleanize_template`]:
//! `B_b`, the bit width and a code → element table) and an instance half
//! ([`booleanize_instance`]: `A_b` as a structure). The serving route
//! needs only the first: a [`SchaeferPlan`](crate::direct::SchaeferPlan)
//! compiled from `B_b` reads the original `A` at bit width `m`, and
//! [`BooleanizedTemplate::decode`] maps its answer back to `B`, so `A_b`
//! is never materialized per instance.

use crate::error::{Error, Result};
use crate::relation::MAX_ARITY;
use cqcs_structures::{Element, Structure, StructureBuilder, Vocabulary};
use std::sync::Arc;

/// Bookkeeping for decoding Booleanized homomorphisms.
#[derive(Debug, Clone)]
pub struct BooleanizeInfo {
    /// Bits per element (`max(1, ⌈log₂ n⌉)`).
    pub bits: usize,
    /// Universe size of the original right structure.
    pub b_universe: usize,
    /// Universe size of the original left structure.
    pub a_universe: usize,
    /// The labeling used: `labels[e]` is the code of `B`-element `e`.
    pub labels: Vec<u64>,
}

impl BooleanizeInfo {
    /// Decodes a Boolean homomorphism `h_b : A_b → {0,1}` back to a map
    /// `A → B`. Elements of `A` whose decoded code matches no label
    /// (possible only for elements occurring in no tuple) map to 0.
    pub fn decode(&self, hb: &[Element]) -> Vec<Element> {
        assert_eq!(hb.len(), self.a_universe * self.bits);
        (0..self.a_universe)
            .map(|a| {
                let code =
                    (0..self.bits).fold(0u64, |c, i| c | ((hb[a * self.bits + i].0 as u64) << i));
                match self.labels.iter().position(|&l| l == code) {
                    Some(e) => Element::new(e),
                    None => Element(0),
                }
            })
            .collect()
    }
}

/// The identity labeling: element `e` gets code `e`.
pub fn identity_labels(n: usize) -> Vec<u64> {
    (0..n as u64).collect()
}

fn bits_needed(n: usize) -> usize {
    if n <= 2 {
        1
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// The template half of Lemma 3.5's encoding: everything that depends
/// only on `B` and the labeling — the Boolean template `B_b`, the bit
/// width, and the derived vocabulary. Computed once per template by
/// [`booleanize_template`] and reused across instances by
/// [`booleanize_instance`], so a caller streaming many left structures
/// against one `B` never re-encodes (or re-classifies) the right side.
#[derive(Debug, Clone)]
pub struct BooleanizedTemplate {
    /// `B_b`: the Boolean template over the derived vocabulary.
    pub template: Structure,
    /// Bits per element (`max(1, ⌈log₂ |B|⌉)`, or more if the labeling
    /// uses higher codes).
    pub bits: usize,
    /// The labeling used: `labels[e]` is the code of `B`-element `e`.
    pub labels: Vec<u64>,
    /// Universe size of the original right structure.
    pub b_universe: usize,
    /// The derived vocabulary (same names, arities scaled by `bits`).
    voc: Arc<Vocabulary>,
    /// The original `B`'s vocabulary, for instance-side validation.
    source_voc: Arc<Vocabulary>,
    /// `(code, element)` for every element of `B`, sorted by code.
    by_code: Vec<(u64, Element)>,
}

impl BooleanizedTemplate {
    /// Decodes a Boolean homomorphism of `A_b`, given as one value per
    /// variable (bit `i` of element `e` at `e · bits + i`), back to a
    /// map `A → B`. As in [`BooleanizeInfo::decode`], an element whose
    /// code matches no label maps to 0.
    pub fn decode(&self, values: &[bool]) -> Vec<Element> {
        values
            .chunks_exact(self.bits)
            .map(|bits| {
                let code = bits
                    .iter()
                    .enumerate()
                    .fold(0u64, |c, (i, &v)| c | u64::from(v) << i);
                self.by_code
                    .binary_search_by_key(&code, |&(c, _)| c)
                    .map_or(Element(0), |i| self.by_code[i].1)
            })
            .collect()
    }
}

/// Booleanizes the instance `(a, b)` with the identity labeling.
/// Returns `(A_b, B_b, info)` with `hom(A→B) ⟺ hom(A_b→B_b)`.
pub fn booleanize(a: &Structure, b: &Structure) -> Result<(Structure, Structure, BooleanizeInfo)> {
    booleanize_with_labels(a, b, &identity_labels(b.universe()))
}

/// Booleanizes with an explicit labeling (distinct codes per element,
/// each below `2^bits`).
pub fn booleanize_with_labels(
    a: &Structure,
    b: &Structure,
    labels: &[u64],
) -> Result<(Structure, Structure, BooleanizeInfo)> {
    if !a.same_vocabulary(b) {
        return Err(Error::Invalid(
            "left and right structures are over different vocabularies".into(),
        ));
    }
    let t = booleanize_template(b, labels)?;
    let (ab, info) = booleanize_instance(a, &t)?;
    Ok((ab, t.template, info))
}

/// Encodes the template side of Lemma 3.5 — `B_b` over the derived
/// vocabulary — independently of any left structure.
pub fn booleanize_template(b: &Structure, labels: &[u64]) -> Result<BooleanizedTemplate> {
    if labels.len() != b.universe() {
        return Err(Error::Invalid(format!(
            "labeling covers {} elements but B has {}",
            labels.len(),
            b.universe()
        )));
    }
    if b.universe() == 0 {
        return Err(Error::Invalid(
            "cannot Booleanize an empty right universe".into(),
        ));
    }
    {
        let mut sorted = labels.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != labels.len() {
            return Err(Error::Invalid("labels must be distinct".into()));
        }
    }
    let m = bits_needed(b.universe()).max(
        labels
            .iter()
            .map(|&l| bits_needed((l + 1) as usize))
            .max()
            .unwrap_or(1),
    );

    // Derived vocabulary: same names, arities scaled by m.
    let mut voc = Vocabulary::new();
    for (_, name, arity) in b.vocabulary().symbols() {
        if arity * m > MAX_ARITY {
            return Err(Error::ArityTooLarge { arity: arity * m });
        }
        voc.add(name, arity * m)
            .expect("names unchanged, still distinct");
    }
    let voc = voc.into_shared();

    // B_b: universe {0, 1}; each B-tuple becomes the concatenation of
    // its elements' codes.
    let mut bb = StructureBuilder::new(Arc::clone(&voc), 2);
    let mut buf: Vec<Element> = Vec::new();
    for (r, name, _) in b.vocabulary().symbols() {
        let rb = voc.lookup(name).expect("copied symbol");
        for t in b.relation(r).iter() {
            buf.clear();
            for &e in t {
                let code = labels[e.index()];
                for i in 0..m {
                    buf.push(Element(((code >> i) & 1) as u32));
                }
            }
            bb.add_tuple(rb, &buf).expect("bits are 0/1");
        }
    }

    let mut by_code: Vec<(u64, Element)> = labels
        .iter()
        .enumerate()
        .map(|(e, &code)| (code, Element::new(e)))
        .collect();
    by_code.sort_unstable();
    Ok(BooleanizedTemplate {
        template: bb.finish(),
        bits: m,
        labels: labels.to_vec(),
        b_universe: b.universe(),
        voc,
        source_voc: Arc::clone(b.vocabulary()),
        by_code,
    })
}

/// Encodes a left structure against a precomputed
/// [`BooleanizedTemplate`]: `a` must be over the template's original
/// vocabulary. Returns `A_b` and the decode bookkeeping, with
/// `hom(A→B) ⟺ hom(A_b→B_b)`.
pub fn booleanize_instance(
    a: &Structure,
    t: &BooleanizedTemplate,
) -> Result<(Structure, BooleanizeInfo)> {
    if **a.vocabulary() != *t.source_voc {
        return Err(Error::Invalid(
            "left and right structures are over different vocabularies".into(),
        ));
    }
    let m = t.bits;
    // A_b: every element a becomes m copies (a, 0..m).
    let mut ab = StructureBuilder::new(Arc::clone(&t.voc), a.universe() * m);
    let mut buf: Vec<Element> = Vec::new();
    for (r, name, _) in a.vocabulary().symbols() {
        let rb = t.voc.lookup(name).expect("copied symbol");
        for tu in a.relation(r).iter() {
            buf.clear();
            for &e in tu {
                for i in 0..m {
                    buf.push(Element((e.index() * m + i) as u32));
                }
            }
            ab.add_tuple(rb, &buf).expect("in range by construction");
        }
    }
    let info = BooleanizeInfo {
        bits: m,
        b_universe: t.b_universe,
        a_universe: a.universe(),
        labels: t.labels.clone(),
    };
    Ok((ab.finish(), info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::BooleanStructure;
    use crate::schaefer::{classify_structure, SchaeferClass};
    use cqcs_structures::generators;
    use cqcs_structures::homomorphism::{find_homomorphism, homomorphism_exists, is_homomorphism};

    #[test]
    fn bits_needed_values() {
        assert_eq!(bits_needed(1), 1);
        assert_eq!(bits_needed(2), 1);
        assert_eq!(bits_needed(3), 2);
        assert_eq!(bits_needed(4), 2);
        assert_eq!(bits_needed(5), 3);
        assert_eq!(bits_needed(8), 3);
        assert_eq!(bits_needed(9), 4);
    }

    #[test]
    fn lemma_3_5_on_colorings() {
        // C5 → K3 yes, C5 → K2 no; both survive Booleanization.
        let c5 = generators::undirected_cycle(5);
        for (template, expected) in [
            (generators::complete_graph(3), true),
            (generators::complete_graph(2), false),
        ] {
            let (ab, bb, info) = booleanize(&c5, &template).unwrap();
            assert_eq!(homomorphism_exists(&ab, &bb), expected);
            if expected {
                let hb = find_homomorphism(&ab, &bb).unwrap();
                let decoded = info.decode(hb.as_slice());
                assert!(is_homomorphism(&decoded, &c5, &template));
            }
        }
    }

    #[test]
    fn lemma_3_5_on_random_instances() {
        for seed in 0..10u64 {
            let a = generators::random_structure(5, &[2, 3], 5, seed);
            let b = generators::random_structure_over(a.vocabulary(), 4, 8, seed + 77);
            let expected = homomorphism_exists(&a, &b);
            let (ab, bb, info) = booleanize(&a, &b).unwrap();
            assert_eq!(homomorphism_exists(&ab, &bb), expected, "seed {seed}");
            if expected {
                let hb = find_homomorphism(&ab, &bb).unwrap();
                let decoded = info.decode(hb.as_slice());
                assert!(is_homomorphism(&decoded, &a, &b), "seed {seed}");
            }
        }
    }

    #[test]
    fn blowup_is_logarithmic() {
        let a = generators::directed_cycle(8);
        let b = generators::random_digraph(9, 0.4, 3);
        let (ab, bb, info) = booleanize(&a, &b).unwrap();
        assert_eq!(info.bits, 4, "⌈log₂ 9⌉");
        assert_eq!(ab.universe(), 8 * 4);
        assert_eq!(bb.universe(), 2);
        // Size scales by exactly the bit factor.
        let e = a.vocabulary().lookup("E").unwrap();
        let eb = ab.vocabulary().lookup("E").unwrap();
        assert_eq!(ab.vocabulary().arity(eb), 2 * 4);
        assert_eq!(ab.relation(eb).len(), a.relation(e).len());
    }

    #[test]
    fn example_3_8_first_labeling_affine_only() {
        // C4 with a↦00, b↦01, c↦10, d↦11 (identity labeling): the
        // Booleanized template is affine but not Horn/dual-Horn/
        // bijunctive/0-valid/1-valid.
        let c4 = generators::directed_cycle(4);
        let (_, bb, _) = booleanize_with_labels(&c4, &c4, &[0b00, 0b01, 0b10, 0b11]).unwrap();
        let bs = BooleanStructure::from_structure(&bb).unwrap();
        let set = classify_structure(&bs);
        assert!(set.contains(SchaeferClass::Affine));
        assert!(!set.contains(SchaeferClass::Bijunctive));
        assert!(!set.contains(SchaeferClass::Horn));
        assert!(!set.contains(SchaeferClass::DualHorn));
        assert!(!set.contains(SchaeferClass::ZeroValid));
        assert!(!set.contains(SchaeferClass::OneValid));
    }

    #[test]
    fn example_3_8_second_labeling_also_bijunctive() {
        // a↦00, b↦10, c↦11, d↦01: affine AND bijunctive.
        let c4 = generators::directed_cycle(4);
        let (_, bb, _) = booleanize_with_labels(&c4, &c4, &[0b00, 0b10, 0b11, 0b01]).unwrap();
        let bs = BooleanStructure::from_structure(&bb).unwrap();
        let set = classify_structure(&bs);
        assert!(set.contains(SchaeferClass::Affine));
        assert!(set.contains(SchaeferClass::Bijunctive));
        assert!(!set.contains(SchaeferClass::Horn));
        assert!(!set.contains(SchaeferClass::DualHorn));
    }

    #[test]
    fn two_coloring_booleanizes_to_xor() {
        // Example 3.7: K2 Booleanizes to R = {(0,1), (1,0)} — both
        // bijunctive and affine.
        let k2 = generators::complete_graph(2);
        let (_, bb, info) = booleanize(&k2, &k2).unwrap();
        assert_eq!(info.bits, 1);
        let bs = BooleanStructure::from_structure(&bb).unwrap();
        let r = bs.relation("E").unwrap();
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![0b01, 0b10]);
        let set = classify_structure(&bs);
        assert!(set.contains(SchaeferClass::Bijunctive));
        assert!(set.contains(SchaeferClass::Affine));
    }

    #[test]
    fn split_encoding_matches_the_one_shot() {
        // Template-half + instance-half must reproduce booleanize
        // exactly — same structures, same decode bookkeeping.
        for seed in 0..8u64 {
            let a = generators::random_structure(5, &[2, 3], 5, seed);
            let b = generators::random_structure_over(a.vocabulary(), 4, 8, seed + 50);
            let (ab1, bb1, info1) = booleanize(&a, &b).unwrap();
            let t = booleanize_template(&b, &identity_labels(b.universe())).unwrap();
            let (ab2, info2) = booleanize_instance(&a, &t).unwrap();
            assert!(ab1.same_vocabulary(&ab2), "seed {seed}");
            assert_eq!(ab1.size(), ab2.size(), "seed {seed}");
            assert!(bb1.same_vocabulary(&t.template), "seed {seed}");
            assert_eq!(bb1.size(), t.template.size(), "seed {seed}");
            assert_eq!(info1.bits, info2.bits, "seed {seed}");
            assert_eq!(info1.labels, info2.labels, "seed {seed}");
            // One template encoding serves a second instance too.
            let a2 = generators::random_structure_over(a.vocabulary(), 6, 7, seed + 99);
            let (ab3, info3) = booleanize_instance(&a2, &t).unwrap();
            let expected = homomorphism_exists(&a2, &b);
            assert_eq!(
                homomorphism_exists(&ab3, &t.template),
                expected,
                "seed {seed}"
            );
            let _ = info3;
        }
    }

    #[test]
    fn template_decode_matches_the_instance_decode() {
        // Every code of a 3-bit labeling, including the unused ones.
        let b = generators::random_digraph(5, 0.4, 7);
        let labels = [0b110, 0b001, 0b011, 0b000, 0b101];
        let t = booleanize_template(&b, &labels).unwrap();
        let a = generators::directed_path(8);
        let (_, info) = booleanize_instance(&a, &t).unwrap();
        let values: Vec<bool> = (0..24).map(|i| (i * 7) % 5 < 2).collect();
        let hb: Vec<Element> = values.iter().map(|&v| Element(u32::from(v))).collect();
        assert_eq!(t.decode(&values), info.decode(&hb));
    }

    #[test]
    fn instance_encoding_rejects_foreign_vocabularies() {
        let b = generators::complete_graph(3);
        let t = booleanize_template(&b, &identity_labels(3)).unwrap();
        let other = generators::random_structure(3, &[3], 2, 0);
        assert!(booleanize_instance(&other, &t).is_err());
    }

    #[test]
    fn validation_errors() {
        let a = generators::directed_path(2);
        let b = generators::directed_path(3);
        assert!(
            booleanize_with_labels(&a, &b, &[0, 1]).is_err(),
            "wrong label count"
        );
        assert!(
            booleanize_with_labels(&a, &b, &[0, 1, 1]).is_err(),
            "duplicate labels"
        );
        let other = generators::random_structure(2, &[3], 1, 0);
        assert!(booleanize(&other, &b).is_err(), "vocabulary mismatch");
    }

    #[test]
    fn singleton_universe() {
        // |B| = 1: one bit, code 0; hom exists iff reference agrees.
        let voc = generators::digraph_vocabulary();
        let mut bb = cqcs_structures::StructureBuilder::new(Arc::clone(&voc), 1);
        bb.add_fact("E", &[0, 0]).unwrap();
        let b = bb.finish();
        let a = generators::directed_cycle(3);
        let (ab, bbb, _) = booleanize(&a, &b).unwrap();
        assert!(homomorphism_exists(&a, &b));
        assert!(homomorphism_exists(&ab, &bbb));
    }
}
