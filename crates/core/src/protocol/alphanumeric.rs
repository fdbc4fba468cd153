//! Alphanumeric attribute comparison protocol (§4.2, Figures 7–10).
//!
//! Strings are first encoded as symbol indices over the attribute's finite
//! [`Alphabet`](crate::alphabet::Alphabet). For one attribute and one ordered
//! pair of data holders `(DH_J, DH_K)`:
//!
//! 1. `DH_J` masks every string character-wise, `s'[p] = (s[p] + r_p) mod
//!    |A|`, re-initialising the `rng_JT` stream after every string so all of
//!    its strings use the same offset sequence, and sends the masked strings
//!    to `DH_K` ([`initiator_mask_strings`]).
//! 2. `DH_K` builds, for every pair `(t, s')`, the intermediary matrix
//!    `M[q][p] = (s'[p] − t[q]) mod |A|` and ships the whole bundle to the
//!    third party ([`responder_build_bundle`]).
//! 3. `TP` regenerates the offsets, unmasks every cell, obtains the character
//!    comparison matrix (a cell matches when it equals its column's offset
//!    mod `|A|`) and evaluates the edit distance on it
//!    ([`third_party_edit_distances`]).
//!
//! The third party therefore learns the *pattern of character equalities*
//! between string pairs (exactly the CCM) and the resulting edit distance,
//! but never the characters themselves.
//!
//! ## Kernels and oracles
//!
//! The holders' character loops run through the branch-free modular
//! kernels of [`kernels`] whenever the operands are inside the alphabet
//! domain (always, for data produced by this protocol). The third party
//! packs each unmasked CCM row into an equality bitmask over the
//! initiator's string, which is exactly the input of the bit-parallel
//! edit-distance kernel ([`edit_distance_bits`]); no CCM, mismatch map or
//! DP table is materialised. Data that arrives off the wire outside the
//! domain falls back to the scalar masker's arithmetic, so outputs stay
//! identical to the `*_scalar` oracles (which run the reference dynamic
//! program) for *every* input. The shared `rng_JT` offset prefix is exposed
//! through the `*_with_offsets` variants so a derivation cache can hand the
//! same prefix to many sessions; it spans only the matrices that carry
//! cells ([`offsets_needed`]).

use ppc_crypto::prng::DynStreamRng;
use ppc_crypto::{
    offsets_from_raw, raw_u64_prefix, AlphabetMasker, PairwiseSeeds, RngAlgorithm, Seed,
};

use crate::ccm::CharacterComparisonMatrix;
use crate::distance::{edit_distance_bits, edit_distance_dp};
use crate::error::CoreError;
use crate::pairwise::PairwiseBlock;
use crate::protocol::kernels;

/// The intermediary (still masked) comparison matrix for one string pair, as
/// built by `DH_K`: entry `[q][p]` corresponds to `DH_K`'s character `q` and
/// `DH_J`'s (masked) character `p`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskedCcm {
    /// Number of rows = length of `DH_K`'s string.
    pub responder_len: usize,
    /// Number of columns = length of `DH_J`'s string.
    pub initiator_len: usize,
    /// Row-major cell values in `[0, |A|)`.
    pub cells: Vec<u32>,
}

/// The `rng_JT` offset prefix a set of matrices needs: as long as the
/// widest one that carries cells. An empty matrix needs none, so a
/// `0 × n` matrix off the wire, whose `n` no cell backs, cannot ask for
/// `n` draws.
pub fn offsets_needed(ccms: &[MaskedCcm]) -> usize {
    ccms.iter()
        .filter(|c| c.responder_len > 0)
        .map(|c| c.initiator_len.min(c.cells.len()))
        .max()
        .unwrap_or(0)
}

/// The full bundle `DH_K` sends to the third party: one [`MaskedCcm`] per
/// (responder object, initiator object) pair, row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskedCcmBundle {
    /// Number of responder objects (`DH_K`).
    pub responder_count: usize,
    /// Number of initiator objects (`DH_J`).
    pub initiator_count: usize,
    /// `responder_count · initiator_count` matrices, row-major.
    pub ccms: Vec<MaskedCcm>,
}

/// The shared `rng_JT` offset prefix both `DH_J` and `TP` replay: the first
/// `len` stream draws reduced modulo the alphabet size.
pub fn offset_prefix(
    len: usize,
    alphabet_size: u32,
    seed_jt: &Seed,
    algorithm: RngAlgorithm,
) -> Vec<u32> {
    offsets_from_raw(&raw_u64_prefix(algorithm, seed_jt, len), alphabet_size)
}

/// `DH_J` (Figure 8): masks each of its encoded strings character-wise.
pub fn initiator_mask_strings(
    strings: &[Vec<u32>],
    alphabet_size: u32,
    seeds: &PairwiseSeeds,
    algorithm: RngAlgorithm,
) -> Result<Vec<Vec<u32>>, CoreError> {
    // "DHJ re-initializes its pseudo-random number generator with the same
    // seed after disguising each input string" — every string is masked
    // against the same offset prefix, so one draw of the longest prefix
    // serves all strings (identical stream values, drawn once).
    let max_len = strings.iter().map(Vec::len).max().unwrap_or(0);
    let offsets = offset_prefix(max_len, alphabet_size, &seeds.holder_third_party, algorithm);
    initiator_mask_strings_with_offsets(strings, alphabet_size, &offsets)
}

/// [`initiator_mask_strings`] over an already-derived offset prefix (the
/// cacheable form). `offsets` must cover the longest string.
pub fn initiator_mask_strings_with_offsets(
    strings: &[Vec<u32>],
    alphabet_size: u32,
    offsets: &[u32],
) -> Result<Vec<Vec<u32>>, CoreError> {
    let masker = AlphabetMasker::new(alphabet_size)?;
    let max_len = strings.iter().map(Vec::len).max().unwrap_or(0);
    if offsets.len() < max_len {
        return Err(CoreError::Protocol(format!(
            "offset prefix of {} covers strings up to {max_len} characters",
            offsets.len()
        )));
    }
    let mut out = Vec::with_capacity(strings.len());
    for s in strings {
        let mut masked = vec![0u32; s.len()];
        if s.iter().all(|&c| c < alphabet_size) {
            kernels::alpha_mod_add_row(s, &offsets[..s.len()], alphabet_size, &mut masked);
        } else {
            // Out-of-domain symbols (callers should have encoded via the
            // alphabet): defer to the scalar masker's modular arithmetic.
            for (o, (&symbol, &offset)) in masked.iter_mut().zip(s.iter().zip(offsets)) {
                *o = masker.mask(symbol % alphabet_size, offset);
            }
        }
        out.push(masked);
    }
    Ok(out)
}

/// Scalar oracle for [`initiator_mask_strings`], retained for equivalence
/// tests and microbenchmarks.
pub fn initiator_mask_strings_scalar(
    strings: &[Vec<u32>],
    alphabet_size: u32,
    seeds: &PairwiseSeeds,
    algorithm: RngAlgorithm,
) -> Result<Vec<Vec<u32>>, CoreError> {
    let masker = AlphabetMasker::new(alphabet_size)?;
    let mut rng_jt = DynStreamRng::new(algorithm, &seeds.holder_third_party);
    let max_len = strings.iter().map(Vec::len).max().unwrap_or(0);
    let offsets: Vec<u32> = (0..max_len)
        .map(|_| (rng_jt.next_u64() % alphabet_size as u64) as u32)
        .collect();
    let mut out = Vec::with_capacity(strings.len());
    for s in strings {
        let masked: Vec<u32> = s
            .iter()
            .zip(&offsets)
            .map(|(&symbol, &offset)| masker.mask(symbol, offset))
            .collect();
        out.push(masked);
    }
    Ok(out)
}

/// `DH_K` (Figure 9): subtracts its own characters from every masked string,
/// building one intermediary matrix per string pair.
pub fn responder_build_bundle(
    masked_initiator: &[Vec<u32>],
    own_strings: &[Vec<u32>],
    alphabet_size: u32,
) -> Result<MaskedCcmBundle, CoreError> {
    let masker = AlphabetMasker::new(alphabet_size)?;
    // Each masked string is scanned once for domain membership; in-domain
    // strings (the protocol's own output always is) take the broadcast
    // subtract kernel, anything else the scalar masker.
    let in_domain: Vec<bool> = masked_initiator
        .iter()
        .map(|s| s.iter().all(|&c| c < alphabet_size))
        .collect();
    let mut ccms = Vec::with_capacity(own_strings.len() * masked_initiator.len());
    for t in own_strings {
        for (s_masked, &fast) in masked_initiator.iter().zip(&in_domain) {
            let cols = s_masked.len();
            let mut cells = vec![0u32; t.len() * cols];
            if fast && cols > 0 {
                for (&tq, row) in t.iter().zip(cells.chunks_exact_mut(cols)) {
                    let addend = alphabet_size - (tq % alphabet_size);
                    kernels::alpha_mod_add_broadcast(s_masked, addend, alphabet_size, row);
                }
            } else if cols > 0 {
                for (&tq, row) in t.iter().zip(cells.chunks_exact_mut(cols)) {
                    for (o, &sp) in row.iter_mut().zip(s_masked) {
                        *o = masker.subtract(sp, tq);
                    }
                }
            }
            ccms.push(MaskedCcm {
                responder_len: t.len(),
                initiator_len: cols,
                cells,
            });
        }
    }
    Ok(MaskedCcmBundle {
        responder_count: own_strings.len(),
        initiator_count: masked_initiator.len(),
        ccms,
    })
}

/// Scalar oracle for [`responder_build_bundle`].
pub fn responder_build_bundle_scalar(
    masked_initiator: &[Vec<u32>],
    own_strings: &[Vec<u32>],
    alphabet_size: u32,
) -> Result<MaskedCcmBundle, CoreError> {
    let masker = AlphabetMasker::new(alphabet_size)?;
    let mut ccms = Vec::with_capacity(own_strings.len() * masked_initiator.len());
    for t in own_strings {
        for s_masked in masked_initiator {
            let mut cells = Vec::with_capacity(t.len() * s_masked.len());
            for &tq in t {
                for &sp in s_masked {
                    cells.push(masker.subtract(sp, tq));
                }
            }
            ccms.push(MaskedCcm {
                responder_len: t.len(),
                initiator_len: s_masked.len(),
                cells,
            });
        }
    }
    Ok(MaskedCcmBundle {
        responder_count: own_strings.len(),
        initiator_count: masked_initiator.len(),
        ccms,
    })
}

/// `TP` (Figure 10): unmasks every intermediary matrix into a character
/// comparison matrix and evaluates the edit distance on it.
///
/// Returns the `responder_count × initiator_count` block of edit distances
/// (flat row-major, one allocation).
pub fn third_party_edit_distances(
    bundle: &MaskedCcmBundle,
    alphabet_size: u32,
    seed_jt: &Seed,
    algorithm: RngAlgorithm,
) -> Result<PairwiseBlock<u32>, CoreError> {
    // Every CCM row is decoded against the same offset sequence — the
    // stream is re-initialised per row (Figure 10, step 5) and again per
    // matrix — so the whole bundle consumes one shared offset prefix. Draw
    // the longest prefix once instead of regenerating it for every row of
    // every matrix: the unmasking below is value-identical while the cipher
    // work drops from Σ rows·cols draws to max(cols), counted over the
    // matrices that carry cells.
    let offsets = offset_prefix(
        offsets_needed(&bundle.ccms),
        alphabet_size,
        seed_jt,
        algorithm,
    );
    third_party_edit_distances_with_offsets(bundle, alphabet_size, &offsets)
}

/// [`third_party_edit_distances`] over an already-derived offset prefix
/// (the cacheable form). `offsets` must cover [`offsets_needed`].
///
/// Each CCM row is packed into match bits (a cell matches when it equals
/// its column's offset reduced mod `|A|`, [`kernels::alpha_match_bits`])
/// that go straight into the bit-parallel edit-distance kernel, the
/// initiator's string as the pattern and the responder's rows as the
/// text; no CCM, mismatch map or DP table is built. A matrix with
/// off-domain cells takes the scalar masker's `is_match` bits instead, so
/// the result equals [`third_party_edit_distances_scalar`] for every input.
pub fn third_party_edit_distances_with_offsets(
    bundle: &MaskedCcmBundle,
    alphabet_size: u32,
    offsets: &[u32],
) -> Result<PairwiseBlock<u32>, CoreError> {
    let masker = AlphabetMasker::new(alphabet_size)?;
    if bundle.ccms.len() != bundle.responder_count * bundle.initiator_count {
        return Err(CoreError::Protocol(format!(
            "bundle holds {} matrices, expected {}",
            bundle.ccms.len(),
            bundle.responder_count * bundle.initiator_count
        )));
    }
    let needed = offsets_needed(&bundle.ccms);
    if offsets.len() < needed {
        return Err(CoreError::Protocol(format!(
            "offset prefix of {} covers matrices up to {needed} columns",
            offsets.len()
        )));
    }
    let offsets = &offsets[..needed];
    let reduced: Vec<u32> = offsets.iter().map(|&o| o % alphabet_size).collect();
    let mut distances = Vec::with_capacity(bundle.ccms.len());
    for masked in &bundle.ccms {
        if masked.cells.len() != masked.responder_len * masked.initiator_len {
            return Err(CoreError::Protocol(
                "masked CCM cell count does not match its dimensions".into(),
            ));
        }
        let (rows, cols) = (masked.responder_len, masked.initiator_len);
        if rows == 0 || cols == 0 {
            // An empty string on one side: the distance is the other
            // string's length, with no cell to unmask.
            distances.push((rows + cols) as u32);
            continue;
        }
        let row = |q: usize| &masked.cells[q * cols..(q + 1) * cols];
        let in_domain = masked
            .cells
            .iter()
            .fold(true, |all, &cell| all & (cell < alphabet_size));
        let distance = if in_domain {
            edit_distance_bits(cols, rows, |q, words| {
                kernels::alpha_match_bits(row(q), &reduced[..cols], words);
            })
        } else {
            // Off-domain cells from the wire: scalar modular unmasking.
            edit_distance_bits(cols, rows, |q, words| {
                for (p, (&cell, &offset)) in row(q).iter().zip(offsets).enumerate() {
                    words[p / 64] |= u64::from(masker.is_match(cell, offset)) << (p % 64);
                }
            })
        };
        distances.push(distance);
    }
    PairwiseBlock::new(bundle.responder_count, bundle.initiator_count, distances)
}

/// Scalar oracle for [`third_party_edit_distances`].
pub fn third_party_edit_distances_scalar(
    bundle: &MaskedCcmBundle,
    alphabet_size: u32,
    seed_jt: &Seed,
    algorithm: RngAlgorithm,
) -> Result<PairwiseBlock<u32>, CoreError> {
    let masker = AlphabetMasker::new(alphabet_size)?;
    if bundle.ccms.len() != bundle.responder_count * bundle.initiator_count {
        return Err(CoreError::Protocol(format!(
            "bundle holds {} matrices, expected {}",
            bundle.ccms.len(),
            bundle.responder_count * bundle.initiator_count
        )));
    }
    let mut rng_jt = DynStreamRng::new(algorithm, seed_jt);
    let max_cols = bundle
        .ccms
        .iter()
        .map(|c| c.initiator_len)
        .max()
        .unwrap_or(0);
    let offsets: Vec<u32> = (0..max_cols)
        .map(|_| (rng_jt.next_u64() % alphabet_size as u64) as u32)
        .collect();
    let mut distances = Vec::with_capacity(bundle.ccms.len());
    for masked in &bundle.ccms {
        if masked.cells.len() != masked.responder_len * masked.initiator_len {
            return Err(CoreError::Protocol(
                "masked CCM cell count does not match its dimensions".into(),
            ));
        }
        let row_offsets = &offsets[..masked.initiator_len];
        let mut mismatch = Vec::with_capacity(masked.cells.len());
        for row in masked.cells.chunks_exact(masked.initiator_len.max(1)) {
            for (&cell, &offset) in row.iter().zip(row_offsets) {
                mismatch.push(!masker.is_match(cell, offset));
            }
        }
        let ccm = CharacterComparisonMatrix::from_mismatches(
            masked.responder_len,
            masked.initiator_len,
            mismatch,
        )?;
        distances.push(edit_distance_dp(
            ccm.source_len(),
            ccm.target_len(),
            |i, j| ccm.substitution_cost(i, j),
        ));
    }
    PairwiseBlock::new(bundle.responder_count, bundle.initiator_count, distances)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::distance::edit_distance;
    use ppc_crypto::Seed;

    fn seeds() -> PairwiseSeeds {
        PairwiseSeeds::new(Seed::from_u64(11), Seed::from_u64(13))
    }

    fn run_protocol(
        alphabet: &Alphabet,
        j_strings: &[&str],
        k_strings: &[&str],
        algorithm: RngAlgorithm,
    ) -> PairwiseBlock<u32> {
        let seeds = seeds();
        let j_encoded: Vec<Vec<u32>> = j_strings
            .iter()
            .map(|s| alphabet.encode(s).unwrap())
            .collect();
        let k_encoded: Vec<Vec<u32>> = k_strings
            .iter()
            .map(|s| alphabet.encode(s).unwrap())
            .collect();
        let masked =
            initiator_mask_strings(&j_encoded, alphabet.size(), &seeds, algorithm).unwrap();
        let bundle = responder_build_bundle(&masked, &k_encoded, alphabet.size()).unwrap();
        third_party_edit_distances(
            &bundle,
            alphabet.size(),
            &seeds.holder_third_party,
            algorithm,
        )
        .unwrap()
    }

    #[test]
    fn figure7_example_recovers_correct_ccm_and_distance() {
        // S = "abc" at DH_J, T = "bd" at DH_K over alphabet {a,b,c,d}.
        let alphabet = Alphabet::abcd();
        let distances = run_protocol(&alphabet, &["abc"], &["bd"], RngAlgorithm::ChaCha20);
        assert_eq!(distances.values(), &[edit_distance("bd", "abc")]);
        assert_eq!(*distances.get(0, 0), 2);
    }

    #[test]
    fn protocol_matches_plaintext_edit_distance_for_dna_batches() {
        let alphabet = Alphabet::dna();
        let j = ["acgt", "gattaca", "tttt", ""];
        let k = ["acct", "gattaca", "a"];
        for algorithm in [RngAlgorithm::ChaCha20, RngAlgorithm::Xoshiro256PlusPlus] {
            let distances = run_protocol(&alphabet, &j, &k, algorithm);
            for (m, t) in k.iter().enumerate() {
                for (n, s) in j.iter().enumerate() {
                    assert_eq!(
                        *distances.get(m, n),
                        edit_distance(s, t),
                        "{s} vs {t} with {algorithm:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_pipeline_matches_scalar_oracles() {
        let alphabet = Alphabet::lowercase();
        let j = ["privacy", "preserving", "", "x", "clustering"];
        let k = ["pres", "clustered", ""];
        let j_encoded: Vec<Vec<u32>> = j.iter().map(|s| alphabet.encode(s).unwrap()).collect();
        let k_encoded: Vec<Vec<u32>> = k.iter().map(|s| alphabet.encode(s).unwrap()).collect();
        for algorithm in [RngAlgorithm::ChaCha20, RngAlgorithm::SplitMix64] {
            let seeds = seeds();
            let masked =
                initiator_mask_strings(&j_encoded, alphabet.size(), &seeds, algorithm).unwrap();
            assert_eq!(
                masked,
                initiator_mask_strings_scalar(&j_encoded, alphabet.size(), &seeds, algorithm)
                    .unwrap()
            );
            let bundle = responder_build_bundle(&masked, &k_encoded, alphabet.size()).unwrap();
            assert_eq!(
                bundle,
                responder_build_bundle_scalar(&masked, &k_encoded, alphabet.size()).unwrap()
            );
            let distances = third_party_edit_distances(
                &bundle,
                alphabet.size(),
                &seeds.holder_third_party,
                algorithm,
            )
            .unwrap();
            assert_eq!(
                distances,
                third_party_edit_distances_scalar(
                    &bundle,
                    alphabet.size(),
                    &seeds.holder_third_party,
                    algorithm,
                )
                .unwrap()
            );
        }
    }

    #[test]
    fn cached_offset_form_matches_fresh_derivation() {
        let alphabet = Alphabet::dna();
        let seeds = seeds();
        let algorithm = RngAlgorithm::ChaCha20;
        let encoded = vec![
            alphabet.encode("gattaca").unwrap(),
            alphabet.encode("acgt").unwrap(),
        ];
        // An over-long cached prefix serves any request at or below its
        // length.
        let offsets = offset_prefix(32, alphabet.size(), &seeds.holder_third_party, algorithm);
        let masked =
            initiator_mask_strings_with_offsets(&encoded, alphabet.size(), &offsets).unwrap();
        assert_eq!(
            masked,
            initiator_mask_strings(&encoded, alphabet.size(), &seeds, algorithm).unwrap()
        );
        let bundle = responder_build_bundle(
            &masked,
            &[alphabet.encode("catcat").unwrap()],
            alphabet.size(),
        )
        .unwrap();
        assert_eq!(
            third_party_edit_distances_with_offsets(&bundle, alphabet.size(), &offsets).unwrap(),
            third_party_edit_distances(
                &bundle,
                alphabet.size(),
                &seeds.holder_third_party,
                algorithm,
            )
            .unwrap()
        );
        // A prefix shorter than the longest string is rejected.
        assert!(
            initiator_mask_strings_with_offsets(&encoded, alphabet.size(), &offsets[..3]).is_err()
        );
        assert!(
            third_party_edit_distances_with_offsets(&bundle, alphabet.size(), &offsets[..3])
                .is_err()
        );
    }

    #[test]
    fn off_domain_cells_fall_back_to_scalar_semantics() {
        // Cells ≥ |A| can only come from a nonconforming peer; the kernelized
        // path must still agree with the scalar oracle on them.
        let seeds = seeds();
        let algorithm = RngAlgorithm::ChaCha20;
        let bundle = MaskedCcmBundle {
            responder_count: 1,
            initiator_count: 1,
            ccms: vec![MaskedCcm {
                responder_len: 2,
                initiator_len: 2,
                cells: vec![0, 9, 3, 2], // 9 ≥ |A| = 4
            }],
        };
        let fast =
            third_party_edit_distances(&bundle, 4, &seeds.holder_third_party, algorithm).unwrap();
        let slow =
            third_party_edit_distances_scalar(&bundle, 4, &seeds.holder_third_party, algorithm)
                .unwrap();
        assert_eq!(fast, slow);
        // Cells at the top of the 4-byte wire width unmask without overflow.
        let mut bundle = bundle;
        bundle.ccms[0].cells = vec![u32::MAX, u32::MAX - 1, 3, u32::MAX - 3];
        let fast =
            third_party_edit_distances(&bundle, 4, &seeds.holder_third_party, algorithm).unwrap();
        let slow =
            third_party_edit_distances_scalar(&bundle, 4, &seeds.holder_third_party, algorithm)
                .unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn masked_strings_stay_inside_the_alphabet_and_differ_from_plaintext() {
        let alphabet = Alphabet::lowercase();
        let strings = vec![alphabet.encode("confidential").unwrap()];
        let masked =
            initiator_mask_strings(&strings, alphabet.size(), &seeds(), RngAlgorithm::ChaCha20)
                .unwrap();
        assert_eq!(masked[0].len(), strings[0].len());
        assert!(masked[0].iter().all(|&c| c < alphabet.size()));
        // With 12 characters over a 26-letter alphabet the chance that the
        // masked string equals the plaintext is 26^-12; assert inequality.
        assert_ne!(masked[0], strings[0]);
    }

    #[test]
    fn bundle_dimensions_are_validated() {
        let seeds = seeds();
        let mut bundle = MaskedCcmBundle {
            responder_count: 2,
            initiator_count: 2,
            ccms: vec![],
        };
        assert!(third_party_edit_distances(
            &bundle,
            4,
            &seeds.holder_third_party,
            RngAlgorithm::ChaCha20
        )
        .is_err());
        bundle.ccms = vec![
            MaskedCcm {
                responder_len: 1,
                initiator_len: 1,
                cells: vec![0, 1]
            };
            4
        ];
        assert!(third_party_edit_distances(
            &bundle,
            4,
            &seeds.holder_third_party,
            RngAlgorithm::ChaCha20
        )
        .is_err());
    }

    #[test]
    fn empty_string_sets_are_handled() {
        let alphabet = Alphabet::dna();
        let distances = run_protocol(&alphabet, &[], &["acgt"], RngAlgorithm::ChaCha20);
        assert_eq!((distances.rows(), distances.cols()), (1, 0));
        let distances = run_protocol(&alphabet, &["acgt"], &[], RngAlgorithm::ChaCha20);
        assert_eq!((distances.rows(), distances.cols()), (0, 1));
        assert!(distances.is_empty());
    }

    #[test]
    fn different_seeds_produce_different_maskings_but_same_distances() {
        let alphabet = Alphabet::dna();
        let encoded = vec![alphabet.encode("acgtacgt").unwrap()];
        let s1 = PairwiseSeeds::new(Seed::from_u64(1), Seed::from_u64(2));
        let s2 = PairwiseSeeds::new(Seed::from_u64(3), Seed::from_u64(4));
        let m1 = initiator_mask_strings(&encoded, 4, &s1, RngAlgorithm::ChaCha20).unwrap();
        let m2 = initiator_mask_strings(&encoded, 4, &s2, RngAlgorithm::ChaCha20).unwrap();
        assert_ne!(m1, m2);
        for (seeds, masked) in [(s1, m1), (s2, m2)] {
            let bundle =
                responder_build_bundle(&masked, &[alphabet.encode("aggt").unwrap()], 4).unwrap();
            let d = third_party_edit_distances(
                &bundle,
                4,
                &seeds.holder_third_party,
                RngAlgorithm::ChaCha20,
            )
            .unwrap();
            assert_eq!(*d.get(0, 0), edit_distance("acgtacgt", "aggt"));
        }
    }

    /// A reproducible stream of test draws (SplitMix64).
    fn draws(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed;
        move |bound| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        }
    }

    #[test]
    fn kernel_path_matches_the_scalar_oracle_on_wide_and_off_domain_ccms() {
        let seeds = seeds();
        let algorithm = RngAlgorithm::ChaCha20;
        let dims = [0usize, 1, 5, 63, 64, 65, 128, 130];
        for (case, size) in [2u32, 4, 26, 300].into_iter().enumerate() {
            let mut next = draws(case as u64);
            let offsets = offset_prefix(130, size, &seeds.holder_third_party, algorithm);
            let ccms: Vec<MaskedCcm> = (0..24)
                .map(|_| {
                    let rows = dims[next(dims.len() as u64) as usize];
                    let cols = dims[next(dims.len() as u64) as usize];
                    // Cells that unmask to a match about half the time,
                    // the rest uniform; every other matrix also carries a
                    // few off-domain cells (congruent to a match or not).
                    let off_domain = next(2) == 0;
                    let cells = (0..rows * cols)
                        .map(|i| {
                            let offset = offsets[i % cols] % size;
                            match next(20) {
                                0..=9 => offset,
                                10 if off_domain => offset + size * (1 + next(3) as u32),
                                11 if off_domain => size + next(u64::from(size) * 4) as u32,
                                _ => next(u64::from(size)) as u32,
                            }
                        })
                        .collect();
                    MaskedCcm {
                        responder_len: rows,
                        initiator_len: cols,
                        cells,
                    }
                })
                .collect();
            let bundle = MaskedCcmBundle {
                responder_count: 4,
                initiator_count: 6,
                ccms,
            };
            let fast =
                third_party_edit_distances(&bundle, size, &seeds.holder_third_party, algorithm)
                    .unwrap();
            let slow = third_party_edit_distances_scalar(
                &bundle,
                size,
                &seeds.holder_third_party,
                algorithm,
            )
            .unwrap();
            assert_eq!(fast, slow, "alphabet of {size}");
        }
    }

    #[test]
    fn long_strings_run_the_whole_protocol_exactly() {
        let alphabet = Alphabet::dna();
        let strand = |len: usize, salt: usize| -> String {
            (0..len)
                .map(|i| ['a', 'c', 'g', 't'][(i * 31 + salt * 17 + i / 5) % 4])
                .collect()
        };
        let j: Vec<String> = [63, 64, 65, 129, 200]
            .iter()
            .enumerate()
            .map(|(salt, &len)| strand(len, salt))
            .collect();
        let k: Vec<String> = [1, 64, 128, 150]
            .iter()
            .enumerate()
            .map(|(salt, &len)| strand(len, salt + 3))
            .collect();
        let j_refs: Vec<&str> = j.iter().map(String::as_str).collect();
        let k_refs: Vec<&str> = k.iter().map(String::as_str).collect();
        let distances = run_protocol(&alphabet, &j_refs, &k_refs, RngAlgorithm::ChaCha20);
        for (m, t) in k.iter().enumerate() {
            for (n, s) in j.iter().enumerate() {
                assert_eq!(*distances.get(m, n), edit_distance(s, t), "{m} × {n}");
            }
        }
    }

    #[test]
    fn empty_ccms_need_no_offsets() {
        // A `0 × n` CCM carries no cells, so its width cannot size the
        // offset prefix; its distance is `n` all the same.
        let empty = |rows: usize, cols: usize| MaskedCcm {
            responder_len: rows,
            initiator_len: cols,
            cells: vec![],
        };
        let bundle = MaskedCcmBundle {
            responder_count: 1,
            initiator_count: 3,
            ccms: vec![
                empty(0, u32::MAX as usize),
                empty(7, 0),
                MaskedCcm {
                    responder_len: 1,
                    initiator_len: 2,
                    cells: vec![1, 2],
                },
            ],
        };
        assert_eq!(offsets_needed(&bundle.ccms), 2);
        let offsets = [1, 0];
        let distances = third_party_edit_distances_with_offsets(&bundle, 4, &offsets).unwrap();
        assert_eq!(distances.values(), &[u32::MAX, 7, 1]);
        assert!(third_party_edit_distances_with_offsets(&bundle, 4, &offsets[..1]).is_err());
    }
}
