//! Edit (Levenshtein) distance, over plaintext strings and over character
//! comparison matrices.
//!
//! Every production evaluation runs the bit-vector algorithm of Myers
//! (J. ACM 46(3), 1999) in Hyyrö's edit-distance form (2003):
//! [`edit_distance_bits`]. It keeps one column of the `(m+1) × (n+1)`
//! edit table as two bit vectors of vertical deltas (`+1` / `−1`) over the
//! pattern's `m` positions and advances the whole column per text symbol
//! with a handful of word operations. Its only input is, for each text
//! position, the *equality bitmask* over the pattern — bit `p` set when
//! pattern symbol `p` equals the text symbol. A row of a character
//! comparison matrix is exactly that mask, so the third party runs the
//! kernel straight off the unmasked CCM rows, and a data holder off a
//! per-symbol mask table of each pattern string.
//!
//! Patterns of at most 64 symbols fit one machine word and need no heap
//! allocation; longer ones (the paper's DNA sequences) run in 64-bit
//! blocks that pass their horizontal delta and addition carry upward.
//!
//! The classic two-row dynamic program ([`edit_distance_dp`]) is the
//! reference: the property tests below pin the kernel to it, and the
//! protocol's `*_scalar` oracles use it. No production path calls it.

use crate::ccm::CharacterComparisonMatrix;

/// Bits per block of the bit-parallel kernel.
const WORD: usize = 64;

/// Edit distance between two plaintext strings, compared by `char`.
pub fn edit_distance(source: &str, target: &str) -> u32 {
    let pattern: Vec<char> = target.chars().collect();
    let text: Vec<char> = source.chars().collect();
    edit_distance_bits(pattern.len(), text.len(), |j, words| {
        let t = text[j];
        for (p, &c) in pattern.iter().enumerate() {
            words[p / WORD] |= u64::from(c == t) << (p % WORD);
        }
    })
}

/// Edit distance computed from a character comparison matrix, the way the
/// third party does it in the alphanumeric protocol: the target string is
/// the pattern and every CCM row is one text position's match mask.
pub fn edit_distance_from_ccm(ccm: &CharacterComparisonMatrix) -> u32 {
    edit_distance_bits(ccm.target_len(), ccm.source_len(), |i, words| {
        for p in 0..ccm.target_len() {
            words[p / WORD] |= u64::from(!ccm.differs(i, p)) << (p % WORD);
        }
    })
}

/// The bit-parallel edit-distance kernel.
///
/// Returns the edit distance between a pattern of `pattern_len` symbols
/// and a text of `text_len` symbols. For each text position `j` (in order,
/// once each) the kernel calls `eq(j, words)` with `⌈pattern_len / 64⌉`
/// zeroed words; the caller sets bit `p % 64` of `words[p / 64]` exactly
/// when pattern symbol `p` equals text symbol `j`. Bits at or above
/// `pattern_len` must stay clear.
///
/// Exact for every length: the result equals [`edit_distance_dp`] over the
/// same equalities.
pub fn edit_distance_bits(
    pattern_len: usize,
    text_len: usize,
    mut eq: impl FnMut(usize, &mut [u64]),
) -> u32 {
    if pattern_len == 0 {
        return text_len as u32;
    }
    if pattern_len <= WORD {
        let high = 1u64 << (pattern_len - 1);
        let (mut pv, mut mv) = (u64::MAX, 0u64);
        let mut score = pattern_len as u32;
        let mut word = [0u64; 1];
        for j in 0..text_len {
            word[0] = 0;
            eq(j, &mut word);
            // Row 0 of the table grows by one per text symbol, so every
            // column enters with a horizontal delta of +1.
            let hout = advance_block(&mut pv, &mut mv, word[0], 1, high);
            score = score.wrapping_add_signed(hout);
        }
        return score;
    }
    let blocks = pattern_len.div_ceil(WORD);
    let last_high = 1u64 << ((pattern_len - 1) % WORD);
    let mut pv = vec![u64::MAX; blocks];
    let mut mv = vec![0u64; blocks];
    let mut words = vec![0u64; blocks];
    let mut score = pattern_len as u32;
    for j in 0..text_len {
        words.fill(0);
        eq(j, &mut words);
        let mut carry = 1i32;
        for b in 0..blocks {
            let high = if b + 1 == blocks { last_high } else { 1 << 63 };
            carry = advance_block(&mut pv[b], &mut mv[b], words[b], carry, high);
        }
        score = score.wrapping_add_signed(carry);
    }
    score
}

/// Advances one 64-row block of the edit table's column by one text
/// symbol. `hin ∈ {−1, 0, +1}` is the horizontal delta entering the
/// block's top row (from the block above, or row 0); the return value is
/// the delta leaving the row marked by `high`.
#[inline(always)]
fn advance_block(pv: &mut u64, mv: &mut u64, eq: u64, hin: i32, high: u64) -> i32 {
    let hin_neg = u64::from(hin < 0);
    let hin_pos = u64::from(hin > 0);
    let xv = eq | *mv;
    // A −1 entering the top acts like a match there for the carry chain.
    let eq = eq | hin_neg;
    let xh = (((eq & *pv).wrapping_add(*pv)) ^ *pv) | eq;
    let mut ph = *mv | !(xh | *pv);
    let mut mh = *pv & xh;
    let hout = i32::from(ph & high != 0) - i32::from(mh & high != 0);
    ph = (ph << 1) | hin_pos;
    mh = (mh << 1) | hin_neg;
    *pv = mh | !(xv | ph);
    *mv = ph & xv;
    hout
}

/// The reference dynamic program: fills the `(n+1) × (m+1)` table two rows
/// at a time, `cost(i, j)` being the substitution cost (0 or 1) of aligning
/// source position `i` with target position `j`.
///
/// Quadratic and allocation-per-call; kept as the oracle the bit-parallel
/// kernel is tested against.
pub fn edit_distance_dp<F: Fn(usize, usize) -> u32>(n: usize, m: usize, cost: F) -> u32 {
    if n == 0 {
        return m as u32;
    }
    if m == 0 {
        return n as u32;
    }
    let mut prev: Vec<u32> = (0..=m as u32).collect();
    let mut curr = vec![0u32; m + 1];
    for i in 1..=n {
        curr[0] = i as u32;
        for j in 1..=m {
            let substitution = prev[j - 1] + cost(i - 1, j - 1);
            let deletion = prev[j] + 1;
            let insertion = curr[j - 1] + 1;
            curr[j] = substitution.min(deletion).min(insertion);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference DP over two symbol sequences.
    fn dp<T: PartialEq>(s: &[T], t: &[T]) -> u32 {
        edit_distance_dp(s.len(), t.len(), |i, j| u32::from(s[i] != t[j]))
    }

    /// The kernel over two symbol sequences, `t` as the pattern.
    fn kernel<T: PartialEq>(s: &[T], t: &[T]) -> u32 {
        edit_distance_bits(t.len(), s.len(), |j, words| {
            for (p, c) in t.iter().enumerate() {
                words[p / WORD] |= u64::from(*c == s[j]) << (p % WORD);
            }
        })
    }

    /// The `i`-th symbol of a test alphabet: Latin letters first, then on
    /// into Latin-1 and Latin Extended-A (so `ï` and friends appear once
    /// the alphabet is wide enough).
    fn glyph(i: u32) -> char {
        char::from_u32(0x61 + i).expect("below the surrogate range")
    }

    /// Block boundaries and their neighbours, drawn half the time.
    const BOUNDARIES: [usize; 10] = [0, 1, 63, 64, 65, 127, 128, 129, 192, 200];

    /// A length in 0–200: `pick` below 10 selects a boundary, anything
    /// else takes `free`.
    fn length(pick: usize, free: usize) -> usize {
        BOUNDARIES.get(pick).copied().unwrap_or(free)
    }

    /// A string of `len` symbols over the first `size` glyphs.
    fn string_over(size: u32, raw: &[u32], len: usize) -> String {
        raw[..len].iter().map(|&r| glyph(r % size)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The kernel equals the DP for every pair, whichever side is the
        /// pattern, across alphabets of 2–300 symbols.
        #[test]
        fn kernel_equals_the_dp(
            size in 2u32..301,
            n_pick in 0usize..20,
            n_free in 0usize..201,
            m_pick in 0usize..20,
            m_free in 0usize..201,
            raw in prop::collection::vec(any::<u32>(), 400..401),
        ) {
            let s = string_over(size, &raw[..200], length(n_pick, n_free));
            let t = string_over(size, &raw[200..], length(m_pick, m_free));
            let (sc, tc): (Vec<char>, Vec<char>) = (s.chars().collect(), t.chars().collect());
            let expected = dp(&sc, &tc);
            prop_assert_eq!(kernel(&sc, &tc), expected);
            prop_assert_eq!(kernel(&tc, &sc), expected);
            prop_assert_eq!(edit_distance(&s, &t), expected);
            let ccm = CharacterComparisonMatrix::from_strings(&s, &t);
            prop_assert_eq!(edit_distance_from_ccm(&ccm), expected);
        }

        /// A long string against a lightly edited copy of itself: small
        /// distances across block boundaries, where a lost carry shows.
        #[test]
        fn near_copies_across_blocks(
            raw in prop::collection::vec(0u32..4, 200..201),
            edits in prop::collection::vec(any::<u32>(), 0..6),
        ) {
            let base: Vec<char> = raw.iter().map(|&r| glyph(r)).collect();
            let mut copy = base.clone();
            for edit in edits {
                let at = (edit as usize >> 4) % (copy.len() + 1);
                let symbol = glyph(edit & 3);
                match (edit >> 2) & 3 {
                    0 => copy.insert(at, symbol),
                    1 if at < copy.len() => {
                        copy.remove(at);
                    }
                    _ if at < copy.len() => copy[at] = symbol,
                    _ => copy.push(symbol),
                }
            }
            prop_assert_eq!(kernel(&base, &copy), dp(&base, &copy));
            prop_assert_eq!(kernel(&copy, &base), dp(&base, &copy));
        }
    }

    #[test]
    fn every_boundary_length_pair_matches_the_dp() {
        let lengths = [0usize, 1, 2, 63, 64, 65, 127, 128, 129, 200];
        for &n in &lengths {
            for &m in &lengths {
                // Two unrelated sequences over a small alphabet, and a
                // sequence against its own prefix.
                let s: Vec<u32> = (0..n as u32).map(|i| (i * 7 + 3) % 5).collect();
                let t: Vec<u32> = (0..m as u32).map(|i| (i * 11 + 1) % 5).collect();
                assert_eq!(kernel(&s, &t), dp(&s, &t), "{n} × {m}");
                let prefix = &s[..n.min(m)];
                assert_eq!(kernel(&s, prefix), (n - prefix.len()) as u32, "{n} prefix");
                assert_eq!(kernel(prefix, &s), (n - prefix.len()) as u32, "{n} prefix");
            }
        }
    }

    #[test]
    fn classic_examples() {
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("flaw", "lawn"), 2);
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("gattaca", "gtacca"), 3);
    }

    #[test]
    fn symmetry_and_bounds() {
        let pairs = [("abcdef", "azced"), ("acgt", "tgca"), ("aaaa", "aa")];
        for (a, b) in pairs {
            let d = edit_distance(a, b);
            assert_eq!(d, edit_distance(b, a));
            assert!(d as usize <= a.chars().count().max(b.chars().count()));
            assert!(d as usize >= a.chars().count().abs_diff(b.chars().count()));
        }
    }

    #[test]
    fn ccm_variant_agrees_with_plaintext_variant() {
        let pairs = [
            ("abc", "bd"),
            ("kitten", "sitting"),
            ("gattaca", "gtacca"),
            ("", "xyz"),
            ("same", "same"),
            ("aaaaabbbbb", "bbbbbaaaaa"),
        ];
        for (s, t) in pairs {
            let ccm = CharacterComparisonMatrix::from_strings(s, t);
            assert_eq!(
                edit_distance_from_ccm(&ccm),
                edit_distance(s, t),
                "{s} vs {t}"
            );
        }
    }

    #[test]
    fn triangle_inequality_on_samples() {
        let words = ["acgt", "aggt", "tgca", "ac", "acgtacgt", ""];
        for a in words {
            for b in words {
                for c in words {
                    let ab = edit_distance(a, b);
                    let bc = edit_distance(b, c);
                    let ac = edit_distance(a, c);
                    assert!(ac <= ab + bc, "triangle violated for {a} {b} {c}");
                }
            }
        }
    }

    #[test]
    fn unicode_strings_are_compared_by_chars() {
        assert_eq!(edit_distance("naïve", "naive"), 1);
        assert_eq!(edit_distance("çava", "cava"), 1);
        let long_naive = "naïve".repeat(30);
        let long_plain = "naive".repeat(30);
        assert_eq!(edit_distance(&long_naive, &long_plain), 30);
        let (a, b): (Vec<char>, Vec<char>) =
            (long_naive.chars().collect(), long_plain.chars().collect());
        assert_eq!(dp(&a, &b), 30);
    }
}
