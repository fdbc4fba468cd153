//! Character comparison matrices (§2.3).
//!
//! A CCM for source string `s` and target string `t` is an
//! `s.len() × t.len()` boolean matrix whose entry `[i][j]` is 0 when
//! `s[i] == t[j]` and non-zero otherwise. The paper's observation is that a
//! CCM is "equally expressive" input to the edit-distance computation as
//! the strings themselves — which is exactly what lets the third party
//! compute edit distances without ever seeing either string. Each CCM row,
//! read as the set of target positions that match, is one text position's
//! equality bitmask for the bit-parallel kernel in
//! [`distance::edit`](crate::distance::edit); the reference dynamic program
//! reads the same entries as substitution costs.

use serde::{Deserialize, Serialize};

use crate::error::CoreError;

/// A character comparison matrix: `true` means the characters differ.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CharacterComparisonMatrix {
    source_len: usize,
    target_len: usize,
    /// Row-major `source_len × target_len`; `true` = mismatch.
    mismatch: Vec<bool>,
}

impl CharacterComparisonMatrix {
    /// Builds a CCM directly from two strings (the non-private path used by
    /// local computations and tests).
    pub fn from_strings(source: &str, target: &str) -> Self {
        let s: Vec<char> = source.chars().collect();
        let t: Vec<char> = target.chars().collect();
        let mut mismatch = Vec::with_capacity(s.len() * t.len());
        for &sc in &s {
            for &tc in &t {
                mismatch.push(sc != tc);
            }
        }
        CharacterComparisonMatrix {
            source_len: s.len(),
            target_len: t.len(),
            mismatch,
        }
    }

    /// Builds a CCM from a row-major mismatch bitmap.
    pub fn from_mismatches(
        source_len: usize,
        target_len: usize,
        mismatch: Vec<bool>,
    ) -> Result<Self, CoreError> {
        if mismatch.len() != source_len * target_len {
            return Err(CoreError::Protocol(format!(
                "CCM bitmap has {} entries, expected {}",
                mismatch.len(),
                source_len * target_len
            )));
        }
        Ok(CharacterComparisonMatrix {
            source_len,
            target_len,
            mismatch,
        })
    }

    /// Length of the source string.
    pub fn source_len(&self) -> usize {
        self.source_len
    }

    /// Length of the target string.
    pub fn target_len(&self) -> usize {
        self.target_len
    }

    /// Whether `source[i]` differs from `target[j]`.
    pub fn differs(&self, i: usize, j: usize) -> bool {
        self.mismatch[i * self.target_len + j]
    }

    /// Substitution cost for the reference edit-distance dynamic program
    /// (0 or 1).
    pub fn substitution_cost(&self, i: usize, j: usize) -> u32 {
        u32::from(self.differs(i, j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_strings_marks_equal_positions() {
        let ccm = CharacterComparisonMatrix::from_strings("abc", "bd");
        assert_eq!(ccm.source_len(), 3);
        assert_eq!(ccm.target_len(), 2);
        // s[1] = 'b' equals t[0] = 'b' — the pair highlighted in Figure 7.
        assert!(!ccm.differs(1, 0));
        assert!(ccm.differs(0, 0));
        assert!(ccm.differs(2, 1));
        assert_eq!(ccm.substitution_cost(1, 0), 0);
        assert_eq!(ccm.substitution_cost(0, 1), 1);
    }

    #[test]
    fn from_mismatches_validates_dimensions() {
        assert!(CharacterComparisonMatrix::from_mismatches(2, 2, vec![true; 3]).is_err());
        let ccm = CharacterComparisonMatrix::from_mismatches(2, 2, vec![false, true, true, false])
            .unwrap();
        assert!(!ccm.differs(0, 0));
        assert!(ccm.differs(0, 1));
        assert!(!ccm.differs(1, 1));
    }

    #[test]
    fn empty_strings_produce_empty_ccm() {
        let ccm = CharacterComparisonMatrix::from_strings("", "abc");
        assert_eq!(ccm.source_len(), 0);
        assert_eq!(ccm.target_len(), 3);
        let ccm = CharacterComparisonMatrix::from_strings("", "");
        assert_eq!(ccm.source_len(), 0);
        assert_eq!(ccm.target_len(), 0);
    }

    #[test]
    fn matches_plaintext_equality_for_all_pairs() {
        let source = "gattaca";
        let target = "gtacca";
        let ccm = CharacterComparisonMatrix::from_strings(source, target);
        let s: Vec<char> = source.chars().collect();
        let t: Vec<char> = target.chars().collect();
        for (i, &sc) in s.iter().enumerate() {
            for (j, &tc) in t.iter().enumerate() {
                assert_eq!(ccm.differs(i, j), sc != tc);
            }
        }
    }
}
