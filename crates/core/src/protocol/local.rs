//! Local dissimilarity matrix construction (Figure 12).
//!
//! Each data holder compares its own objects in the clear — the third party
//! never needs to intervene for intra-site pairs — and ships the resulting
//! local matrix to the third party. Publishing a local dissimilarity matrix
//! leaks no private values (the paper cites the proof of \[3\]: given only the
//! distance between two secret points there are infinitely many candidate
//! pairs).

use ppc_cluster::CondensedDistanceMatrix;

use crate::distance::{
    alphanumeric_distance, categorical_distance, edit_distance_bits, numeric_distance,
};
use crate::error::CoreError;
use crate::matrix::DataMatrix;
use crate::schema::AttributeDescriptor;
use crate::value::{AttributeKind, AttributeValue};

/// Builds the local dissimilarity matrix of one attribute column
/// (Figure 12: `d[m][n] = distance(D_J[m], D_J[n])` for `n ≤ m`).
///
/// Equal to evaluating [`attribute_distance`](crate::distance::attribute_distance)
/// on every pair, first error included, but each value is validated and
/// converted once per column rather than twice per pair, and alphanumeric
/// columns run the bit-parallel edit-distance kernel off one per-symbol
/// equality mask table per pattern string.
pub fn local_dissimilarity_column(
    descriptor: &AttributeDescriptor,
    column: &[&AttributeValue],
) -> Result<CondensedDistanceMatrix, CoreError> {
    let n = column.len();
    if n < 2 {
        // No pair, so nothing is compared or validated.
        return Ok(CondensedDistanceMatrix::zeros(n));
    }
    // The per-pair evaluation validates pair (1, 0) first, then each row
    // `i` before its columns: values 1, 0, 2, 3, … raise in that order.
    for value in [column[1], column[0]]
        .into_iter()
        .chain(column[2..].iter().copied())
    {
        descriptor.validate_value(value)?;
    }
    let mut condensed = Vec::with_capacity(n * (n - 1) / 2);
    match (descriptor.kind, &descriptor.alphabet) {
        (AttributeKind::Numeric, _) => {
            let xs: Vec<f64> = column
                .iter()
                .map(|v| v.as_numeric().expect("validated"))
                .collect();
            pairwise(&xs, |&x, &y| numeric_distance(x, y), &mut condensed);
        }
        (AttributeKind::Categorical, _) => {
            let labels: Vec<&str> = column
                .iter()
                .map(|v| v.as_categorical().expect("validated"))
                .collect();
            pairwise(&labels, |a, b| categorical_distance(a, b), &mut condensed);
        }
        (AttributeKind::Alphanumeric, Some(alphabet)) => {
            let strings = column
                .iter()
                .map(|v| alphabet.encode(v.as_alphanumeric().expect("validated")))
                .collect::<Result<Vec<_>, _>>()?;
            edit_distances_condensed(&strings, alphabet.size() as usize, &mut condensed);
        }
        // A descriptor built without an alphabet (a schema always declares
        // one) compares its strings `char` by `char`.
        (AttributeKind::Alphanumeric, None) => {
            let texts: Vec<&str> = column
                .iter()
                .map(|v| v.as_alphanumeric().expect("validated"))
                .collect();
            pairwise(&texts, |a, b| alphanumeric_distance(a, b), &mut condensed);
        }
    }
    Ok(CondensedDistanceMatrix::from_condensed(n, condensed)?)
}

/// Appends `distance(xs[i], xs[j])` for every pair `j < i`, in condensed
/// order.
fn pairwise<T>(xs: &[T], distance: impl Fn(&T, &T) -> f64, out: &mut Vec<f64>) {
    for (i, a) in xs.iter().enumerate() {
        out.extend(xs[..i].iter().map(|b| distance(a, b)));
    }
}

/// Appends the edit distance of every pair `j < i` of `strings` (symbols
/// in `0..symbols`) in condensed order. String `i` is the pattern for its
/// row: its per-symbol equality masks are set once, serve every text
/// `j < i`, and are cleared again by the same positions.
fn edit_distances_condensed(strings: &[Vec<u32>], symbols: usize, out: &mut Vec<f64>) {
    let max_words = strings
        .iter()
        .map(|s| s.len().div_ceil(64))
        .max()
        .unwrap_or(0);
    let mut table = vec![0u64; symbols * max_words];
    for (i, pattern) in strings.iter().enumerate() {
        let words = pattern.len().div_ceil(64);
        for (p, &c) in pattern.iter().enumerate() {
            table[c as usize * words + p / 64] |= 1 << (p % 64);
        }
        out.extend(strings[..i].iter().map(|text| {
            let d = edit_distance_bits(pattern.len(), text.len(), |j, eq| {
                let at = text[j] as usize * words;
                eq.copy_from_slice(&table[at..at + words]);
            });
            f64::from(d)
        }));
        for &c in pattern {
            let at = c as usize * words;
            table[at..at + words].fill(0);
        }
    }
}

/// Builds the local dissimilarity matrix of attribute `attribute_index` of a
/// whole partition.
pub fn local_dissimilarity(
    data: &DataMatrix,
    attribute_index: usize,
) -> Result<CondensedDistanceMatrix, CoreError> {
    let descriptor = data.schema().attribute_at(attribute_index)?.clone();
    let column = data.column(attribute_index)?;
    local_dissimilarity_column(&descriptor, &column)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::distance::attribute_distance;
    use crate::record::Record;
    use crate::schema::Schema;

    fn sample_matrix() -> DataMatrix {
        let schema = Schema::new(vec![
            AttributeDescriptor::numeric("age"),
            AttributeDescriptor::categorical("blood"),
            AttributeDescriptor::alphanumeric("dna", Alphabet::dna()),
        ])
        .unwrap();
        DataMatrix::with_rows(
            schema,
            vec![
                Record::new(vec![
                    AttributeValue::numeric(30.0),
                    AttributeValue::categorical("A"),
                    AttributeValue::alphanumeric("acgt"),
                ]),
                Record::new(vec![
                    AttributeValue::numeric(40.0),
                    AttributeValue::categorical("B"),
                    AttributeValue::alphanumeric("aggt"),
                ]),
                Record::new(vec![
                    AttributeValue::numeric(35.0),
                    AttributeValue::categorical("A"),
                    AttributeValue::alphanumeric("tttt"),
                ]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn numeric_local_matrix_matches_absolute_differences() {
        let m = local_dissimilarity(&sample_matrix(), 0).unwrap();
        assert_eq!(m.get(1, 0), 10.0);
        assert_eq!(m.get(2, 0), 5.0);
        assert_eq!(m.get(2, 1), 5.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn categorical_local_matrix_is_equality_pattern() {
        let m = local_dissimilarity(&sample_matrix(), 1).unwrap();
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(2, 0), 0.0);
        assert_eq!(m.get(2, 1), 1.0);
    }

    #[test]
    fn alphanumeric_local_matrix_is_edit_distance() {
        let m = local_dissimilarity(&sample_matrix(), 2).unwrap();
        assert_eq!(m.get(1, 0), 1.0); // acgt vs aggt
        assert_eq!(m.get(2, 0), 3.0); // acgt vs tttt
        assert_eq!(m.get(2, 1), 3.0); // aggt vs tttt
    }

    #[test]
    fn invalid_attribute_index_errors() {
        assert!(local_dissimilarity(&sample_matrix(), 9).is_err());
    }

    #[test]
    fn empty_partition_yields_empty_matrix() {
        let schema = Schema::new(vec![AttributeDescriptor::numeric("x")]).unwrap();
        let data = DataMatrix::new(schema);
        let m = local_dissimilarity(&data, 0).unwrap();
        assert_eq!(m.len(), 0);
    }

    /// The per-pair reference: `attribute_distance` on every pair, in the
    /// condensed order, stopping at the first error.
    fn per_pair(
        descriptor: &AttributeDescriptor,
        column: &[&AttributeValue],
    ) -> Result<Vec<f64>, CoreError> {
        let mut out = Vec::new();
        for i in 1..column.len() {
            for j in 0..i {
                out.push(attribute_distance(descriptor, column[i], column[j])?);
            }
        }
        Ok(out)
    }

    fn assert_matches_per_pair(descriptor: &AttributeDescriptor, values: &[AttributeValue]) {
        let column: Vec<&AttributeValue> = values.iter().collect();
        let got =
            local_dissimilarity_column(descriptor, &column).map(|m| m.condensed_values().to_vec());
        assert_eq!(got, per_pair(descriptor, &column), "{}", descriptor.name);
    }

    /// A deterministic DNA string of `len` symbols.
    fn dna_string(len: usize, salt: usize) -> String {
        (0..len)
            .map(|i| ['a', 'c', 'g', 't'][(i * i + salt * 7 + i / 3) % 4])
            .collect()
    }

    #[test]
    fn every_kind_equals_the_per_pair_distances() {
        let numeric: Vec<AttributeValue> = [3.5, -1.0, 8.25, 3.5, 0.0]
            .into_iter()
            .map(AttributeValue::numeric)
            .collect();
        assert_matches_per_pair(&AttributeDescriptor::numeric("x"), &numeric);
        let labels: Vec<AttributeValue> = ["A", "B", "A", "", "AB"]
            .into_iter()
            .map(AttributeValue::categorical)
            .collect();
        assert_matches_per_pair(&AttributeDescriptor::categorical("blood"), &labels);
        // Lengths on both sides of the 64-symbol block boundary.
        let dna: Vec<AttributeValue> = [0, 1, 5, 63, 64, 65, 128, 129, 200, 64]
            .into_iter()
            .enumerate()
            .map(|(salt, len)| AttributeValue::alphanumeric(dna_string(len, salt)))
            .collect();
        assert_matches_per_pair(
            &AttributeDescriptor::alphanumeric("dna", Alphabet::dna()),
            &dna,
        );
        // Multi-byte plaintext over a declared alphabet, and a descriptor
        // without one (the column's own characters are the symbols).
        let words: Vec<AttributeValue> = ["naïve", "naive", "ïïï", "", "vien"]
            .into_iter()
            .map(AttributeValue::alphanumeric)
            .collect();
        let accented = Alphabet::new(['n', 'a', 'ï', 'v', 'e', 'i']).unwrap();
        assert_matches_per_pair(&AttributeDescriptor::alphanumeric("word", accented), &words);
        let mut free = AttributeDescriptor::alphanumeric("free", Alphabet::dna());
        free.alphabet = None;
        assert_matches_per_pair(&free, &words);
    }

    #[test]
    fn zero_and_one_values_compare_nothing() {
        let dna = AttributeDescriptor::alphanumeric("dna", Alphabet::dna());
        assert_eq!(local_dissimilarity_column(&dna, &[]).unwrap().len(), 0);
        // A lone value is never compared, so it is never validated either.
        let lone = AttributeValue::alphanumeric("xyz");
        assert_eq!(local_dissimilarity_column(&dna, &[&lone]).unwrap().len(), 1);
        assert_matches_per_pair(&dna, &[lone]);
    }

    #[test]
    fn the_first_error_is_the_per_pair_first_error() {
        let dna = AttributeDescriptor::alphanumeric("dna", Alphabet::dna());
        let ok = |s: &str| AttributeValue::alphanumeric(s);
        let cases = [
            vec![ok("acgt"), ok("xa")],
            vec![ok("ax"), ok("acgt")],
            vec![ok("zz"), ok("yy"), ok("acgt")],
            vec![ok("acgt"), ok("ac"), ok("gq"), ok("pp")],
            vec![ok("acgt"), ok("ac"), AttributeValue::numeric(1.0), ok("qq")],
        ];
        for values in cases {
            let column: Vec<&AttributeValue> = values.iter().collect();
            let err = local_dissimilarity_column(&dna, &column).unwrap_err();
            assert_eq!(Err(err), per_pair(&dna, &column));
        }
        let num = AttributeDescriptor::numeric("x");
        let values = [
            AttributeValue::numeric(1.0),
            AttributeValue::numeric(2.0),
            AttributeValue::categorical("oops"),
        ];
        let column: Vec<&AttributeValue> = values.iter().collect();
        assert!(local_dissimilarity_column(&num, &column).is_err());
        assert_matches_per_pair(&num, &values);
    }
}
