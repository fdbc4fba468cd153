//! Comparison functions for the three attribute types (§2.3).
//!
//! These are the *public* comparison functions every party (including the
//! third party) knows; the protocols in [`crate::protocol`] compute exactly
//! these distances without revealing the compared values.

pub mod edit;

pub use edit::{edit_distance, edit_distance_bits, edit_distance_dp, edit_distance_from_ccm};

use crate::error::CoreError;
use crate::schema::AttributeDescriptor;
use crate::value::{AttributeKind, AttributeValue};

/// Distance between two numeric values: `|x − y|`.
pub fn numeric_distance(x: f64, y: f64) -> f64 {
    (x - y).abs()
}

/// Distance between two categorical values: 0 if equal, 1 otherwise.
pub fn categorical_distance(a: &str, b: &str) -> f64 {
    if a == b {
        0.0
    } else {
        1.0
    }
}

/// Distance between two alphanumeric values: the edit distance.
pub fn alphanumeric_distance(a: &str, b: &str) -> f64 {
    edit_distance(a, b) as f64
}

/// Distance between two values of the same attribute, dispatching on the
/// attribute's declared kind.
pub fn attribute_distance(
    descriptor: &AttributeDescriptor,
    a: &AttributeValue,
    b: &AttributeValue,
) -> Result<f64, CoreError> {
    descriptor.validate_value(a)?;
    descriptor.validate_value(b)?;
    Ok(match descriptor.kind {
        AttributeKind::Numeric => numeric_distance(
            a.as_numeric().expect("validated"),
            b.as_numeric().expect("validated"),
        ),
        AttributeKind::Categorical => categorical_distance(
            a.as_categorical().expect("validated"),
            b.as_categorical().expect("validated"),
        ),
        AttributeKind::Alphanumeric => alphanumeric_distance(
            a.as_alphanumeric().expect("validated"),
            b.as_alphanumeric().expect("validated"),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;

    #[test]
    fn numeric_distance_is_absolute_difference() {
        assert_eq!(numeric_distance(3.0, 8.0), 5.0);
        assert_eq!(numeric_distance(8.0, 3.0), 5.0);
        assert_eq!(numeric_distance(-2.5, 2.5), 5.0);
        assert_eq!(numeric_distance(7.0, 7.0), 0.0);
    }

    #[test]
    fn categorical_distance_is_equality_indicator() {
        assert_eq!(categorical_distance("A", "A"), 0.0);
        assert_eq!(categorical_distance("A", "B"), 1.0);
        assert_eq!(categorical_distance("", ""), 0.0);
    }

    #[test]
    fn alphanumeric_distance_is_edit_distance() {
        assert_eq!(alphanumeric_distance("kitten", "sitting"), 3.0);
        assert_eq!(alphanumeric_distance("acgt", "acgt"), 0.0);
    }

    #[test]
    fn attribute_distance_dispatches_and_validates() {
        let num = AttributeDescriptor::numeric("age");
        let cat = AttributeDescriptor::categorical("blood");
        let dna = AttributeDescriptor::alphanumeric("dna", Alphabet::dna());
        assert_eq!(
            attribute_distance(
                &num,
                &AttributeValue::numeric(3.0),
                &AttributeValue::numeric(8.0)
            )
            .unwrap(),
            5.0
        );
        assert_eq!(
            attribute_distance(
                &cat,
                &AttributeValue::categorical("A"),
                &AttributeValue::categorical("B")
            )
            .unwrap(),
            1.0
        );
        assert_eq!(
            attribute_distance(
                &dna,
                &AttributeValue::alphanumeric("acgt"),
                &AttributeValue::alphanumeric("aggt")
            )
            .unwrap(),
            1.0
        );
        assert!(attribute_distance(
            &num,
            &AttributeValue::categorical("oops"),
            &AttributeValue::numeric(1.0)
        )
        .is_err());
        assert!(attribute_distance(
            &dna,
            &AttributeValue::alphanumeric("zz"),
            &AttributeValue::alphanumeric("aa")
        )
        .is_err());
    }

    #[test]
    fn distances_are_symmetric_and_non_negative() {
        let pairs = [("abc", "cab"), ("", "xyz"), ("same", "same")];
        for (a, b) in pairs {
            assert_eq!(alphanumeric_distance(a, b), alphanumeric_distance(b, a));
            assert!(alphanumeric_distance(a, b) >= 0.0);
        }
        assert_eq!(numeric_distance(1.0, 9.0), numeric_distance(9.0, 1.0));
    }
}
