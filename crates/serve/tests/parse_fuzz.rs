//! Property tests: the request-line parser never panics, and every line
//! it rejects carries a typed error kind of the `parse` cause.

use oftec_serve::error_cause;
use oftec_serve::protocol::parse_line;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// One valid line per solve command, with every optional field set.
const VALID: [&str; 3] = [
    r#"{"cmd":"steady","id":7,"benchmark":"qsort","scale":1.1,"rpm":3000,"amps":1.5,"no_cache":true,"deadline_ms":50}"#,
    r#"{"cmd":"sweep","id":8,"benchmark":"FFT","omega_points":4,"current_points":5}"#,
    r#"{"cmd":"optimize","id":9,"benchmark":"CRC32","scale":1.2}"#,
];

fn check(line: &str) -> Result<(), TestCaseError> {
    if let Err((_, err)) = parse_line(line) {
        prop_assert_eq!(
            error_cause(err.kind),
            "parse",
            "`{}` rejected with kind {}",
            line,
            err.kind
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_never_panics(bytes in prop::collection::vec(0u8..=255u8, 0usize..256)) {
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn truncated_valid_lines_never_panic(
        line in prop::sample::select(VALID.to_vec()),
        cut in 0usize..256,
    ) {
        check(&line[..cut % (line.len() + 1)])?;
    }

    #[test]
    fn mutated_valid_lines_never_panic(
        line in prop::sample::select(VALID.to_vec()),
        at in 0usize..256,
        byte in 0u8..=255u8,
    ) {
        let mut bytes = line.as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] = byte;
        check(&String::from_utf8_lossy(&bytes))?;
    }
}
