//! Reader/writer for the HotSpot `.flp` text format.
//!
//! Each non-comment line is `<name> <width> <height> <left-x> <bottom-y>`
//! with lengths in meters, matching HotSpot's floorplan files so existing
//! floorplans can be dropped in.

use crate::{Floorplan, FunctionalUnit, Rect};
use oftec_units::Length;

/// Errors from [`parse_flp`].
#[derive(Debug, Clone, PartialEq)]
pub enum FlpParseError {
    /// A line did not have exactly five whitespace-separated fields; holds
    /// the 1-based line number.
    MalformedLine(usize),
    /// A numeric field failed to parse or is not a finite, non-negative
    /// length; holds the 1-based line number and the offending token.
    BadNumber(usize, String),
    /// The file contained no units.
    NoUnits,
}

impl core::fmt::Display for FlpParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::MalformedLine(n) => write!(f, "line {n}: expected `name w h x y`"),
            Self::BadNumber(n, tok) => write!(f, "line {n}: cannot parse number `{tok}`"),
            Self::NoUnits => write!(f, "floorplan file contains no units"),
        }
    }
}

impl std::error::Error for FlpParseError {}

/// Parses HotSpot `.flp` text into a [`Floorplan`].
///
/// The die outline is taken as the bounding box of all units. Lines that
/// are empty or start with `#` are skipped.
///
/// # Errors
///
/// Returns an [`FlpParseError`] describing the first malformed line, or
/// [`FlpParseError::NoUnits`] for an empty file. The result is *not*
/// validated — call [`Floorplan::validate`] on it if the file is untrusted.
///
/// # Examples
///
/// ```
/// let text = "# toy plan\ncore 1e-3 1e-3 0 0\ncache 1e-3 1e-3 1e-3 0\n";
/// let fp = oftec_floorplan::parse_flp("toy", text)?;
/// assert_eq!(fp.units().len(), 2);
/// assert!(fp.validate().is_ok());
/// # Ok::<(), oftec_floorplan::FlpParseError>(())
/// ```
pub fn parse_flp(name: &str, text: &str) -> Result<Floorplan, FlpParseError> {
    let mut units = Vec::new();
    let mut max_x = 0.0_f64;
    let mut max_y = 0.0_f64;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 5 {
            return Err(FlpParseError::MalformedLine(lineno + 1));
        }
        // Every field is a length from the die origin: finite and
        // non-negative (`Rect` asserts it, so an untrusted file must be
        // rejected here rather than panic there).
        let parse = |tok: &str| -> Result<f64, FlpParseError> {
            tok.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| FlpParseError::BadNumber(lineno + 1, tok.to_owned()))
        };
        let w = parse(fields[1])?;
        let h = parse(fields[2])?;
        let x = parse(fields[3])?;
        let y = parse(fields[4])?;
        max_x = max_x.max(x + w);
        max_y = max_y.max(y + h);
        units.push(FunctionalUnit::new(
            fields[0],
            Rect::from_meters(x, y, w, h),
        ));
    }
    if units.is_empty() {
        return Err(FlpParseError::NoUnits);
    }
    Ok(Floorplan::new(
        name,
        Length::from_meters(max_x),
        Length::from_meters(max_y),
        units,
    ))
}

/// Serializes a [`Floorplan`] to HotSpot `.flp` text (round-trips through
/// [`parse_flp`]).
pub fn write_flp(fp: &Floorplan) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# {} ({} x {} mm)\n# name\twidth\theight\tleft-x\tbottom-y (meters)\n",
        fp.name(),
        fp.width().millimeters(),
        fp.height().millimeters()
    ));
    for u in fp.units() {
        let r = u.rect();
        out.push_str(&format!(
            "{}\t{:e}\t{:e}\t{:e}\t{:e}\n",
            u.name(),
            r.width().meters(),
            r.height().meters(),
            r.x().meters(),
            r.y().meters()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha21264;

    #[test]
    fn parses_simple_file() {
        let text = "a 2e-3 1e-3 0 0\nb 2e-3 1e-3 0 1e-3\n";
        let fp = parse_flp("t", text).unwrap();
        assert_eq!(fp.units().len(), 2);
        assert!((fp.width().millimeters() - 2.0).abs() < 1e-9);
        assert!((fp.height().millimeters() - 2.0).abs() < 1e-9);
        fp.validate().unwrap();
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "# comment\n\n  \na 1e-3 1e-3 0 0\n";
        assert_eq!(parse_flp("t", text).unwrap().units().len(), 1);
    }

    #[test]
    fn malformed_line_reported_with_number() {
        let text = "a 1e-3 1e-3 0 0\nbroken 1 2 3\n";
        assert_eq!(
            parse_flp("t", text).unwrap_err(),
            FlpParseError::MalformedLine(2)
        );
    }

    #[test]
    fn bad_number_reported() {
        for (text, tok) in [
            ("a 1e-3 oops 0 0\n", "oops"),
            // Parseable but not a length: rejected, not a `Rect` panic.
            ("u -1 1 0 0\n", "-1"),
            ("u NaN 1 0 0\n", "NaN"),
            ("u 1 1 inf 0\n", "inf"),
        ] {
            assert_eq!(
                parse_flp("t", text).unwrap_err(),
                FlpParseError::BadNumber(1, tok.into()),
                "{text:?}"
            );
        }
    }

    #[test]
    fn empty_file_rejected() {
        assert_eq!(
            parse_flp("t", "# nothing\n").unwrap_err(),
            FlpParseError::NoUnits
        );
    }

    #[test]
    fn alpha_round_trips() {
        let fp = alpha21264();
        let text = write_flp(&fp);
        let back = parse_flp("alpha21264", &text).unwrap();
        assert_eq!(back.units().len(), fp.units().len());
        back.validate().unwrap();
        for (a, b) in fp.units().iter().zip(back.units()) {
            assert_eq!(a.name(), b.name());
            assert!(
                (a.rect().area().square_meters() - b.rect().area().square_meters()).abs() < 1e-18
            );
        }
    }
}
