//! Property tests: random guillotine floorplans always validate, grid
//! rasterization conserves power at any resolution, and the `.flp` parser
//! never panics on untrusted text.

use oftec_floorplan::{
    alpha21264, parse_flp, write_flp, Floorplan, FunctionalUnit, GridDims, GridMap, Rect,
};
use oftec_units::Length;
use proptest::prelude::*;

/// Builds a random guillotine partition of the unit die: repeatedly split
/// the widest remaining rectangle at a random ratio. Always a valid tiling.
fn guillotine(splits: Vec<f64>) -> Floorplan {
    let mut rects = vec![(0.0, 0.0, 1.0e-2, 1.0e-2)];
    for (i, &ratio) in splits.iter().enumerate() {
        // Pick the largest rect to split.
        let (idx, _) = rects
            .iter()
            .enumerate()
            .max_by(|a, b| {
                let area = |r: &(f64, f64, f64, f64)| r.2 * r.3;
                area(a.1).partial_cmp(&area(b.1)).unwrap()
            })
            .unwrap();
        let (x, y, w, h) = rects.swap_remove(idx);
        if (i % 2 == 0 && w >= h) || (i % 2 != 0 && w > h) {
            let cut = w * ratio;
            rects.push((x, y, cut, h));
            rects.push((x + cut, y, w - cut, h));
        } else {
            let cut = h * ratio;
            rects.push((x, y, w, cut));
            rects.push((x, y + cut, w, h - cut));
        }
    }
    let units = rects
        .into_iter()
        .enumerate()
        .map(|(i, (x, y, w, h))| {
            FunctionalUnit::new(format!("u{i}"), Rect::from_meters(x, y, w, h))
        })
        .collect();
    Floorplan::new(
        "guillotine",
        Length::from_meters(1.0e-2),
        Length::from_meters(1.0e-2),
        units,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_guillotine_tilings_validate(
        splits in proptest::collection::vec(0.15..0.85f64, 1..12),
    ) {
        let fp = guillotine(splits);
        prop_assert!(fp.validate().is_ok(), "{:?}", fp.validate());
        prop_assert!((fp.coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distribution_conserves_power_any_grid(
        splits in proptest::collection::vec(0.15..0.85f64, 1..10),
        rows in 1usize..24,
        cols in 1usize..24,
        scale in 0.1..100.0f64,
    ) {
        let fp = guillotine(splits);
        let map = GridMap::new(&fp, GridDims::new(rows, cols));
        let powers: Vec<f64> = (0..fp.units().len())
            .map(|i| scale * (1.0 + (i as f64 * 0.7).sin().abs()))
            .collect();
        let cells = map.distribute(&powers);
        let t_in: f64 = powers.iter().sum();
        let t_out: f64 = cells.iter().sum();
        prop_assert!((t_in - t_out).abs() < 1e-9 * t_in);
        // No cell can receive negative power.
        prop_assert!(cells.iter().all(|&c| c >= 0.0));
    }

    #[test]
    fn cell_coverage_sums_to_one(
        splits in proptest::collection::vec(0.2..0.8f64, 1..8),
        rows in 1usize..16,
        cols in 1usize..16,
    ) {
        let fp = guillotine(splits);
        let map = GridMap::new(&fp, GridDims::new(rows, cols));
        for cell in 0..map.dims().cells() {
            let total: f64 = map.cell_coverage(cell).iter().map(|c| c.cell_fraction).sum();
            prop_assert!((total - 1.0).abs() < 1e-9, "cell {} sums to {}", cell, total);
        }
    }

    #[test]
    fn unit_mean_bounded_by_unit_max(
        splits in proptest::collection::vec(0.2..0.8f64, 1..8),
        seed_vals in proptest::collection::vec(0.0..10.0f64, 64),
    ) {
        let fp = guillotine(splits);
        let map = GridMap::new(&fp, GridDims::new(8, 8));
        let vals: Vec<f64> = (0..64).map(|i| seed_vals[i]).collect();
        let means = map.unit_mean(&vals);
        let maxes = map.unit_max(&vals);
        for (m, x) in means.iter().zip(&maxes) {
            prop_assert!(m <= &(x + 1e-9));
        }
    }
}

/// Parses `text` and, when that succeeds, runs what a caller does next
/// with an untrusted file. Any of them may reject it; none may panic.
fn parse_untrusted(text: &str) {
    if let Ok(fp) = parse_flp("fuzz", text) {
        let _ = fp.validate();
        let _ = fp.coverage();
    }
}

/// Field values at the edges of what `parse_flp` accepts or rejects.
const EXTREMES: [&str; 10] = [
    "0",
    "-0",
    "5e-324",
    "1e-3",
    "1",
    "1e308",
    "1.7976931348623157e308",
    "inf",
    "NaN",
    "-1e-3",
];

#[test]
fn overflowing_extent_is_rejected_without_panic() {
    // x + w overflows to infinity: the die outline becomes infinite.
    let text = "big 1.7976931348623157e308 1 1e308 0\nsmall 1 1 0 0\n";
    let fp = parse_flp("overflow", text).expect("every field is finite and non-negative");
    assert!(fp.validate().is_err());
    let _ = fp.coverage();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn flp_arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255u8, 0usize..512)) {
        parse_untrusted(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn flp_truncated_alpha_never_panics(cut in 0usize..4096) {
        let text = write_flp(&alpha21264()).into_bytes();
        parse_untrusted(&String::from_utf8_lossy(&text[..cut % (text.len() + 1)]));
    }

    #[test]
    fn flp_mutated_alpha_never_panics(
        edits in prop::collection::vec((0usize..4096, 0u8..=255u8), 1usize..8),
    ) {
        let mut text = write_flp(&alpha21264()).into_bytes();
        let len = text.len();
        for (at, byte) in edits {
            text[at % len] = byte;
        }
        parse_untrusted(&String::from_utf8_lossy(&text));
    }

    #[test]
    fn flp_extreme_fields_never_panic(
        fields in prop::collection::vec(prop::sample::select(EXTREMES.to_vec()), 8),
    ) {
        let text = format!("a {}\nb {}\n", fields[..4].join(" "), fields[4..].join(" "));
        parse_untrusted(&text);
    }
}
