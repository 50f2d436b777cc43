//! MiBench workload profiles and trace synthesis — the PTscalar substitute.
//!
//! The paper drives OFTEC with per-functional-unit maximum dynamic power
//! for eight MiBench benchmarks on an Alpha 21264, produced by PTscalar.
//! PTscalar (and cycle-accurate replay of MiBench) is unavailable here, so
//! each benchmark carries a *profile*: a nominal total dynamic power and a
//! per-unit activity mix. A deterministic, seeded synthesizer expands the
//! profile into a phased, noisy power trace; OFTEC consumes the trace's
//! per-unit maximum exactly as in the paper's flow.
//!
//! The totals and mixes are calibrated so the full pipeline reproduces the
//! paper's split: the fan-only baselines cool `Basicmath`, `CRC32` and
//! `StringSearch` but fail the other five benchmarks, while OFTEC cools
//! all eight (see EXPERIMENTS.md).

use crate::PowerTrace;
use oftec_floorplan::Floorplan;
use oftec_units::Power;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The eight MiBench benchmarks of the paper's Table 2.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum Benchmark {
    /// `basicmath` — mixed integer/floating-point math (cool benchmark).
    Basicmath,
    /// `bitcount` — integer ALU blast (hottest benchmark, `I* = 2.30 A`).
    BitCount,
    /// `CRC32` — light streaming checksum (coolest benchmark).
    Crc32,
    /// `dijkstra` — pointer-chasing shortest path (hot).
    Dijkstra,
    /// `FFT` — floating-point heavy transform (hot).
    Fft,
    /// `qsort` — integer/memory heavy sorting (hot, `I* = 2.83 A`).
    Quicksort,
    /// `stringsearch` — moderate integer search (cool).
    StringSearch,
    /// `susan` — mixed image processing (hot).
    Susan,
}

/// Error returned when a profile references a unit the floorplan lacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownUnitError {
    /// Name of the missing unit.
    pub unit: String,
    /// The benchmark whose profile referenced it.
    pub benchmark: &'static str,
}

impl core::fmt::Display for UnknownUnitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "floorplan has no unit `{}` required by the {} profile",
            self.unit, self.benchmark
        )
    }
}

impl std::error::Error for UnknownUnitError {}

/// A benchmark's dynamic power characterization: nominal total power and a
/// normalized per-unit activity mix.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    name: &'static str,
    total: Power,
    /// `(unit name, normalized weight)`, weights summing to 1.
    weights: Vec<(&'static str, f64)>,
}

impl WorkloadProfile {
    /// Creates a profile; weights are normalized to sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, any weight is negative, or all are
    /// zero.
    pub fn new(name: &'static str, total: Power, weights: Vec<(&'static str, f64)>) -> Self {
        assert!(!weights.is_empty(), "profile needs at least one unit");
        assert!(
            weights.iter().all(|(_, w)| *w >= 0.0),
            "weights must be non-negative"
        );
        let sum: f64 = weights.iter().map(|(_, w)| w).sum();
        assert!(sum > 0.0, "at least one weight must be positive");
        let weights = weights.into_iter().map(|(n, w)| (n, w / sum)).collect();
        Self {
            name,
            total,
            weights,
        }
    }

    /// The profile's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Nominal total dynamic power.
    pub fn total(&self) -> Power {
        self.total
    }

    /// The normalized weights.
    pub fn weights(&self) -> &[(&'static str, f64)] {
        &self.weights
    }

    /// Nominal per-unit dynamic power in floorplan order, in watts.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownUnitError`] if the floorplan lacks a profiled unit.
    pub fn nominal_vector(&self, fp: &Floorplan) -> Result<Vec<f64>, UnknownUnitError> {
        let mut out = vec![0.0; fp.units().len()];
        for &(name, w) in &self.weights {
            let idx = fp.unit_index(name).ok_or_else(|| UnknownUnitError {
                unit: name.to_owned(),
                benchmark: self.name,
            })?;
            out[idx] += self.total.watts() * w;
        }
        Ok(out)
    }
}

impl Benchmark {
    /// All eight benchmarks, in the paper's Table 2 order.
    pub const ALL: [Benchmark; 8] = [
        Benchmark::Basicmath,
        Benchmark::BitCount,
        Benchmark::Crc32,
        Benchmark::Dijkstra,
        Benchmark::Fft,
        Benchmark::Quicksort,
        Benchmark::StringSearch,
        Benchmark::Susan,
    ];

    /// The benchmark's display name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Basicmath => "basicmath",
            Benchmark::BitCount => "bitcount",
            Benchmark::Crc32 => "CRC32",
            Benchmark::Dijkstra => "dijkstra",
            Benchmark::Fft => "FFT",
            Benchmark::Quicksort => "qsort",
            Benchmark::StringSearch => "stringsearch",
            Benchmark::Susan => "susan",
        }
    }

    /// Looks a benchmark up by its display name, case-insensitively
    /// (`"qsort"`, `"QSORT"`, `"CRC32"` all resolve). `None` for names
    /// outside Table 2 — the lookup every user-facing surface (CLI,
    /// serving protocol) shares.
    pub fn from_name(name: &str) -> Option<Benchmark> {
        Benchmark::ALL
            .iter()
            .copied()
            .find(|b| b.name().eq_ignore_ascii_case(name))
    }

    /// The benchmarks the paper's fan-only baselines can still cool (the
    /// "cool three").
    pub fn is_cool(self) -> bool {
        matches!(
            self,
            Benchmark::Basicmath | Benchmark::Crc32 | Benchmark::StringSearch
        )
    }

    /// Deterministic RNG seed for this benchmark's trace.
    fn seed(self) -> u64 {
        0x0000_F7EC_0000 + self as u64
    }

    /// The benchmark's activity profile over the Alpha 21264 unit names.
    pub fn profile(self) -> WorkloadProfile {
        let w = |total: f64, weights: Vec<(&'static str, f64)>| {
            WorkloadProfile::new(self.name(), Power::from_watts(total), weights)
        };
        match self {
            Benchmark::Basicmath => w(
                24.0,
                vec![
                    ("IntExec", 0.14),
                    ("IntReg", 0.05),
                    ("IntQ", 0.04),
                    ("IntMap", 0.04),
                    ("LdStQ", 0.07),
                    ("Dcache", 0.10),
                    ("Icache", 0.08),
                    ("Bpred", 0.04),
                    ("ITB", 0.02),
                    ("DTB", 0.02),
                    ("FPAdd", 0.16),
                    ("FPMul", 0.14),
                    ("FPReg", 0.05),
                    ("FPMap", 0.025),
                    ("FPQ", 0.025),
                ],
            ),
            Benchmark::BitCount => w(
                49.0,
                vec![
                    ("IntExec", 0.44),
                    ("IntReg", 0.10),
                    ("IntQ", 0.08),
                    ("IntMap", 0.07),
                    ("LdStQ", 0.04),
                    ("Dcache", 0.04),
                    ("Icache", 0.06),
                    ("Bpred", 0.07),
                    ("ITB", 0.03),
                    ("DTB", 0.02),
                    ("FPAdd", 0.01),
                    ("FPMul", 0.01),
                    ("FPReg", 0.01),
                    ("FPMap", 0.005),
                    ("FPQ", 0.005),
                ],
            ),
            Benchmark::Crc32 => w(
                19.0,
                vec![
                    ("IntExec", 0.22),
                    ("IntReg", 0.07),
                    ("IntQ", 0.05),
                    ("IntMap", 0.05),
                    ("LdStQ", 0.10),
                    ("Dcache", 0.18),
                    ("Icache", 0.10),
                    ("Bpred", 0.05),
                    ("ITB", 0.03),
                    ("DTB", 0.04),
                    ("FPAdd", 0.01),
                    ("FPMul", 0.01),
                    ("FPReg", 0.01),
                    ("FPMap", 0.005),
                    ("FPQ", 0.005),
                ],
            ),
            Benchmark::Dijkstra => w(
                48.0,
                vec![
                    ("IntExec", 0.36),
                    ("IntReg", 0.08),
                    ("IntQ", 0.06),
                    ("IntMap", 0.06),
                    ("LdStQ", 0.11),
                    ("Dcache", 0.13),
                    ("Icache", 0.05),
                    ("Bpred", 0.06),
                    ("ITB", 0.02),
                    ("DTB", 0.04),
                    ("FPAdd", 0.01),
                    ("FPMul", 0.01),
                    ("FPReg", 0.01),
                    ("FPMap", 0.005),
                    ("FPQ", 0.005),
                ],
            ),
            Benchmark::Fft => w(
                43.0,
                vec![
                    ("FPMul", 0.28),
                    ("FPAdd", 0.23),
                    ("FPReg", 0.07),
                    ("FPQ", 0.04),
                    ("FPMap", 0.03),
                    ("IntExec", 0.10),
                    ("IntReg", 0.04),
                    ("IntQ", 0.03),
                    ("IntMap", 0.03),
                    ("LdStQ", 0.06),
                    ("Dcache", 0.06),
                    ("Icache", 0.04),
                    ("Bpred", 0.02),
                    ("ITB", 0.01),
                    ("DTB", 0.01),
                ],
            ),
            Benchmark::Quicksort => w(
                50.0,
                vec![
                    ("IntExec", 0.4),
                    ("IntReg", 0.09),
                    ("IntQ", 0.07),
                    ("IntMap", 0.06),
                    ("LdStQ", 0.12),
                    ("Dcache", 0.1),
                    ("Icache", 0.05),
                    ("Bpred", 0.08),
                    ("ITB", 0.02),
                    ("DTB", 0.03),
                    ("FPAdd", 0.01),
                    ("FPMul", 0.01),
                    ("FPReg", 0.01),
                    ("FPMap", 0.005),
                    ("FPQ", 0.005),
                ],
            ),
            Benchmark::StringSearch => w(
                22.0,
                vec![
                    ("IntExec", 0.24),
                    ("IntReg", 0.07),
                    ("IntQ", 0.05),
                    ("IntMap", 0.05),
                    ("LdStQ", 0.09),
                    ("Dcache", 0.14),
                    ("Icache", 0.12),
                    ("Bpred", 0.08),
                    ("ITB", 0.03),
                    ("DTB", 0.03),
                    ("FPAdd", 0.01),
                    ("FPMul", 0.01),
                    ("FPReg", 0.01),
                    ("FPMap", 0.005),
                    ("FPQ", 0.005),
                ],
            ),
            Benchmark::Susan => w(
                52.0,
                vec![
                    ("IntExec", 0.36),
                    ("FPAdd", 0.14),
                    ("FPMul", 0.16),
                    ("FPReg", 0.04),
                    ("IntReg", 0.07),
                    ("IntQ", 0.05),
                    ("IntMap", 0.05),
                    ("LdStQ", 0.08),
                    ("Dcache", 0.09),
                    ("Icache", 0.06),
                    ("Bpred", 0.04),
                    ("ITB", 0.02),
                    ("DTB", 0.02),
                    ("FPMap", 0.005),
                    ("FPQ", 0.005),
                ],
            ),
        }
    }

    /// Synthesizes a deterministic, phased dynamic power trace on the given
    /// floorplan (1 ms sampling, like a PTscalar power dump).
    ///
    /// The trace alternates between program phases; each phase modulates
    /// every unit's nominal power by a phase factor in ±30%, plus ±8%
    /// white noise per sample. Identical inputs always produce identical
    /// traces (the RNG is seeded from the benchmark).
    ///
    /// # Errors
    ///
    /// Returns [`UnknownUnitError`] if the floorplan lacks a profiled unit.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn try_synthesize_trace(
        self,
        fp: &Floorplan,
        samples: usize,
    ) -> Result<PowerTrace, UnknownUnitError> {
        assert!(samples > 0, "trace needs at least one sample");
        let profile = self.profile();
        let nominal = profile.nominal_vector(fp)?;
        let n_units = nominal.len();
        let mut rng = StdRng::seed_from_u64(self.seed());

        const PHASES: usize = 4;
        let phase_len = samples.div_ceil(PHASES);
        // Per-phase, per-unit modulation in [0.7, 1.3].
        let phase_factors: Vec<Vec<f64>> = (0..PHASES)
            .map(|_| (0..n_units).map(|_| rng.gen_range(0.7..1.3)).collect())
            .collect();

        let mut trace = PowerTrace::new(
            fp.units().iter().map(|u| u.name().to_owned()).collect(),
            1e-3,
        );
        for s in 0..samples {
            let phase = (s / phase_len).min(PHASES - 1);
            let sample: Vec<f64> = (0..n_units)
                .map(|u| {
                    let noise = 1.0 + rng.gen_range(-0.08..0.08);
                    (nominal[u] * phase_factors[phase][u] * noise).max(0.0)
                })
                .collect();
            trace.push_sample(sample);
        }
        Ok(trace)
    }

    /// Like [`Benchmark::try_synthesize_trace`] but panicking on unknown
    /// units — convenient with the bundled [`oftec_floorplan::alpha21264`]
    /// floorplan, which always has every profiled unit.
    ///
    /// # Panics
    ///
    /// Panics if the floorplan lacks a profiled unit or `samples == 0`.
    #[expect(
        clippy::panic,
        reason = "documented panicking convenience over try_synthesize_trace"
    )]
    pub fn synthesize_trace(self, fp: &Floorplan, samples: usize) -> PowerTrace {
        self.try_synthesize_trace(fp, samples)
            .unwrap_or_else(|e| panic!("floorplan must contain every profiled unit: {e}"))
    }

    /// The per-unit **maximum** dynamic power vector OFTEC consumes (the
    /// paper's §6.1 procedure), from a deterministic 512-sample trace.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownUnitError`] if the floorplan lacks a profiled unit.
    pub fn max_dynamic_power(self, fp: &Floorplan) -> Result<Vec<f64>, UnknownUnitError> {
        Ok(self.try_synthesize_trace(fp, 512)?.max_per_unit())
    }
}

impl core::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftec_floorplan::alpha21264;

    #[test]
    fn profiles_are_normalized() {
        for b in Benchmark::ALL {
            let p = b.profile();
            let sum: f64 = p.weights().iter().map(|(_, w)| w).sum();
            assert!((sum - 1.0).abs() < 1e-12, "{b} weights sum to {sum}");
        }
    }

    #[test]
    fn nominal_vector_conserves_total() {
        let fp = alpha21264();
        for b in Benchmark::ALL {
            let p = b.profile();
            let v = p.nominal_vector(&fp).unwrap();
            let total: f64 = v.iter().sum();
            assert!((total - p.total().watts()).abs() < 1e-9, "{b}");
        }
    }

    #[test]
    fn cool_three_match_paper() {
        let cool: Vec<_> = Benchmark::ALL.iter().filter(|b| b.is_cool()).collect();
        assert_eq!(cool.len(), 3);
        assert!(Benchmark::Basicmath.is_cool());
        assert!(Benchmark::Crc32.is_cool());
        assert!(Benchmark::StringSearch.is_cool());
        assert!(!Benchmark::Quicksort.is_cool());
    }

    #[test]
    fn cool_benchmarks_draw_less_power() {
        let max_cool = Benchmark::ALL
            .iter()
            .filter(|b| b.is_cool())
            .map(|b| b.profile().total().watts())
            .fold(0.0, f64::max);
        let min_hot = Benchmark::ALL
            .iter()
            .filter(|b| !b.is_cool())
            .map(|b| b.profile().total().watts())
            .fold(f64::INFINITY, f64::min);
        assert!(max_cool < min_hot);
    }

    #[test]
    fn traces_are_deterministic() {
        let fp = alpha21264();
        let t1 = Benchmark::Fft.synthesize_trace(&fp, 100);
        let t2 = Benchmark::Fft.synthesize_trace(&fp, 100);
        assert_eq!(t1, t2);
    }

    #[test]
    fn different_benchmarks_differ() {
        let fp = alpha21264();
        let a = Benchmark::Fft.synthesize_trace(&fp, 50);
        let b = Benchmark::BitCount.synthesize_trace(&fp, 50);
        assert_ne!(a, b);
    }

    #[test]
    fn max_exceeds_mean() {
        let fp = alpha21264();
        let t = Benchmark::Quicksort.synthesize_trace(&fp, 400);
        let maxes = t.max_per_unit();
        let means = t.mean_per_unit();
        for (mx, mn) in maxes.iter().zip(&means) {
            assert!(mx >= mn);
        }
        // The hottest unit must be IntExec for qsort.
        let idx_max = maxes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(fp.units()[idx_max].name(), "IntExec");
    }

    #[test]
    fn max_vector_is_bounded_by_phase_and_noise_envelope() {
        let fp = alpha21264();
        for b in Benchmark::ALL {
            let nominal = b.profile().nominal_vector(&fp).unwrap();
            let maxes = b.max_dynamic_power(&fp).unwrap();
            for (mx, nom) in maxes.iter().zip(&nominal) {
                assert!(*mx <= nom * 1.3 * 1.08 + 1e-12);
            }
        }
    }

    #[test]
    fn unknown_unit_error() {
        use oftec_floorplan::{Floorplan, FunctionalUnit, Rect};
        use oftec_units::Length;
        let fp = Floorplan::new(
            "tiny",
            Length::from_mm(1.0),
            Length::from_mm(1.0),
            vec![FunctionalUnit::new(
                "OnlyUnit",
                Rect::new(
                    Length::ZERO,
                    Length::ZERO,
                    Length::from_mm(1.0),
                    Length::from_mm(1.0),
                ),
            )],
        );
        let err = Benchmark::Fft.max_dynamic_power(&fp).unwrap_err();
        assert!(err.to_string().contains("FFT") || err.to_string().contains("no unit"));
    }

    #[test]
    fn display_names() {
        assert_eq!(Benchmark::Crc32.to_string(), "CRC32");
        assert_eq!(Benchmark::Quicksort.to_string(), "qsort");
    }
}
