//! Seeded scenario generation: synthetic packages × workloads × ambient
//! conditions, each addressed by a stable `(run_seed, shard, index)` id.
//!
//! A [`ScenarioSpec`] is pure data: every field is derived from the
//! address alone, and [`ScenarioSpec::build`] reconstructs the same
//! [`CoolingSystem`] from the fields alone. That closure property is what
//! makes minimized reproducers self-contained — a `repro_*.json` carries
//! the spec, not a pointer into a run.

use crate::rng::{scenario_seed, Seed, SplitMix64};
use crate::FleetError;
use oftec::CoolingSystem;
use oftec_floorplan::{alpha21264, grid_floorplan, Floorplan, GridDims};
use oftec_power::{Benchmark, McpatBudget};
use oftec_thermal::PackageConfig;
use oftec_units::{AngularVelocity, Length, Temperature};
use serde::{Deserialize, Serialize};

/// A scenario's stable address within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioId {
    /// The run's master seed.
    pub run_seed: Seed,
    /// Shard number (one verdict file per shard).
    pub shard: u32,
    /// Index within the shard.
    pub index: u32,
}

impl ScenarioId {
    /// The seed of this scenario's private generator stream.
    pub fn stream_seed(&self) -> u64 {
        scenario_seed(self.run_seed.0, self.shard, self.index)
    }
}

impl core::fmt::Display for ScenarioId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}/{}/{}", self.run_seed, self.shard, self.index)
    }
}

/// Which population a scenario is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioClass {
    /// The paper's Alpha 21264 die under one MiBench workload, with
    /// perturbed power magnitude, ambient and airflow.
    Dac14Perturbed,
    /// A synthetic `tiles × tiles` grid die with seeded per-tile activity
    /// and a partial TEC deployment.
    SyntheticGrid,
    /// A synthetic grid die cooled by the fan alone (no TEC decision);
    /// exercises the 1-D problem and the `feasible` verdict partition.
    SyntheticFanOnly,
}

impl ScenarioClass {
    /// Stable lower-snake name used in verdict lines and counters.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioClass::Dac14Perturbed => "dac14_perturbed",
            ScenarioClass::SyntheticGrid => "synthetic_grid",
            ScenarioClass::SyntheticFanOnly => "synthetic_fan_only",
        }
    }
}

/// A fully materialized scenario description. Plain data; see the module
/// docs for the self-containment contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// The scenario's address.
    pub id: ScenarioId,
    /// Population the scenario was drawn from.
    pub class: ScenarioClass,
    /// MiBench benchmark name ([`ScenarioClass::Dac14Perturbed`] only;
    /// empty for synthetic classes).
    pub benchmark: String,
    /// Grid-die side in tiles (synthetic classes).
    pub tiles: u32,
    /// Die edge in millimetres (synthetic classes).
    pub die_edge_mm: f64,
    /// Total synthetic dynamic power in watts before scaling.
    pub total_power_w: f64,
    /// Multiplier on the per-unit dynamic power vector.
    pub power_scale: f64,
    /// Ambient air temperature in °C.
    pub ambient_c: f64,
    /// Multiplier on the fan curve (`ω_max` and the still-air floor).
    pub airflow_scale: f64,
    /// Thermal die grid side (the discretization knob the minimizer
    /// shrinks first).
    pub thermal_cells: u32,
    /// Number of tiles left uncovered by TECs (synthetic grid class).
    pub tec_exclusions: u32,
    /// Seed of the per-tile activity/exclusion stream.
    pub workload_seed: Seed,
}

/// Floors the minimizer may not shrink below (also the generator's lower
/// bounds, so a shrunk spec is always a valid member of the population).
pub const MIN_THERMAL_CELLS: u32 = 4;
/// Minimum synthetic grid side.
pub const MIN_TILES: u32 = 2;
/// Minimum power multiplier after shrinking.
pub const MIN_POWER_SCALE: f64 = 0.2;
/// Ceilings on hand-edited specs, far above anything the generator draws
/// (the minimizer only shrinks), so a repro file cannot demand a
/// runaway allocation.
pub const MAX_THERMAL_CELLS: u32 = 64;
/// Maximum synthetic grid side.
pub const MAX_TILES: u32 = 32;

impl ScenarioSpec {
    /// Derives the scenario at `id` — the one pure function from address
    /// to population member.
    pub fn generate(id: ScenarioId) -> Self {
        let mut rng = SplitMix64::new(id.stream_seed());
        let class = match rng.below(5) {
            0 | 1 => ScenarioClass::Dac14Perturbed,
            2 | 3 => ScenarioClass::SyntheticGrid,
            _ => ScenarioClass::SyntheticFanOnly,
        };
        let benchmark = if class == ScenarioClass::Dac14Perturbed {
            let all = Benchmark::ALL;
            all[rng.below(all.len() as u64) as usize].name().to_owned()
        } else {
            String::new()
        };
        let tiles = (MIN_TILES + rng.below(3) as u32).max(MIN_TILES);
        let die_edge_mm = rng.range_f64(10.0, 16.0);
        let total_power_w = rng.range_f64(15.0, 55.0);
        let power_scale = if class == ScenarioClass::Dac14Perturbed {
            rng.range_f64(0.8, 1.3)
        } else {
            1.0
        };
        let ambient_c = rng.range_f64(35.0, 50.0);
        let airflow_scale = rng.range_f64(0.7, 1.2);
        let thermal_cells = MIN_THERMAL_CELLS + rng.below(3) as u32;
        let max_excl = tiles * tiles / 3;
        let tec_exclusions = if class == ScenarioClass::SyntheticGrid && max_excl > 0 {
            rng.below(u64::from(max_excl) + 1) as u32
        } else {
            0
        };
        let workload_seed = Seed(rng.next_u64());
        Self {
            id,
            class,
            benchmark,
            tiles,
            die_edge_mm,
            total_power_w,
            power_scale,
            ambient_c,
            airflow_scale,
            thermal_cells,
            tec_exclusions,
            workload_seed,
        }
    }

    /// The package configuration this spec describes: the Table 1 stack
    /// with the spec's ambient, airflow and discretization perturbations.
    fn package(&self) -> PackageConfig {
        let mut pkg = PackageConfig::dac14_coarse();
        pkg.ambient = Temperature::from_celsius(self.ambient_c);
        pkg.fan.omega_max = AngularVelocity::from_rpm(pkg.fan.omega_max.rpm() * self.airflow_scale);
        pkg.fan.g_hs_still *= self.airflow_scale;
        let cells = self.thermal_cells.max(MIN_THERMAL_CELLS) as usize;
        pkg.die_dims = GridDims::new(cells, cells);
        pkg.spreader_dims = GridDims::new(
            cells.saturating_sub(1).max(3),
            cells.saturating_sub(1).max(3),
        );
        pkg.sink_dims = GridDims::new(
            cells.saturating_sub(2).max(3),
            cells.saturating_sub(2).max(3),
        );
        pkg.pcb_dims = GridDims::new(
            cells.saturating_sub(3).max(3),
            cells.saturating_sub(3).max(3),
        );
        pkg
    }

    /// The synthetic grid floorplan and its per-unit dynamic power vector
    /// (synthetic classes). Activity weights and hot tiles come from the
    /// spec's `workload_seed` stream, never from the address, so a
    /// minimized spec replays with the exact workload that failed.
    fn synthetic_workload(&self) -> (Floorplan, Vec<f64>) {
        let tiles = self.tiles.max(MIN_TILES) as usize;
        let edge = Length::from_mm(self.die_edge_mm);
        let fp = grid_floorplan(&format!("fleet{tiles}x{tiles}"), edge, edge, tiles, tiles);
        let mut rng = SplitMix64::new(self.workload_seed.0);
        let mut weights: Vec<f64> = (0..tiles * tiles)
            .map(|_| {
                let base = 0.25 + rng.next_f64();
                if rng.below(5) == 0 {
                    base * 5.0 // a hot spot
                } else {
                    base
                }
            })
            .collect();
        let sum: f64 = weights.iter().sum();
        let total = self.total_power_w * self.power_scale;
        for w in &mut weights {
            *w = *w / sum * total;
        }
        (fp, weights)
    }

    /// The tile names left uncovered by TECs, drawn from the tail of the
    /// `workload_seed` stream (after the weights, so weight draws and
    /// exclusion draws never alias between specs differing only in
    /// `tec_exclusions`).
    fn excluded_tiles(&self, fp: &Floorplan) -> Vec<String> {
        let n = fp.units().len();
        let want = (self.tec_exclusions as usize).min(n.saturating_sub(1));
        let mut rng = SplitMix64::new(self.workload_seed.0 ^ EXCLUSION_SALT);
        let mut picked: Vec<usize> = Vec::with_capacity(want);
        while picked.len() < want {
            let i = rng.below(n as u64) as usize;
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        picked.sort_unstable();
        picked
            .into_iter()
            .map(|i| fp.units()[i].name().to_owned())
            .collect()
    }

    /// Rejects fields no generated or minimized spec can carry, naming
    /// the first offending field.
    fn validate(&self) -> Result<(), FleetError> {
        let bad = |field: &str, rule: &str| {
            Err(FleetError::Scenario(format!("`{field}` must be {rule}")))
        };
        for (field, value) in [
            ("die_edge_mm", self.die_edge_mm),
            ("total_power_w", self.total_power_w),
            ("power_scale", self.power_scale),
            ("ambient_c", self.ambient_c),
            ("airflow_scale", self.airflow_scale),
        ] {
            if !value.is_finite() {
                return bad(field, "finite");
            }
        }
        for (field, value) in [
            ("die_edge_mm", self.die_edge_mm),
            ("power_scale", self.power_scale),
            ("airflow_scale", self.airflow_scale),
        ] {
            if value <= 0.0 {
                return bad(field, "positive");
            }
        }
        if self.total_power_w < 0.0 {
            return bad("total_power_w", "non-negative");
        }
        let absolute_zero = Temperature::from_kelvin(0.0).celsius();
        let runaway_cap = PackageConfig::dac14_coarse().runaway_cap.celsius();
        if self.ambient_c <= absolute_zero || self.ambient_c >= runaway_cap {
            return bad(
                "ambient_c",
                "between absolute zero and the package's runaway cap",
            );
        }
        if self.tiles > MAX_TILES {
            return bad("tiles", &format!("at most {MAX_TILES}"));
        }
        if self.thermal_cells > MAX_THERMAL_CELLS {
            return bad("thermal_cells", &format!("at most {MAX_THERMAL_CELLS}"));
        }
        Ok(())
    }

    /// Reconstructs the cooling system this spec describes.
    ///
    /// # Errors
    ///
    /// [`FleetError::Scenario`] when a field is out of range, the spec
    /// names an unknown benchmark, or the workload does not fit the
    /// floorplan (possible only for hand-edited spec files; generated
    /// specs always build).
    pub fn build(&self) -> Result<CoolingSystem, FleetError> {
        self.validate()?;
        let pkg = self.package();
        match self.class {
            ScenarioClass::Dac14Perturbed => {
                let benchmark = Benchmark::from_name(&self.benchmark).ok_or_else(|| {
                    FleetError::Scenario(format!("unknown benchmark `{}`", self.benchmark))
                })?;
                let fp = alpha21264();
                let dynamic: Vec<f64> = benchmark
                    .max_dynamic_power(&fp)
                    .map_err(|e| FleetError::Scenario(e.to_string()))?
                    .into_iter()
                    .map(|p| p * self.power_scale)
                    .collect();
                let leakage = McpatBudget::alpha21264_22nm().distribute(&fp);
                Ok(CoolingSystem::new(
                    format!("fleet:{}", self.id),
                    fp,
                    pkg,
                    dynamic,
                    leakage,
                    oftec::default_t_max(),
                ))
            }
            ScenarioClass::SyntheticGrid | ScenarioClass::SyntheticFanOnly => {
                let (fp, dynamic) = self.synthetic_workload();
                let leakage = McpatBudget::alpha21264_22nm().distribute(&fp);
                let excluded = self.excluded_tiles(&fp);
                let excluded_refs: Vec<&str> = excluded.iter().map(String::as_str).collect();
                Ok(CoolingSystem::with_tec_exclusions(
                    format!("fleet:{}", self.id),
                    fp,
                    pkg,
                    dynamic,
                    leakage,
                    oftec::default_t_max(),
                    &excluded_refs,
                ))
            }
        }
    }
}

/// Salt separating the TEC-exclusion sub-stream from the activity-weight
/// sub-stream of `workload_seed`.
const EXCLUSION_SALT: u64 = 0x7ec5_c07e_4a9e_11d3;

#[cfg(test)]
mod tests {
    use super::*;

    fn id(run_seed: u64, shard: u32, index: u32) -> ScenarioId {
        ScenarioId {
            run_seed: Seed(run_seed),
            shard,
            index,
        }
    }

    #[test]
    fn generation_is_a_pure_function_of_the_address() {
        let a = ScenarioSpec::generate(id(99, 2, 17));
        let b = ScenarioSpec::generate(id(99, 2, 17));
        assert_eq!(a, b);
        assert_ne!(a, ScenarioSpec::generate(id(99, 2, 18)));
    }

    #[test]
    fn specs_round_trip_through_json() {
        for index in 0..20 {
            let spec = ScenarioSpec::generate(id(7, 0, index));
            let json = serde_json::to_string(&spec).unwrap();
            let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back, "index {index}");
        }
    }

    #[test]
    fn all_classes_appear_and_build() {
        let mut seen = [false; 3];
        for index in 0..24 {
            let spec = ScenarioSpec::generate(id(3, 0, index));
            seen[spec.class as usize] = true;
            let system = spec.build().expect("generated specs always build");
            assert_eq!(
                system.dynamic_power().len(),
                system.floorplan().units().len()
            );
            assert!(system.total_dynamic_power().watts() > 1.0);
        }
        assert!(seen.iter().all(|&s| s), "class mix too narrow: {seen:?}");
    }

    #[test]
    fn synthetic_grid_respects_exclusions() {
        // Find a synthetic-grid spec with at least one exclusion and check
        // the built system still has TECs (never fully stripped).
        let spec = (0..200)
            .map(|i| ScenarioSpec::generate(id(11, 0, i)))
            .find(|s| s.class == ScenarioClass::SyntheticGrid && s.tec_exclusions > 0)
            .expect("population contains partially covered grids");
        let system = spec.build().unwrap();
        assert!(system.tec_model().has_tec());
    }

    #[test]
    fn out_of_range_specs_are_typed_errors() {
        let grid = (0..200)
            .map(|i| ScenarioSpec::generate(id(13, 0, i)))
            .find(|s| s.class == ScenarioClass::SyntheticGrid)
            .expect("population contains synthetic grids");
        type Corrupt = fn(&mut ScenarioSpec);
        let cases: [(&str, Corrupt); 5] = [
            ("die_edge_mm", |s| s.die_edge_mm = -1.0),
            ("die_edge_mm", |s| s.die_edge_mm = 0.0),
            ("airflow_scale", |s| s.airflow_scale = -1.0),
            ("ambient_c", |s| s.ambient_c = 1e308),
            ("thermal_cells", |s| s.thermal_cells = 100_000),
        ];
        for (field, corrupt) in cases {
            let mut spec = grid.clone();
            corrupt(&mut spec);
            match spec.build() {
                Err(FleetError::Scenario(msg)) => assert!(msg.contains(field), "{msg}"),
                Err(other) => panic!("{field}: wrong error {other}"),
                Ok(_) => panic!("{field}: out-of-range spec built"),
            }
        }
    }

    #[test]
    fn perturbed_package_stays_physical() {
        for index in 0..50 {
            let spec = ScenarioSpec::generate(id(5, 1, index));
            spec.package().assert_physical();
        }
    }
}
