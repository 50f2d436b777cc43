//! `fleet` and `crosscheck`: `oftec_fleet::runner::run` on seeded
//! populations, one executor thread, fresh output directories.
//!
//! - `fleet`: the cross-check layer is off. Each call runs one of
//!   [`FLEET_POPULATIONS`] fixed 32-scenario populations (one fsync'd
//!   checkpointed batch) into a fresh directory; a unit is a scenario and
//!   its latency is the call's time divided by 32. The seed orders the
//!   populations and only whole passes are timed: scenario costs are
//!   heavy-tailed, so seeded populations of a few thousand scenarios
//!   still differ by ~12% in throughput from seed to seed.
//! - `crosscheck`: every scenario goes through `fleet::diff`. The fixed
//!   population is the 16 scenarios of run seed 42, shard 0 that end at
//!   the known defect (indices 211–226). Set-up runs indices 0–210 on the
//!   verdict path into a template directory (the runner's own resume
//!   point); each pass starts from a copy of it and runs the population
//!   one scenario per call (`batch = 1`, `stop_after = 1`), so each call's
//!   time is one cross-checked scenario's latency, write and checkpoint
//!   included. At ~0.3 s a scenario a run covers a few dozen scenarios,
//!   too few for a seeded population to give a steady p50; the seed picks
//!   the scenario re-derived for the byte-equality check. A scenario with
//!   any out-of-tolerance discrepancy counts as failed, so the known defect
//!   fails once per pass.

use crate::report::{median, metric, ratio, Metric, Outcome};
use crate::{e2e_metrics, overhead_metrics, trace, Cfg, E2e, Timed, THREADS};
use oftec::problems::{CoolingObjective, CoolingProblem};
use oftec_fleet::diff::cross_check;
use oftec_fleet::rng::{splitmix64, Seed, SplitMix64};
use oftec_fleet::runner::{concatenated_verdicts, run as run_fleet, RunConfig, RunSummary};
use oftec_fleet::scenario::{ScenarioId, ScenarioSpec};
use oftec_fleet::tolerance::TolerancePolicy;
use oftec_fleet::verdict::{
    solve_verdict, solve_verdict_on, Verdict, VerdictKind, CROSS_CHECK_EVAL_BUDGET,
    VERDICT_EVAL_BUDGET,
};
use oftec_optim::{ActiveSetSqp, GridSearch, InteriorPoint, NlpProblem, SolveOptions, TrustRegion};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Scenarios per `fleet` call: one checkpointed batch.
const FLEET_POPULATION: u32 = 32;
/// `fleet` populations per pass; population `k` has run seed
/// `splitmix64(FLEET_BASE_SEED + k)`.
const FLEET_POPULATIONS: u64 = 32;
const FLEET_BASE_SEED: u64 = 42;
/// Run seed of the `crosscheck` population.
const CROSSCHECK_RUN_SEED: u64 = 42;
/// Scenarios in the `crosscheck` population (one pass).
const CROSSCHECK_POPULATION: u32 = 16;
/// The population is shard indices `CROSSCHECK_FIRST..CROSSCHECK_SHARD`,
/// ending at the known defect.
const CROSSCHECK_SHARD: u32 = KNOWN_DEFECT.index + 1;
const CROSSCHECK_FIRST: u32 = CROSSCHECK_SHARD - CROSSCHECK_POPULATION;
/// `fleet` set-up is a warm-up run on this fixed population, repeated.
const WARMUP_SEED: u64 = 0x5eed;
const WARMUP_SCENARIOS: u32 = 16;
/// Timed set-ups per run. A fleet warm-up takes ~30 ms and its fsyncs
/// vary, so it is repeated more than the ~0.8 s crosscheck set-up.
const FLEET_SETUP_REPEATS: usize = 15;
const CROSSCHECK_SETUP_REPEATS: usize = 5;
/// `fleet`: every fourth population has one scenario re-derived.
const SAMPLE_EVERY: usize = 4;

/// The defect that must stay visible: interior point disagrees with the
/// grid oracle on this scenario.
const KNOWN_DEFECT: ScenarioId = ScenarioId {
    run_seed: Seed(42),
    shard: 0,
    index: 226,
};

/// Solver settings of the differential layer (`fleet::diff`), used to
/// time each solver's `solve` on its own in the traced run.
const SOLVE_OPTIONS: SolveOptions = SolveOptions {
    max_iterations: 60,
    tolerance: 1e-6,
};
const GRID_POINTS_PER_DIM: usize = 17;

fn config(run_seed: u64, per_shard: u32, out_dir: PathBuf, cross: bool) -> RunConfig {
    let mut c = RunConfig::new(run_seed, 1, per_shard, out_dir);
    c.threads = THREADS;
    c.minimize = false;
    if cross {
        c.cross_check_divisor = 1;
        c.batch = 1;
        c.stop_after = Some(1);
    } else {
        c.cross_check_divisor = 0;
        c.batch = per_shard as usize;
    }
    c
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("removing {}: {e}", path.display())),
    }
}

/// Whether a verdict line counts as a failed unit.
pub fn scenario_failed(v: &Verdict) -> bool {
    v.discrepancies > 0 || v.verdict == VerdictKind::SolverError
}

/// The checks [`KNOWN_DEFECT`] fails, re-derived now.
pub fn known_defect() -> Result<Vec<String>, String> {
    let system = ScenarioSpec::generate(KNOWN_DEFECT)
        .build()
        .map_err(|e| format!("scenario does not build: {e}"))?;
    let report = cross_check(&system, &TolerancePolicy::default(), None);
    Ok(report.failures.into_iter().map(|d| d.check).collect())
}

/// The `crosscheck` population's address, as the report records it.
#[derive(serde::Serialize)]
struct Population {
    run_seed: u64,
    shard: u32,
    first_index: u32,
    last_index: u32,
}

/// Set-up, repeated and timed. `fleet`: a warm-up run of a fixed small
/// population. `crosscheck`: the verdict-path run of the indices before
/// the population into `base/template`, which every pass starts from.
fn setup(base: &Path, cross: bool, out: &mut Outcome) -> (f64, Vec<f64>) {
    let (dir, scenarios, repeats) = if cross {
        (
            base.join("template"),
            CROSSCHECK_FIRST,
            CROSSCHECK_SETUP_REPEATS,
        )
    } else {
        (base.join("warmup"), WARMUP_SCENARIOS, FLEET_SETUP_REPEATS)
    };
    let mut runs = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        if let Err(e) = fresh_dir(&dir) {
            out.check(false, || e);
            break;
        }
        let config = if cross {
            let mut c = config(CROSSCHECK_RUN_SEED, CROSSCHECK_SHARD, dir.clone(), false);
            c.batch = CROSSCHECK_FIRST as usize;
            c.stop_after = Some(u64::from(CROSSCHECK_FIRST));
            c
        } else {
            config(WARMUP_SEED, WARMUP_SCENARIOS, dir.clone(), false)
        };
        let t0 = crate::now();
        let summary = run_fleet(&config);
        runs.push(t0.elapsed().as_secs_f64());
        match summary {
            Ok(s) => out.check(s.scenarios == u64::from(scenarios), || {
                format!("set-up run wrote {} of {scenarios} verdicts", s.scenarios)
            }),
            Err(e) => out.check(false, || format!("set-up run: {e}")),
        }
    }
    if !cross {
        let _ = fresh_dir(&dir);
    }
    (median(&mut runs.clone()), runs)
}

/// Copies the files of directory `from` into the new directory `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("creating {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if let Some(name) = path.file_name() {
            std::fs::copy(&path, to.join(name))
                .map_err(|e| format!("copying {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// The verdict lines of a one-shard run directory.
fn stream(dir: &Path) -> Result<Vec<String>, String> {
    let bytes = concatenated_verdicts(dir, 1).map_err(|e| e.to_string())?;
    let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
    Ok(text.lines().map(str::to_owned).collect())
}

/// Counts, verdict partition and `solver_error` checks on a run's stream;
/// returns how many scenarios from line `from` on failed.
fn check_stream(summary: &RunSummary, lines: &[String], from: usize, out: &mut Outcome) -> u64 {
    let v = &summary.verdicts;
    out.check(v.total() == summary.scenarios, || {
        format!(
            "verdict counts sum to {} of {} scenarios",
            v.total(),
            summary.scenarios
        )
    });
    out.check(lines.len() as u64 == summary.scenarios, || {
        format!(
            "stream has {} lines for {} scenarios",
            lines.len(),
            summary.scenarios
        )
    });
    out.check(v.solver_error == 0, || {
        format!("{} solver_error verdicts", v.solver_error)
    });
    let mut failed = 0;
    for line in lines.iter().skip(from) {
        match serde_json::from_str::<Verdict>(line) {
            Ok(verdict) => failed += u64::from(scenario_failed(&verdict)),
            Err(e) => out.check(false, || format!("unparseable verdict line: {e}")),
        }
    }
    failed
}

/// Re-derives scenario `index` of the run and compares it byte for byte.
fn check_sample(run_seed: u64, index: u32, lines: &[String], cross: bool, out: &mut Outcome) {
    let id = ScenarioId {
        run_seed: Seed(run_seed),
        shard: 0,
        index,
    };
    let spec = ScenarioSpec::generate(id);
    let mut verdict = if cross {
        solve_verdict(&spec, CROSS_CHECK_EVAL_BUDGET)
    } else {
        solve_verdict(&spec, VERDICT_EVAL_BUDGET)
    };
    if cross {
        verdict.cross_checked = true;
        if let Ok(system) = spec.build() {
            let report = cross_check(&system, &TolerancePolicy::default(), None);
            verdict.discrepancies = report.failures.len() as u32;
        }
    }
    match (serde_json::to_string(&verdict), lines.get(index as usize)) {
        (Ok(line), Some(streamed)) => out.check(&line == streamed, || {
            format!("scenario {id}: stream line differs from solve_verdict\n  stream {streamed}\n  direct {line}")
        }),
        (Err(e), _) => out.check(false, || format!("scenario {id}: {e}")),
        (_, None) => out.check(false, || format!("scenario {id} missing from the stream")),
    }
}

/// Generates and builds one scenario inside spans.
fn replay_build(id: ScenarioId) -> Option<(ScenarioSpec, oftec::CoolingSystem)> {
    let spec = trace::span("fleet.scenario.generate", || ScenarioSpec::generate(id));
    let system = trace::span("fleet.build", || spec.build()).ok()?;
    Some((spec, system))
}

/// `fleet` traced replay: each stage of one scenario on its own.
fn replay_verdict(id: ScenarioId) {
    let Some((spec, system)) = replay_build(id) else {
        return;
    };
    trace::span("fleet.verdict", || {
        solve_verdict_on(&system, &spec, VERDICT_EVAL_BUDGET)
    });
    let fan = system.fan_model();
    let problem = CoolingProblem::new(fan, CoolingObjective::Power, system.t_max());
    let op = problem.operating_point(&vec![0.5; problem.dim()]);
    let _ = trace::span("thermal.model.full", || fan.solve(op));
}

/// `crosscheck` traced replay: basis build and each solver's `solve`.
fn replay_solvers(id: ScenarioId) {
    let Some((_, system)) = replay_build(id) else {
        return;
    };
    trace::span("thermal.reduction.basis_build", || {
        let _ = system.reduced_tec_model();
    });
    let full = Timed::new(system.tec_model(), "thermal.model.full");
    let problem = CoolingProblem::new(&full, CoolingObjective::Power, system.t_max());
    let x0 = vec![0.5; problem.dim()];
    let grid = GridSearch {
        points_per_dim: GRID_POINTS_PER_DIM,
        ..GridSearch::default()
    };
    let _ = trace::span("optim.gridsearch", || {
        grid.solve(&problem, &x0, &SOLVE_OPTIONS)
    });
    let _ = trace::span("optim.sqp", || {
        ActiveSetSqp::default().solve(&problem, &x0, &SOLVE_OPTIONS)
    });
    let _ = trace::span("optim.interior", || {
        InteriorPoint::default().solve(&problem, &x0, &SOLVE_OPTIONS)
    });
    let _ = trace::span("optim.trust_region", || {
        TrustRegion::default().solve(&problem, &x0, &SOLVE_OPTIONS)
    });
}

#[derive(Default)]
struct Phase {
    e2e: E2e,
    attempted: u64,
    failed: u64,
    /// Out-of-tolerance discrepancies found (`crosscheck`).
    discrepancies: u64,
}

/// `fleet`: whole seeded-order passes over the fixed populations until
/// `seconds` of wall time pass.
fn measure_fleet(
    cfg: &Cfg,
    base: &Path,
    seconds: f64,
    traced: bool,
    first_call: u64,
    out: &mut Outcome,
) -> Phase {
    let mut per_population: Vec<Vec<f64>> = vec![Vec::new(); FLEET_POPULATIONS as usize];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rng = SplitMix64::new(cfg.seed);
    let mut order: Vec<u64> = (0..FLEET_POPULATIONS).collect();
    let budget = Duration::from_secs_f64(seconds);
    let start = crate::now();
    let mut call = first_call;
    while start.elapsed() < budget {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &k in &order {
            let run_seed = splitmix64(FLEET_BASE_SEED + k);
            let dir = base.join(format!("population-{call}"));
            if let Err(e) = fresh_dir(&dir) {
                out.check(false, || e);
                return Phase::default();
            }
            let config = config(run_seed, FLEET_POPULATION, dir.clone(), false);
            trace::set_unit(call * u64::from(FLEET_POPULATION));
            let t0 = crate::now();
            let summary = trace::span("fleet.runner.run", || run_fleet(&config));
            let dt = t0.elapsed().as_secs_f64();
            attempted += u64::from(FLEET_POPULATION);
            match summary
                .map_err(|e| e.to_string())
                .and_then(|s| Ok((stream(&dir)?, s)))
            {
                Ok((lines, summary)) => {
                    per_population[k as usize].push(dt * 1e3 / f64::from(FLEET_POPULATION));
                    failed += check_stream(&summary, &lines, 0, out);
                    out.check(summary.scenarios == u64::from(FLEET_POPULATION), || {
                        format!(
                            "population {run_seed:#x} wrote {} verdicts",
                            summary.scenarios
                        )
                    });
                    if (call as usize).is_multiple_of(SAMPLE_EVERY) {
                        let index = rng.below(u64::from(FLEET_POPULATION)) as u32;
                        check_sample(run_seed, index, &lines, false, out);
                    }
                }
                Err(e) => {
                    failed += u64::from(FLEET_POPULATION);
                    out.check(false, || format!("population {run_seed:#x}: {e}"));
                }
            }
            if traced {
                for index in 0..FLEET_POPULATION {
                    trace::set_unit(call * u64::from(FLEET_POPULATION) + u64::from(index));
                    replay_verdict(ScenarioId {
                        run_seed: Seed(run_seed),
                        shard: 0,
                        index,
                    });
                }
            }
            let _ = fresh_dir(&dir);
            call += 1;
        }
    }
    Phase {
        e2e: E2e::from_items(&per_population, u64::from(FLEET_POPULATION)),
        attempted,
        failed,
        discrepancies: 0,
    }
}

/// `crosscheck`: whole passes over the fixed population until `seconds`
/// of wall time pass; each pass runs in a fresh copy of the set-up
/// template, one scenario per runner call, and its stream is checked when
/// it ends.
fn measure_crosscheck(
    cfg: &Cfg,
    base: &Path,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> Phase {
    let population = u64::from(CROSSCHECK_POPULATION);
    let mut per_scenario: Vec<Vec<f64>> = vec![Vec::new(); population as usize];
    let (mut attempted, mut failed, mut discrepancies) = (0u64, 0u64, 0u64);
    let budget = Duration::from_secs_f64(seconds);
    let start = crate::now();
    let mut pass = 0u64;
    'passes: while start.elapsed() < budget {
        let dir = base.join(format!("population-{pass}"));
        if let Err(e) = fresh_dir(&dir).and_then(|()| copy_dir(&base.join("template"), &dir)) {
            out.check(false, || e);
            break;
        }
        let config = config(CROSSCHECK_RUN_SEED, CROSSCHECK_SHARD, dir.clone(), true);
        for k in 0..population {
            let index = CROSSCHECK_FIRST + k as u32;
            trace::set_unit(pass * population + k);
            let t0 = crate::now();
            let summary = trace::span("fleet.runner.run", || run_fleet(&config));
            let dt = t0.elapsed().as_secs_f64();
            attempted += 1;
            match summary {
                Ok(s) => {
                    per_scenario[k as usize].push(dt * 1e3);
                    out.check(s.scenarios == u64::from(index) + 1, || {
                        format!("call {index} left {} scenarios on disk", s.scenarios)
                    });
                }
                Err(e) => {
                    failed += 1;
                    out.check(false, || format!("cross-checked scenario: {e}"));
                    break 'passes;
                }
            }
            if traced {
                replay_solvers(ScenarioId {
                    run_seed: Seed(CROSSCHECK_RUN_SEED),
                    shard: 0,
                    index,
                });
            }
        }
        let sample = (pass == 0 && !traced).then_some(cfg.seed);
        let (f, d) = check_population(&config, sample, out);
        failed += f;
        discrepancies += d;
        let _ = fresh_dir(&dir);
        pass += 1;
    }
    Phase {
        e2e: E2e::from_items(&per_scenario, 1),
        attempted,
        failed,
        discrepancies,
    }
}

/// Checks a finished `crosscheck` pass: partition, failed units, and (when
/// `sample` is given) one seeded scenario of the population re-derived
/// with `solve_verdict` and `cross_check`. Returns `(failed,
/// discrepancies)`; only population scenarios are cross-checked, so every
/// discrepancy is theirs.
fn check_population(config: &RunConfig, sample: Option<u64>, out: &mut Outcome) -> (u64, u64) {
    let expected = u64::from(CROSSCHECK_SHARD);
    let summary = run_fleet(&RunConfig {
        stop_after: Some(0),
        ..config.clone()
    });
    match summary
        .map_err(|e| e.to_string())
        .and_then(|s| Ok((stream(&config.out_dir)?, s)))
    {
        Ok((lines, summary)) => {
            let failed = check_stream(&summary, &lines, CROSSCHECK_FIRST as usize, out);
            out.check(summary.scenarios == expected, || {
                format!(
                    "{} scenarios on disk, {expected} expected",
                    summary.scenarios
                )
            });
            if let Some(seed) = sample {
                let index = CROSSCHECK_FIRST
                    + SplitMix64::new(seed).below(u64::from(CROSSCHECK_POPULATION)) as u32;
                check_sample(config.run_seed, index, &lines, true, out);
            }
            (failed, summary.discrepancies)
        }
        Err(e) => {
            out.check(false, || format!("crosscheck stream: {e}"));
            (u64::from(CROSSCHECK_POPULATION), 0)
        }
    }
}

pub fn run(cfg: &Cfg, cross: bool) -> Outcome {
    let mut out = Outcome::default();
    let base = cfg
        .out_dir
        .join(format!("{}-{}", cfg.workload, std::process::id()));
    let (setup_s, setup_runs) = setup(&base, cross, &mut out);
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let measure = |traced: bool, first_call: u64, out: &mut Outcome| {
        if cross {
            measure_crosscheck(cfg, &base, seconds, traced, out)
        } else {
            measure_fleet(cfg, &base, seconds, traced, first_call, out)
        }
    };
    let plain = measure(false, 0, &mut out);
    let next = plain.attempted / u64::from(FLEET_POPULATION);
    let mut phases = vec![plain];
    let mut spans = Vec::new();
    if cfg.trace {
        trace::start();
        phases.push(measure(true, next, &mut out));
        spans = trace::finish();
    }
    let _ = fresh_dir(&base);
    out.attempted = phases.iter().map(|p| p.attempted).sum();
    out.failed = phases.iter().map(|p| p.failed).sum();
    let discrepancies: u64 = phases.iter().map(|p| p.discrepancies).sum();
    if cross {
        out.detail(
            "population",
            Population {
                run_seed: CROSSCHECK_RUN_SEED,
                shard: 0,
                first_index: CROSSCHECK_FIRST,
                last_index: CROSSCHECK_SHARD - 1,
            },
        );
        out.detail(
            "known_defect_in_population",
            CROSSCHECK_RUN_SEED == KNOWN_DEFECT.run_seed.0
                && (CROSSCHECK_FIRST..CROSSCHECK_SHARD).contains(&KNOWN_DEFECT.index),
        );
        out.detail("discrepancies", discrepancies);
    }

    out.metrics = if cfg.trace {
        let mut m = layer_metrics(&spans, cross, discrepancies);
        m.extend(overhead_metrics(&phases[0].e2e, &phases[1].e2e));
        crate::write_spans(cfg, &spans, &mut out);
        m
    } else {
        e2e_metrics(setup_s, &phases[0].e2e, setup_runs.len() as u64)
    };
    out.detail("setup_runs_s", setup_runs);
    out
}

fn layer_metrics(spans: &[trace::Span], cross: bool, discrepancies: u64) -> Vec<Metric> {
    let sum = trace::summarize(spans);
    let l = |name| trace::layer(&sum, name);
    let per_ms = |layer: &trace::Layer| ratio(layer.total_ms(), layer.count as f64);
    let generate = l("fleet.scenario.generate");
    let build = l("fleet.build");
    let full = l("thermal.model.full");
    let runner = l("fleet.runner.run");
    let scenarios = generate.count;
    let runner_ms = ratio(runner.total_ms(), scenarios as f64);
    let mut m = vec![
        metric(
            "fleet.scenario.generate_us",
            generate.mean_us(),
            "us",
            generate.count,
        ),
        metric("fleet.build_ms", per_ms(&build), "ms", build.count),
        metric(
            "thermal.model.full_us_per_call",
            full.mean_us(),
            "us",
            full.count,
        ),
        metric("fleet.runner.scenario_ms", runner_ms, "ms", scenarios),
    ];
    if cross {
        let basis = l("thermal.reduction.basis_build");
        m.push(metric(
            "thermal.reduction.basis_build_ms",
            per_ms(&basis),
            "ms",
            basis.count,
        ));
        for (span, name) in [
            ("optim.gridsearch", "optim.gridsearch_ms"),
            ("optim.sqp", "optim.sqp_ms"),
            ("optim.interior", "optim.interior_ms"),
            ("optim.trust_region", "optim.trust_region_ms"),
        ] {
            let layer = l(span);
            m.push(metric(name, per_ms(&layer), "ms", layer.count));
        }
        m.push(metric(
            "fleet.diff.discrepancies",
            discrepancies as f64,
            "count",
            runner.count,
        ));
    } else {
        let verdict = l("fleet.verdict");
        let verdict_ms = per_ms(&verdict);
        m.push(metric("fleet.verdict_ms", verdict_ms, "ms", verdict.count));
        let stages = generate.mean_us() / 1e3 + per_ms(&build) + verdict_ms;
        m.push(metric(
            "fleet.runner.write_ms",
            runner_ms - stages,
            "ms",
            scenarios,
        ));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discrepancies_and_solver_errors_fail_a_scenario() {
        let spec = ScenarioSpec::generate(KNOWN_DEFECT);
        let mut v = solve_verdict(&spec, VERDICT_EVAL_BUDGET);
        v.verdict = VerdictKind::FanOnly;
        assert!(!scenario_failed(&v));
        v.discrepancies = 2;
        assert!(scenario_failed(&v));
        v.discrepancies = 0;
        v.verdict = VerdictKind::SolverError;
        assert!(scenario_failed(&v));
    }
}
