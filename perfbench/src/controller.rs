//! `controller`: Algorithm 1 (`Oftec::run`) closed-loop over a seeded
//! list of (MiBench benchmark, power scale) problems.
//!
//! The problem set is every benchmark at every scale in [`SCALES`]: at
//! the two low scales every benchmark is cool (~40 evaluations, ~1.3 ms);
//! above them five of the eight are hot (hundreds of evaluations, up to
//! the ~415-evaluation cap, some through the feasibility phase, a few
//! certified infeasible). That puts p50 inside the cool cluster and p99
//! inside the hot one rather than in the gap between them. The set is
//! fixed, the seed orders it, and only whole passes over it are timed,
//! so every seed measures the same mix.

use crate::report::{median, metric, ratio, Metric, Outcome};
use crate::{e2e_metrics, overhead_metrics, trace, Cfg, E2e, Timed};
use oftec::{CoolingSystem, Oftec, OftecOutcome};
use oftec_fleet::rng::SplitMix64;
use oftec_fleet::tolerance::TolerancePolicy;
use oftec_power::Benchmark;
use oftec_thermal::OperatingPoint;
use std::time::Duration;

/// Power scales applied to every benchmark's dynamic power.
const SCALES: [f64; 5] = [0.86, 0.89, 0.98, 1.02, 1.06];

/// How many times set-up is repeated; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

struct Problem {
    benchmark: Benchmark,
    scale: f64,
}

/// Every (benchmark, scale) pair in a seeded order.
fn problems(seed: u64) -> Vec<Problem> {
    let mut list: Vec<Problem> = Benchmark::ALL
        .iter()
        .flat_map(|&benchmark| {
            SCALES
                .iter()
                .map(move |&scale| Problem { benchmark, scale })
        })
        .collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..list.len()).rev() {
        list.swap(i, rng.below(i as u64 + 1) as usize);
    }
    list
}

/// Builds every system and its POD basis; returns them with the time taken.
fn setup(problems: &[Problem]) -> (Vec<CoolingSystem>, f64) {
    let t0 = crate::now();
    let systems: Vec<CoolingSystem> = problems
        .iter()
        .map(|p| {
            let system = trace::span("core.system.build", || {
                CoolingSystem::for_benchmark(p.benchmark).scaled(p.scale)
            });
            trace::span("thermal.reduction.basis_build", || {
                let _ = system.reduced_tec_model();
            });
            system
        })
        .collect();
    (systems, t0.elapsed().as_secs_f64())
}

/// The part of an outcome that must repeat exactly for the same problem.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Optimized(OperatingPoint, f64),
    Infeasible(OperatingPoint, f64),
}

fn answer(outcome: &OftecOutcome) -> Answer {
    match outcome {
        OftecOutcome::Optimized(s) => Answer::Optimized(s.operating_point, s.cooling_power.watts()),
        OftecOutcome::Infeasible(r) => {
            Answer::Infeasible(r.operating_point, r.best_temperature.kelvin())
        }
    }
}

struct Phase {
    e2e: E2e,
    attempted: u64,
    failed: u64,
    phase1: u64,
    reduced: u64,
    fallbacks: u64,
}

/// Runs whole passes over the problems until `seconds` pass; records
/// every answer.
fn measure(
    systems: &[CoolingSystem],
    seconds: f64,
    traced: bool,
    answers: &mut [Option<Answer>],
    out: &mut Outcome,
) -> Phase {
    let oftec = Oftec::default();
    let mut per_problem: Vec<Vec<f64>> = vec![Vec::new(); systems.len()];
    let (mut failed, mut phase1) = (0u64, 0u64);
    let probe0 = oftec_thermal::probe::snapshot();
    let budget = Duration::from_secs_f64(seconds);
    let start = crate::now();
    let mut i = 0usize;
    while !i.is_multiple_of(systems.len()) || start.elapsed() < budget {
        let p = i % systems.len();
        let system = &systems[p];
        let t0 = crate::now();
        let result = if traced {
            trace::set_unit(i as u64);
            let model = Timed::new(system.reduced_tec_model(), "thermal.reduction.solve");
            trace::span("core.algorithm.run", || {
                oftec.run_on_model(&model, system.t_max())
            })
        } else {
            oftec.run(system)
        };
        per_problem[p].push(t0.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(outcome) => {
                if outcome.optimized().is_some_and(|s| s.used_phase1) {
                    phase1 += 1;
                }
                let a = answer(&outcome);
                match &answers[p] {
                    None => answers[p] = Some(a),
                    Some(first) => out.check(*first == a, || {
                        format!("problem {p}: answer changed between runs ({first:?} vs {a:?})")
                    }),
                }
            }
            Err(_) => failed += 1,
        }
        i += 1;
    }
    let probe = oftec_thermal::probe::snapshot().since(&probe0);
    Phase {
        e2e: E2e::from_items(&per_problem, 1),
        attempted: i as u64,
        failed,
        phase1,
        reduced: probe.reduced,
        fallbacks: probe.fallbacks,
    }
}

/// Re-solves every distinct answer on the full model (untimed).
fn verify(
    problems: &[Problem],
    systems: &[CoolingSystem],
    answers: &[Option<Answer>],
    out: &mut Outcome,
) {
    let tol = TolerancePolicy::default().reduced_full_max_temp_k;
    for ((p, system), a) in problems.iter().zip(systems).zip(answers) {
        let name = format!("{}×{}", p.benchmark.name(), p.scale);
        let t_max = system.t_max().kelvin();
        match a {
            None => {}
            Some(Answer::Optimized(op, _)) => match system.tec_model().solve(*op) {
                Ok(sol) => {
                    let t = sol.max_chip_temperature().kelvin();
                    out.check(t <= t_max + tol, || {
                        format!("{name}: full-model max die temperature {t:.3} K exceeds T_max {t_max:.3} K + {tol} K")
                    });
                }
                Err(e) => out.check(false, || format!("{name}: full re-solve failed: {e}")),
            },
            // A certified failure must not be coolable at its best point.
            Some(Answer::Infeasible(op, _)) => {
                if let Ok(sol) = system.tec_model().solve(*op) {
                    let t = sol.max_chip_temperature().kelvin();
                    out.check(t >= t_max - tol, || {
                        format!(
                            "{name}: reported infeasible but full model gives {t:.3} K below T_max"
                        )
                    });
                }
            }
        }
    }
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let problems = problems(cfg.seed);
    if cfg.trace {
        trace::start();
    }
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut systems = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (s, secs) = setup(&problems);
        systems = s;
        setups.push(secs);
    }
    // Setup spans are kept; the untraced half below must record nothing.
    let setup_spans = if cfg.trace {
        trace::finish()
    } else {
        Vec::new()
    };
    let setup_s = median(&mut setups);
    let mut answers: Vec<Option<Answer>> = vec![None; problems.len()];

    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let plain = measure(&systems, seconds, false, &mut answers, &mut out);
    let mut phases = vec![plain];
    if cfg.trace {
        trace::start();
        let traced = measure(&systems, seconds, true, &mut answers, &mut out);
        let mut spans = setup_spans;
        trace::append(&mut spans, trace::finish());
        out.metrics = layer_metrics(&spans, &traced);
        out.metrics
            .extend(overhead_metrics(&phases[0].e2e, &traced.e2e));
        crate::write_spans(cfg, &spans, &mut out);
        phases.push(traced);
    } else {
        out.metrics = e2e_metrics(setup_s, &phases[0].e2e, SETUP_REPEATS as u64);
    }
    out.attempted = phases.iter().map(|p| p.attempted).sum();
    out.failed = phases.iter().map(|p| p.failed).sum();
    out.detail("problem_count", problems.len());
    out.detail("setup_runs_s", &setups);
    verify(&problems, &systems, &answers, &mut out);
    out
}

fn layer_metrics(spans: &[trace::Span], phase: &Phase) -> Vec<Metric> {
    let sum = trace::summarize(spans);
    let run = trace::layer(&sum, "core.algorithm.run");
    let thermal = trace::layer(&sum, "thermal.reduction.solve");
    let basis = trace::layer(&sum, "thermal.reduction.basis_build");
    let runs = run.count as f64;
    let per_run_ms = |ns: u64| ratio(ns as f64 / 1e6, runs);
    let solves = (phase.reduced + phase.fallbacks) as f64;
    vec![
        metric(
            "core.algorithm.run_ms",
            per_run_ms(run.total_ns),
            "ms",
            run.count,
        ),
        metric(
            "thermal.reduction.calls_per_run",
            ratio(thermal.count as f64, runs),
            "count",
            run.count,
        ),
        metric(
            "thermal.reduction.us_per_call",
            thermal.mean_us(),
            "us",
            thermal.count,
        ),
        metric(
            "thermal.reduction.share",
            ratio(thermal.total_ns as f64, run.total_ns as f64),
            "ratio",
            run.count,
        ),
        metric(
            "thermal.reduction.fallback_ratio",
            ratio(phase.fallbacks as f64, solves),
            "ratio",
            solves as u64,
        ),
        metric(
            "optim.sqp.self_ms",
            per_run_ms(run.self_ns),
            "ms",
            run.count,
        ),
        metric(
            "core.algorithm.phase1_ratio",
            ratio(phase.phase1 as f64, runs),
            "ratio",
            run.count,
        ),
        metric(
            "thermal.reduction.basis_build_ms",
            basis.total_ms() / basis.count.max(1) as f64,
            "ms",
            basis.count,
        ),
    ]
}
