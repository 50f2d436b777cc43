//! Reproduces the §5.2 claim: of the three state-of-the-art CNLP
//! methods — interior point, trust region, active-set SQP — "the
//! active-set SQP method performs the best ... both in terms of solution
//! quality and speed". Exhaustive grid search provides the reference
//! optimum.
//!
//! ```text
//! cargo run --release -p oftec-bench --bin solver_comparison [--telemetry-json <path>]
//! ```

use oftec::problems::{CoolingObjective, CoolingProblem};
use oftec::CoolingSystem;
use oftec_bench::fmt_opt;
use oftec_optim::{ActiveSetSqp, GridSearch, InteriorPoint, NlpProblem, SolveOptions, TrustRegion};
use oftec_power::Benchmark;
use std::process::ExitCode;
use std::time::Instant;

struct Outcome {
    power: Option<f64>,
    millis: f64,
    solves: usize,
}

fn feasible_power(problem: &CoolingProblem<'_>, x: &[f64], t_max_c: f64) -> Option<f64> {
    let t = problem.max_temperature(x)?;
    if t.celsius() < t_max_c {
        problem.objective(x)
    } else {
        None
    }
}

fn main() -> ExitCode {
    let (_args, telemetry) = oftec_bench::telemetry_args();
    let opts = SolveOptions {
        max_iterations: 60,
        tolerance: 1e-6,
    };
    println!("§5.2 solver comparison on Optimization 1 (feasible-start points)");
    println!(
        "{:>14} | {:>18} | {:>18} | {:>18} | {:>18}",
        "benchmark", "SQP  𝒫 W / ms", "interior 𝒫 W / ms", "trust 𝒫 W / ms", "grid 𝒫 W / ms"
    );

    let mut sums = [0.0f64; 4];
    let mut times = [0.0f64; 4];
    let mut counted = 0usize;

    for &b in &Benchmark::ALL {
        let system = CoolingSystem::for_benchmark(b);
        // Common feasible start: the coolest-ish center used by OFTEC, or
        // phase-1 output for hot benchmarks.
        let probe =
            CoolingProblem::new(system.tec_model(), CoolingObjective::Power, system.t_max());
        let start = if probe
            .max_temperature(&[0.5, 0.5])
            .is_some_and(|t| t < system.t_max())
        {
            vec![0.5, 0.5]
        } else {
            vec![0.8, 0.5]
        };
        if feasible_power(&probe, &start, 90.0).is_none() {
            println!("{:>14} | no common feasible start, skipped", b.name());
            continue;
        }

        let run = |which: usize| -> Outcome {
            let problem =
                CoolingProblem::new(system.tec_model(), CoolingObjective::Power, system.t_max());
            let t0 = Instant::now();
            let x = match which {
                0 => ActiveSetSqp::default()
                    .solve(&problem, &start, &opts)
                    .ok()
                    .map(|r| r.x),
                1 => InteriorPoint::default()
                    .solve(&problem, &start, &opts)
                    .ok()
                    .map(|r| r.x),
                2 => TrustRegion::default()
                    .solve(&problem, &start, &opts)
                    .ok()
                    .map(|r| r.x),
                _ => GridSearch {
                    points_per_dim: 41,
                    ..Default::default()
                }
                .solve(&problem, &start, &opts)
                .ok()
                .map(|r| r.x),
            };
            let millis = t0.elapsed().as_secs_f64() * 1e3;
            let power = x.and_then(|x| feasible_power(&problem, &x, 90.0));
            Outcome {
                power,
                millis,
                solves: problem.thermal_solves(),
            }
        };

        let outcomes: Vec<Outcome> = (0..4).map(run).collect();
        print!("{:>14} |", b.name());
        for o in &outcomes {
            print!(" {} /{:>6.0} |", fmt_opt(o.power, 8), o.millis);
        }
        println!(
            " (thermal solves: {:?})",
            outcomes.iter().map(|o| o.solves).collect::<Vec<_>>()
        );

        if outcomes.iter().all(|o| o.power.is_some()) {
            counted += 1;
            for (k, o) in outcomes.iter().enumerate() {
                // Guarded by the all-feasible check above.
                sums[k] += o.power.unwrap_or_default();
                times[k] += o.millis;
            }
        }
    }

    if counted > 0 {
        let n = counted as f64;
        println!("\naverages over {counted} benchmarks where all four finished feasible:");
        for (k, name) in [
            "active-set SQP",
            "interior point",
            "trust region",
            "grid search",
        ]
        .iter()
        .enumerate()
        {
            println!(
                "  {:>15}: 𝒫 = {:.2} W, {:.0} ms",
                name,
                sums[k] / n,
                times[k] / n
            );
        }
        println!(
            "\npaper: the active-set SQP performs best in quality and speed; grid \
             search is the (slow) ground truth"
        );
    }
    oftec_bench::finish_telemetry(telemetry)
}
