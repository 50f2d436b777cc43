//! The batch solve engine.
//!
//! A dequeued micro-batch is turned into a list of unique work items
//! (identical cacheable requests are deduplicated and fan the one result
//! out), dispatched onto the `oftec-parallel` scoped-thread executor, and
//! answered over each job's reply channel. Per-item panics are caught by
//! the executor and become typed `panic` errors for the affected request
//! only — the rest of the batch and the server survive.
//!
//! Determinism: cacheable requests are solved at their cache key's
//! *canonical* (de-quantized) coordinates with plain cold-start solves
//! through the reduced-order model, so a batched response is
//! bit-identical to [`reference_payload`] at the same grid point, at any
//! `OFTEC_THREADS`, and whether or not the result came from cache.
//! `no_cache` requests keep their raw rpm and amps but are solved, and
//! reported, at the canonical scale too: the shared system for a scale
//! cell exists only at that scale.

use crate::cache::{dequantize, quantize, QuantizedCache};
use crate::protocol::{error_cause, ErrBody, SolveKind, SolveSpec};
use crate::queue::Job;
use oftec::faults::{FaultKind, FaultyModel};
use oftec::{
    CoolingSystem, InfeasibleReport, Oftec, OftecError, OftecOutcome, OftecSolution, SweepGrid,
};
use oftec_telemetry::Counter;
use oftec_thermal::{
    CoolingModel, OperatingPoint, PackageConfig, ThermalError, ThermalSolution, TransientOptions,
    TransientTrace,
};
use oftec_units::{AngularVelocity, Current, Temperature};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

pub static SERVE_BATCHES: Counter = Counter::new("serve.batches");
pub static SERVE_BATCH_JOBS: Counter = Counter::new("serve.batch.jobs");
pub static SERVE_BATCH_DEDUPED: Counter = Counter::new("serve.batch.deduped");
pub static SERVE_PANICS: Counter = Counter::new("serve.panics");
pub static SERVE_DEADLINE_EXCEEDED: Counter = Counter::new("serve.deadline_exceeded");

/// Batches smaller than this solve inline on the dispatcher thread
/// instead of fanning out to the scoped executor (whose spawn cost
/// exceeds a handful of reduced-order solves).
const INLINE_BATCH_MAX: usize = 8;

/// Fault-injection plan for the whole server: every `every`-th solve job
/// reaching the executor is wrapped in a [`FaultyModel`] injecting
/// `kind`. Used by the fault-tolerance suite; production servers run
/// with `None`.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    pub kind: FaultKind,
    pub every: usize,
}

/// Lazily built, shared [`CoolingSystem`]s keyed by benchmark and
/// quantized scale; building one costs floorplan + leakage assembly, so
/// every request for the same workload reuses the same instance. Each is
/// built at its cell's canonical scale, never at the raw scale of the
/// request that happened to arrive first.
struct SystemRegistry {
    package: PackageConfig,
    scale_grid: f64,
    systems: Mutex<BTreeMap<(oftec_power::Benchmark, i64), Arc<CoolingSystem>>>,
}

impl SystemRegistry {
    fn system(&self, benchmark: oftec_power::Benchmark, scale: f64) -> Arc<CoolingSystem> {
        let q = quantize(scale, self.scale_grid);
        let mut map = self.systems.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry((benchmark, q)).or_insert_with(|| {
            let scale = dequantize(q, self.scale_grid);
            let base = CoolingSystem::for_benchmark_with_config(benchmark, &self.package);
            #[expect(
                clippy::float_cmp,
                reason = "exact sentinel: the unit-scale cell dequantizes to exactly 1.0, so bit-equality is the identity test"
            )]
            let system = if scale == 1.0 {
                base
            } else {
                base.scaled(scale)
            };
            Arc::new(system)
        }))
    }
}

/// A [`CoolingModel`] wrapper that fails solves once a wall-clock
/// deadline passes. The SQP phases call the model once per iteration, so
/// this enforces deadlines at iteration granularity without the solver
/// layers knowing about time.
struct DeadlineModel<'a> {
    inner: &'a dyn CoolingModel,
    deadline: Instant,
    expired: AtomicBool,
}

impl<'a> DeadlineModel<'a> {
    fn new(inner: &'a dyn CoolingModel, deadline: Instant) -> Self {
        Self {
            inner,
            deadline,
            expired: AtomicBool::new(false),
        }
    }

    fn check(&self) -> Result<(), ThermalError> {
        if Instant::now() >= self.deadline {
            self.expired.store(true, Ordering::Relaxed);
            Err(ThermalError::Config(
                "request deadline exceeded mid-solve".into(),
            ))
        } else {
            Ok(())
        }
    }

    fn fired(&self) -> bool {
        self.expired.load(Ordering::Relaxed)
    }
}

impl CoolingModel for DeadlineModel<'_> {
    fn config(&self) -> &PackageConfig {
        self.inner.config()
    }

    fn has_tec(&self) -> bool {
        self.inner.has_tec()
    }

    fn validate_operating_point(&self, op: OperatingPoint) -> Result<(), ThermalError> {
        self.inner.validate_operating_point(op)
    }

    fn solve(&self, op: OperatingPoint) -> Result<ThermalSolution, ThermalError> {
        self.check()?;
        self.inner.solve(op)
    }

    fn solve_from(
        &self,
        op: OperatingPoint,
        initial: Option<&[f64]>,
    ) -> Result<ThermalSolution, ThermalError> {
        self.check()?;
        self.inner.solve_from(op, initial)
    }

    fn simulate_transient_from(
        &self,
        op: OperatingPoint,
        initial: Option<&[f64]>,
        steps: usize,
        opts: &TransientOptions,
    ) -> Result<TransientTrace, ThermalError> {
        self.check()?;
        self.inner.simulate_transient_from(op, initial, steps, opts)
    }
}

/// One executor work unit: a canonicalized spec plus the loosest
/// deadline of the jobs sharing it.
struct WorkItem {
    spec: SolveSpec,
    deadline: Option<Instant>,
    /// This item draws an injected fault (see [`FaultPlan`]).
    inject: bool,
}

/// Solve-path attribution for one work item, read off the thermal
/// crate's per-thread probe as before/after deltas around the solve.
struct SolveMeta {
    /// Wall time spent inside the solve call, in microseconds.
    solve_us: u64,
    /// `"reduced"`, `"fallback"`, or `"full"` — which path answered.
    path: &'static str,
    /// Certified residual ratio of the last reduced solve, if any.
    residual: Option<f64>,
}

/// Steady-state result payload.
#[derive(serde::Serialize)]
struct SteadyPayload {
    benchmark: String,
    scale: f64,
    rpm: f64,
    amps: f64,
    max_temp_c: f64,
    power_w: f64,
    leakage_w: f64,
    tec_w: f64,
    fan_w: f64,
    solver_iterations: usize,
}

/// Algorithm 1 result payload. Optional fields cover the two verdicts:
/// `feasible: true` fills the starred optimum, `false` the best-effort
/// report. Wall-clock runtime is deliberately absent — payloads must be
/// deterministic so cache hits replay byte-identical results.
#[derive(serde::Serialize)]
struct OptimizePayload {
    benchmark: String,
    scale: f64,
    feasible: bool,
    rpm: Option<f64>,
    amps: Option<f64>,
    power_w: Option<f64>,
    max_temp_c: f64,
    used_phase1: Option<bool>,
    thermal_solves: Option<usize>,
    solver_error: Option<String>,
}

/// Sweep result payload.
#[derive(serde::Serialize)]
struct SweepPayload {
    benchmark: String,
    scale: f64,
    omega_points: usize,
    current_points: usize,
    runaway_fraction: f64,
    samples: Vec<oftec::SweepSample>,
}

fn finite(v: f64, what: &str) -> Result<f64, ErrBody> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(ErrBody::new("non_finite", format!("non-finite {what}")))
    }
}

fn internal(e: impl std::fmt::Display) -> ErrBody {
    ErrBody::new("internal", format!("response serialization failed: {e}"))
}

/// The shared solve engine.
pub struct Engine {
    registry: SystemRegistry,
    cache: Arc<QuantizedCache>,
    oftec: Oftec,
    threads: usize,
    fault: Option<FaultPlan>,
    fault_seq: AtomicUsize,
}

impl Engine {
    pub fn new(
        package: PackageConfig,
        cache: Arc<QuantizedCache>,
        threads: usize,
        fault: Option<FaultPlan>,
    ) -> Self {
        let scale_grid = cache.config().scale_grid;
        Self {
            registry: SystemRegistry {
                package,
                scale_grid,
                systems: Mutex::new(BTreeMap::new()),
            },
            cache,
            oftec: Oftec::default(),
            threads,
            fault,
            fault_seq: AtomicUsize::new(0),
        }
    }

    /// Executes one micro-batch: dedup, dispatch, fan-out, cache-fill.
    /// Every job receives exactly one reply; a dropped receiver (client
    /// gone) is ignored.
    pub fn execute(&self, batch: Vec<Job>) {
        SERVE_BATCHES.add(1);
        SERVE_BATCH_JOBS.add(batch.len() as u64);
        let now = Instant::now();

        // Group jobs into unique work items. `no_cache` jobs always get
        // their own item (they demand a fresh solve at their raw rpm and
        // amps); cacheable jobs dedup on the quantized key and re-check
        // the cache, which a previous batch may have filled after this
        // job's admission.
        let mut items: Vec<WorkItem> = Vec::with_capacity(batch.len());
        let mut groups: Vec<Vec<Job>> = Vec::with_capacity(batch.len());
        let mut by_key: BTreeMap<crate::cache::CacheKey, usize> = BTreeMap::new();
        for mut job in batch {
            // Close the queue stage: everything between admission on the
            // connection thread and this dequeue.
            job.trace.stage("queue");
            if job.deadline.is_some_and(|d| now >= d) {
                SERVE_DEADLINE_EXCEEDED.add(1);
                job.trace.set_outcome("deadline");
                let err = ErrBody::new("deadline_exceeded", "deadline expired while queued");
                let trace = job.trace.clone();
                let _ = job.reply.send((Err(err), trace));
                continue;
            }
            let cfg = self.cache.config();
            let key = self.cache.key_for(&job.spec);
            if job.spec.no_cache {
                let mut spec = job.spec.clone();
                spec.scale = key.canonical_scale(cfg);
                items.push(WorkItem {
                    spec,
                    deadline: job.deadline,
                    inject: self.draw_fault(),
                });
                groups.push(vec![job]);
                continue;
            }
            if let Some(payload) = self.cache.peek(&key) {
                // A previous batch filled the cache after this job's
                // admission — a hit on the dispatcher thread.
                job.trace.stage("cache");
                job.trace.set_outcome("cache_hit");
                let trace = job.trace.clone();
                let _ = job.reply.send((Ok(payload), trace));
                continue;
            }
            match by_key.get(&key) {
                Some(&gi) => {
                    SERVE_BATCH_DEDUPED.add(1);
                    job.trace.mark_deduped();
                    // Keep the loosest deadline so the shared solve is
                    // not cut short for the job with the most budget.
                    items[gi].deadline = match (items[gi].deadline, job.deadline) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        _ => None,
                    };
                    groups[gi].push(job);
                }
                None => {
                    let mut spec = job.spec.clone();
                    spec.scale = key.canonical_scale(cfg);
                    spec.rpm = key.canonical_rpm(cfg);
                    spec.amps = key.canonical_amps(cfg);
                    by_key.insert(key, items.len());
                    items.push(WorkItem {
                        spec,
                        deadline: job.deadline,
                        inject: self.draw_fault(),
                    });
                    groups.push(vec![job]);
                }
            }
        }

        if items.is_empty() {
            return;
        }
        // Small batches run inline on the dispatcher thread: with the
        // reduced-order solve path an item costs microseconds, so the
        // scoped-spawn setup of the executor would dominate the batch.
        // Results are identical either way (the executor preserves item
        // order and items are independent).
        let threads = if items.len() < INLINE_BATCH_MAX {
            1
        } else {
            self.threads
        };
        let results = oftec_parallel::par_try_map_indexed_with(threads, &items, |_, item| {
            self.solve_item(item)
        });

        let done = Instant::now();
        for ((item, group), result) in items.iter().zip(groups).zip(results) {
            let (outcome, meta): (Result<String, ErrBody>, SolveMeta) = match result {
                Ok(inner) => inner,
                Err(panic) => {
                    SERVE_PANICS.add(1);
                    (
                        Err(ErrBody::new(
                            "panic",
                            format!("solve panicked: {}", panic.message),
                        )),
                        SolveMeta {
                            solve_us: 0,
                            path: "full",
                            residual: None,
                        },
                    )
                }
            };
            if let Ok(payload) = &outcome {
                if !item.spec.no_cache {
                    self.cache
                        .insert(self.cache.key_for(&item.spec), payload.clone());
                }
            }
            for mut job in group {
                // Split the wall interval since dequeue into batch
                // overhead (dispatch + waiting on sibling items) and the
                // solve proper; deduped jobs share the item's solve time.
                let spent = job.trace.since_mark_us(done);
                job.trace
                    .stage_us("batch", spent.saturating_sub(meta.solve_us));
                job.trace.stage_us("solve", meta.solve_us);
                if let Some(r) = meta.residual {
                    job.trace.set_residual(r);
                }
                let reply = if job.deadline.is_some_and(|d| done >= d) {
                    SERVE_DEADLINE_EXCEEDED.add(1);
                    job.trace.set_outcome("deadline");
                    Err(ErrBody::new(
                        "deadline_exceeded",
                        "deadline expired during solve",
                    ))
                } else {
                    match &outcome {
                        Ok(_) => job.trace.set_outcome(meta.path),
                        Err(err) => job.trace.set_outcome(error_cause(err.kind)),
                    }
                    outcome.clone()
                };
                let trace = job.trace.clone();
                let _ = job.reply.send((reply, trace));
            }
        }
    }

    fn draw_fault(&self) -> bool {
        match self.fault {
            None => false,
            Some(plan) if plan.every == 0 => false,
            Some(plan) => {
                (self.fault_seq.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(plan.every)
            }
        }
    }

    /// Builds the shared system — and its reduced-order model — for
    /// `benchmark` at scale 1.0 before traffic arrives, so the first
    /// uncached request pays neither the floorplan assembly nor the
    /// snapshot-solve basis construction.
    pub fn prewarm(&self, benchmark: oftec_power::Benchmark) {
        let system = self.registry.system(benchmark, 1.0);
        let _ = system.reduced_tec_model();
    }

    /// Solves one work item, composing the deadline and fault wrappers
    /// around the shared system model as the item requires, and
    /// attributes the solve path (reduced/fallback/full, certified
    /// residual, wall time) via the thermal probe's before/after deltas —
    /// the probe is per-thread and each item runs on exactly one worker,
    /// so deltas never mix items.
    ///
    /// Solves go through the system's reduced-order model: certified
    /// microsecond evaluations, with automatic fallback to the full CG
    /// path whenever the residual check fails — so payloads stay
    /// bit-identical to `reference_payload` at the same spec.
    fn solve_item(&self, item: &WorkItem) -> (Result<String, ErrBody>, SolveMeta) {
        let before = oftec_thermal::probe::snapshot();
        let t0 = Instant::now();
        let out = self.solve_item_inner(item);
        let solve_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        let delta = oftec_thermal::probe::snapshot().since(&before);
        let path = if delta.fallbacks > 0 {
            "fallback"
        } else if delta.reduced > 0 {
            "reduced"
        } else {
            "full"
        };
        let residual = (delta.residual_events > 0).then_some(delta.last_residual);
        (
            out,
            SolveMeta {
                solve_us,
                path,
                residual,
            },
        )
    }

    fn solve_item_inner(&self, item: &WorkItem) -> Result<String, ErrBody> {
        let system = self.registry.system(item.spec.benchmark, item.spec.scale);
        let reduced = system.reduced_tec_model();
        let base: &dyn CoolingModel = &reduced;
        let fault_kind = self.fault.filter(|_| item.inject).map(|plan| plan.kind);
        match (fault_kind, item.deadline) {
            (None, None) => self.run_spec(&base, &system, &item.spec),
            (None, Some(d)) => {
                let dm = DeadlineModel::new(base, d);
                let out = self.run_spec(&dm, &system, &item.spec);
                if dm.fired() {
                    SERVE_DEADLINE_EXCEEDED.add(1);
                    return Err(ErrBody::new(
                        "deadline_exceeded",
                        "deadline expired mid-solve",
                    ));
                }
                out
            }
            (Some(kind), None) => {
                let fm = FaultyModel::new(&base, kind, 0);
                self.run_spec(&fm, &system, &item.spec)
            }
            (Some(kind), Some(d)) => {
                let fm = FaultyModel::new(&base, kind, 0);
                let dm = DeadlineModel::new(&fm, d);
                let out = self.run_spec(&dm, &system, &item.spec);
                if dm.fired() {
                    SERVE_DEADLINE_EXCEEDED.add(1);
                    return Err(ErrBody::new(
                        "deadline_exceeded",
                        "deadline expired mid-solve",
                    ));
                }
                out
            }
        }
    }

    fn run_spec<M: CoolingModel>(
        &self,
        model: &M,
        system: &CoolingSystem,
        spec: &SolveSpec,
    ) -> Result<String, ErrBody> {
        match spec.kind {
            SolveKind::Steady => steady_payload(model, spec),
            SolveKind::Optimize => {
                let outcome = self
                    .oftec
                    .run_on_model(model, system.t_max())
                    .map_err(|e| ErrBody::from_oftec(&e))?;
                optimize_payload(&outcome, spec)
            }
            SolveKind::Sweep => {
                let grid = SweepGrid {
                    omega_points: spec.omega_points,
                    current_points: spec.current_points,
                };
                // One thread: the batch itself is the parallel axis, and
                // the single-thread sweep is bit-identical to any other
                // thread count anyway.
                let result = grid.run_threaded(model, 1);
                let payload = SweepPayload {
                    benchmark: spec.benchmark.name().to_string(),
                    scale: spec.scale,
                    omega_points: result.omega_points,
                    current_points: result.current_points,
                    runaway_fraction: result.runaway_fraction(),
                    samples: result.samples,
                };
                serde_json::to_string(&payload).map_err(internal)
            }
        }
    }
}

fn steady_payload<M: CoolingModel>(model: &M, spec: &SolveSpec) -> Result<String, ErrBody> {
    let op = OperatingPoint::new(
        AngularVelocity::from_rpm(spec.rpm),
        Current::from_amperes(spec.amps),
    );
    let to_err =
        |e: ThermalError| ErrBody::from_oftec(&OftecError::from(e).with_operating_point(op));
    model.validate_operating_point(op).map_err(to_err)?;
    let sol = model.solve(op).map_err(to_err)?;
    let breakdown = sol.breakdown();
    let payload = SteadyPayload {
        benchmark: spec.benchmark.name().to_string(),
        scale: spec.scale,
        rpm: spec.rpm,
        amps: spec.amps,
        max_temp_c: finite(sol.max_chip_temperature().celsius(), "max temperature")?,
        power_w: finite(breakdown.objective().watts(), "objective power")?,
        leakage_w: finite(breakdown.leakage.watts(), "leakage power")?,
        tec_w: finite(breakdown.tec.watts(), "TEC power")?,
        fan_w: finite(breakdown.fan.watts(), "fan power")?,
        solver_iterations: sol.solver_iterations(),
    };
    serde_json::to_string(&payload).map_err(internal)
}

fn optimize_payload(outcome: &OftecOutcome, spec: &SolveSpec) -> Result<String, ErrBody> {
    let payload = match outcome {
        OftecOutcome::Optimized(sol) => {
            let OftecSolution {
                operating_point,
                cooling_power,
                max_temperature,
                used_phase1,
                thermal_solves,
                ..
            } = sol;
            OptimizePayload {
                benchmark: spec.benchmark.name().to_string(),
                scale: spec.scale,
                feasible: true,
                rpm: Some(finite(operating_point.fan_speed.rpm(), "fan speed")?),
                amps: Some(finite(
                    operating_point.tec_current.amperes(),
                    "TEC current",
                )?),
                power_w: Some(finite(cooling_power.watts(), "cooling power")?),
                max_temp_c: finite(max_temperature.celsius(), "max temperature")?,
                used_phase1: Some(*used_phase1),
                thermal_solves: Some(*thermal_solves),
                solver_error: None,
            }
        }
        OftecOutcome::Infeasible(report) => {
            let InfeasibleReport {
                operating_point,
                best_temperature,
                solver_error,
                ..
            } = report;
            OptimizePayload {
                benchmark: spec.benchmark.name().to_string(),
                scale: spec.scale,
                feasible: false,
                rpm: Some(finite(operating_point.fan_speed.rpm(), "fan speed")?),
                amps: Some(finite(
                    operating_point.tec_current.amperes(),
                    "TEC current",
                )?),
                power_w: None,
                max_temp_c: finite(best_temperature.celsius(), "best temperature")?,
                used_phase1: None,
                thermal_solves: None,
                solver_error: solver_error.clone(),
            }
        }
    };
    serde_json::to_string(&payload).map_err(internal)
}

/// Direct (unbatched, uncached) solve of a spec against a package
/// configuration — the reference the integration tests compare batched
/// responses against, and the engine the CLI's one-shot commands could
/// share. Returns the payload JSON exactly as the server would.
pub fn reference_payload(
    package: &PackageConfig,
    spec: &SolveSpec,
    t_max_override: Option<Temperature>,
) -> Result<String, ErrBody> {
    let base = CoolingSystem::for_benchmark_with_config(spec.benchmark, package);
    #[expect(
        clippy::float_cmp,
        reason = "exact sentinel: must mirror the registry's bit-equality test so both paths build the same system"
    )]
    let system = if spec.scale == 1.0 {
        base
    } else {
        base.scaled(spec.scale)
    };
    let reduced = system.reduced_tec_model();
    let model: &dyn CoolingModel = &reduced;
    match spec.kind {
        SolveKind::Steady => steady_payload(&model, spec),
        SolveKind::Optimize => {
            let t_max = t_max_override.unwrap_or_else(|| system.t_max());
            let outcome = Oftec::default()
                .run_on_model(&model, t_max)
                .map_err(|e| ErrBody::from_oftec(&e))?;
            optimize_payload(&outcome, spec)
        }
        SolveKind::Sweep => {
            let grid = SweepGrid {
                omega_points: spec.omega_points,
                current_points: spec.current_points,
            };
            let result = grid.run_threaded(&model, 1);
            let payload = SweepPayload {
                benchmark: spec.benchmark.name().to_string(),
                scale: spec.scale,
                omega_points: result.omega_points,
                current_points: result.current_points,
                runaway_fraction: result.runaway_fraction(),
                samples: result.samples,
            };
            serde_json::to_string(&payload).map_err(internal)
        }
    }
}
