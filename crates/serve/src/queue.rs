//! Admission control: a bounded job queue with micro-batch dequeue.
//!
//! Connection threads `try_push` jobs; a full queue is an immediate
//! typed `overloaded` rejection (clients see backpressure instead of
//! unbounded latency). The single dispatcher thread `pop_batch`es:
//! block for the first job, then take everything else already queued, up
//! to [`BATCH_MAX`], so concurrent requests amortize onto one
//! scoped-thread executor dispatch without holding a lone request back.
//!
//! `close` flips the queue into drain mode — pushes are rejected with
//! `shutting_down`, but everything already admitted is still handed to
//! the dispatcher, which is what makes shutdown graceful.
//!
//! Admission is **deadline-aware**: jobs whose deadline has already
//! passed are purged at push and pop time (answered `deadline_exceeded`,
//! freeing their slot, instead of occupying capacity until dequeue), an
//! arriving job predicted to miss its deadline — queue depth times the
//! dispatcher's EWMA service time exceeds its remaining budget — is shed
//! immediately as [`PushError::WouldMiss`], and when the queue is full a
//! queued job that is predicted to miss is evicted in favor of a live
//! arrival rather than rejecting the newest request.

use crate::engine::SERVE_DEADLINE_EXCEEDED;
use crate::protocol::{ErrBody, SolveSpec};
use crate::trace::TraceContext;
use oftec_telemetry::Counter;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Jobs whose deadline expired while queued, purged at push/pop.
pub static QUEUE_EXPIRED: Counter = Counter::new("serve.queue.expired");
/// Queued jobs evicted (predicted to miss) to admit a live arrival.
pub static QUEUE_EVICTED: Counter = Counter::new("serve.queue.evicted");

/// Most jobs one `pop_batch` hands the dispatcher.
pub const BATCH_MAX: usize = 32;

/// What the engine sends back per job: the solve result plus the job's
/// finished trace (stage stamps and outcome filled in by the engine).
pub type JobReply = (Result<String, ErrBody>, TraceContext);

/// One admitted solve request: the spec, its deadline, its trace, and
/// the channel the engine answers on.
#[derive(Debug)]
pub struct Job {
    pub spec: SolveSpec,
    /// Absolute deadline; expired jobs are rejected at dequeue and at
    /// iteration granularity inside the solve.
    pub deadline: Option<Instant>,
    pub enqueued: Instant,
    /// Request-scoped trace, stamped as the job moves through stages.
    pub trace: TraceContext,
    pub reply: Sender<JobReply>,
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// Queue at capacity: the caller should answer `overloaded`.
    Full,
    /// Queue closed for shutdown: answer `shutting_down`.
    Closed,
    /// The job's deadline has passed, or the predicted queue wait exceeds
    /// its remaining budget: answer `deadline_exceeded` without wasting a
    /// slot on work that cannot finish in time.
    WouldMiss,
}

struct State {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The shared queue. Lock poisoning is recovered: the state is a plain
/// deque with no cross-field invariants.
pub struct JobQueue {
    capacity: usize,
    state: Mutex<State>,
    wake: Condvar,
    /// EWMA of per-job dispatcher service time in nanoseconds (0 = no
    /// sample yet). Fed by [`JobQueue::record_service`]; read by admission
    /// to predict whether a deadline can still be met.
    service_ewma_ns: AtomicU64,
}

/// Answers a job whose deadline cannot be met: closes its queue stage,
/// sets the `deadline` outcome, and sends the typed rejection. The send
/// never blocks (mpsc is unbounded), so calling this under the queue lock
/// is safe.
fn reply_deadline(mut job: Job, message: &str) {
    SERVE_DEADLINE_EXCEEDED.add(1);
    job.trace.stage("queue");
    job.trace.set_outcome("deadline");
    let err = ErrBody::new("deadline_exceeded", message.to_string());
    let trace = job.trace.clone();
    let _ = job.reply.send((Err(err), trace));
}

impl JobQueue {
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                closed: false,
            }),
            wake: Condvar::new(),
            service_ewma_ns: AtomicU64::new(0),
        }
    }

    /// Feeds one per-job service-time sample (dispatcher wall time divided
    /// by batch size) into the admission EWMA. Allocation-free: checked
    /// by `tests/hot_paths_alloc_free.rs`.
    pub fn record_service(&self, ns_per_job: u64) {
        let prev = self.service_ewma_ns.load(Ordering::Relaxed);
        let next = if prev == 0 {
            ns_per_job
        } else {
            (3 * prev + ns_per_job) / 4
        };
        self.service_ewma_ns.store(next, Ordering::Relaxed);
    }

    /// Current per-job service-time estimate (0 until the first sample).
    /// Allocation-free: checked by `tests/hot_paths_alloc_free.rs`.
    pub fn service_estimate_ns(&self) -> u64 {
        self.service_ewma_ns.load(Ordering::Relaxed)
    }

    /// Removes every queued job whose deadline has already passed,
    /// answering each `deadline_exceeded`. Caller holds the state lock.
    fn purge_expired(st: &mut State, now: Instant) {
        if st.jobs.iter().all(|j| j.deadline.is_none()) {
            return;
        }
        let mut i = 0;
        while i < st.jobs.len() {
            if st.jobs[i].deadline.is_some_and(|d| now >= d) {
                if let Some(job) = st.jobs.remove(i) {
                    QUEUE_EXPIRED.add(1);
                    reply_deadline(job, "deadline expired while queued");
                }
            } else {
                i += 1;
            }
        }
    }

    /// Admits `job` unless the queue is full or closed, or the job is
    /// predicted to miss its deadline. Never blocks. On refusal the job
    /// is handed back so the caller can finish its trace and answer on
    /// its reply channel.
    ///
    /// Before judging capacity, deadline-expired jobs are purged (they
    /// free their slots and are answered `deadline_exceeded`); on a full
    /// queue, a queued job predicted to miss its deadline is evicted in
    /// favor of the live arrival before `Full` is returned.
    #[expect(
        clippy::result_large_err,
        reason = "the refused Job must come back to the caller"
    )]
    pub fn try_push(&self, job: Job) -> Result<(), (PushError, Job)> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.closed {
            return Err((PushError::Closed, job));
        }
        let now = Instant::now();
        Self::purge_expired(&mut st, now);
        let ewma = self.service_ewma_ns.load(Ordering::Relaxed);
        if let Some(d) = job.deadline {
            // Shed work that cannot finish in time: already expired, or
            // the predicted wait behind the current queue exceeds the
            // remaining budget.
            let predicted_wait =
                Duration::from_nanos(ewma.saturating_mul(st.jobs.len() as u64 + 1));
            if now >= d || (ewma > 0 && now + predicted_wait >= d) {
                return Err((PushError::WouldMiss, job));
            }
        }
        if st.jobs.len() >= self.capacity {
            // Prefer evicting a queued job that will miss its deadline
            // anyway over rejecting the live arrival.
            let victim = (ewma > 0)
                .then(|| {
                    st.jobs.iter().position(|j| {
                        j.deadline.is_some_and(|d| {
                            now + Duration::from_nanos(ewma.saturating_mul(1)) >= d
                        })
                    })
                })
                .flatten();
            match victim.and_then(|i| st.jobs.remove(i)) {
                Some(doomed) => {
                    QUEUE_EVICTED.add(1);
                    reply_deadline(
                        doomed,
                        "deadline shed under load: predicted to expire queued",
                    );
                }
                None => return Err((PushError::Full, job)),
            }
        }
        st.jobs.push_back(job);
        drop(st);
        self.wake.notify_one();
        Ok(())
    }

    /// Blocks for the next micro-batch: waits for a first job, then
    /// takes every job already queued, up to [`BATCH_MAX`], without
    /// waiting for more. Returns `None` only once the queue is closed
    /// *and* drained — the dispatcher finishes all admitted work first.
    pub fn pop_batch(&self) -> Option<Vec<Job>> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            let mut batch = Vec::with_capacity(st.jobs.len().min(BATCH_MAX));
            while batch.len() < BATCH_MAX {
                let Some(job) = st.jobs.pop_front() else {
                    break;
                };
                // Dequeue-side purge: a job that expired while queued is
                // answered here instead of being handed to the engine.
                if job.deadline.is_some_and(|d| Instant::now() >= d) {
                    QUEUE_EXPIRED.add(1);
                    reply_deadline(job, "deadline expired while queued");
                    continue;
                }
                batch.push(job);
            }
            if !batch.is_empty() {
                return Some(batch);
            }
            if st.closed {
                return None;
            }
            st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops admissions. Already-queued jobs still reach the dispatcher.
    pub fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.wake.notify_all();
    }

    /// Jobs currently waiting (not yet dispatched).
    pub fn depth(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .jobs
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SolveKind;
    use oftec_power::Benchmark;
    use std::sync::mpsc;
    use std::sync::Arc;

    fn job() -> (Job, mpsc::Receiver<JobReply>) {
        let (tx, rx) = mpsc::channel();
        (
            Job {
                spec: SolveSpec {
                    kind: SolveKind::Steady,
                    benchmark: Benchmark::Quicksort,
                    scale: 1.0,
                    rpm: 0.0,
                    amps: 0.0,
                    omega_points: 0,
                    current_points: 0,
                    no_cache: false,
                    deadline_ms: None,
                },
                deadline: None,
                enqueued: Instant::now(),
                trace: TraceContext::new(1, 1),
                reply: tx,
            },
            rx,
        )
    }

    #[test]
    fn full_queue_rejects_with_overload() {
        let q = JobQueue::new(2);
        let (j1, _r1) = job();
        let (j2, _r2) = job();
        let (j3, _r3) = job();
        q.try_push(j1).unwrap();
        q.try_push(j2).unwrap();
        let (e, back) = q.try_push(j3).unwrap_err();
        assert_eq!(e, PushError::Full);
        // The refused job comes back intact (trace and reply included).
        assert_eq!((back.trace.conn(), back.trace.seq()), (1, 1));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn close_rejects_pushes_but_drains_queue() {
        let q = JobQueue::new(8);
        let (j1, _r1) = job();
        q.try_push(j1).unwrap();
        q.close();
        let (j2, _r2) = job();
        assert_eq!(q.try_push(j2).unwrap_err().0, PushError::Closed);
        // The admitted job still comes out...
        assert_eq!(q.pop_batch().map(|b| b.len()), Some(1));
        // ...and only then does the queue report done.
        assert!(q.pop_batch().is_none());
    }

    #[test]
    fn batch_takes_everything_queued_up_to_the_cap() {
        let q = JobQueue::new(2 * BATCH_MAX);
        let mut rxs = Vec::new();
        let mut push = |n: usize| {
            for _ in 0..n {
                let (j, r) = job();
                q.try_push(j).unwrap();
                rxs.push(r);
            }
        };
        // Jobs already queued leave in one batch, and the open queue does
        // not hold it back waiting for more.
        push(3);
        assert_eq!(q.pop_batch().map(|b| b.len()), Some(3));
        // The cap bounds a batch; the rest leave in the next one.
        push(BATCH_MAX + 5);
        assert_eq!(q.pop_batch().map(|b| b.len()), Some(BATCH_MAX));
        assert_eq!(q.pop_batch().map(|b| b.len()), Some(5));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn pop_blocks_until_work_arrives() {
        let q = Arc::new(JobQueue::new(8));
        let q2 = Arc::clone(&q);
        #[expect(
            clippy::disallowed_methods,
            reason = "a blocked consumer on a second plain thread"
        )]
        let t = std::thread::spawn(move || q2.pop_batch().map(|b| b.len()));
        std::thread::sleep(Duration::from_millis(20));
        let (j, _r) = job();
        q.try_push(j).unwrap();
        assert_eq!(t.join().unwrap(), Some(1));
    }

    fn job_with_deadline(deadline: Option<Instant>) -> (Job, mpsc::Receiver<JobReply>) {
        let (j, r) = job();
        (Job { deadline, ..j }, r)
    }

    fn expect_deadline_reply(rx: &mpsc::Receiver<JobReply>) {
        let (result, trace) = rx
            .recv_timeout(Duration::from_secs(1))
            .expect("purged job must be answered");
        match result {
            Err(e) => assert_eq!(e.kind, "deadline_exceeded"),
            Ok(_) => panic!("expired job must not succeed"),
        }
        assert_eq!(trace.outcome(), "deadline");
    }

    #[test]
    fn expired_jobs_are_purged_at_push() {
        let q = JobQueue::new(2);
        let (ja, ra) = job_with_deadline(Some(Instant::now() + Duration::from_millis(2)));
        q.try_push(ja).unwrap();
        let (jb, _rb) = job();
        q.try_push(jb).unwrap();
        assert_eq!(q.depth(), 2);
        std::thread::sleep(Duration::from_millis(5));
        // The queue is nominally full, but the expired job is purged at
        // push — the live arrival is admitted, not rejected `overloaded`.
        let before = QUEUE_EXPIRED.get();
        let (jc, _rc) = job();
        q.try_push(jc)
            .expect("purge must free the expired job's slot");
        assert!(QUEUE_EXPIRED.get() > before);
        expect_deadline_reply(&ra);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn expired_jobs_are_purged_at_pop() {
        let q = JobQueue::new(8);
        let (ja, ra) = job_with_deadline(Some(Instant::now() + Duration::from_millis(2)));
        q.try_push(ja).unwrap();
        let (jb, _rb) = job();
        q.try_push(jb).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        // The expired job is answered at dequeue; only the live one
        // reaches the dispatcher's batch.
        let batch = q.pop_batch().expect("live job still queued");
        assert_eq!(batch.len(), 1);
        assert!(batch[0].deadline.is_none());
        expect_deadline_reply(&ra);
    }

    #[test]
    fn predicted_misses_are_shed_at_admission() {
        let q = JobQueue::new(8);
        // Already-expired deadlines are shed outright, even with no
        // service-time estimate yet.
        let (ja, _ra) = job_with_deadline(Some(Instant::now() - Duration::from_millis(1)));
        assert_eq!(q.try_push(ja).unwrap_err().0, PushError::WouldMiss);
        // With a 10 ms per-job estimate, a 2 ms budget cannot be met.
        q.record_service(10_000_000);
        let (jb, _rb) = job_with_deadline(Some(Instant::now() + Duration::from_millis(2)));
        assert_eq!(q.try_push(jb).unwrap_err().0, PushError::WouldMiss);
        // A generous budget is still admitted.
        let (jc, _rc) = job_with_deadline(Some(Instant::now() + Duration::from_secs(5)));
        q.try_push(jc).expect("meetable deadline must be admitted");
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn full_queue_evicts_doomed_job_for_live_arrival() {
        let q = JobQueue::new(2);
        // Admit a tight-deadline job while no service estimate exists...
        let (ja, ra) = job_with_deadline(Some(Instant::now() + Duration::from_millis(50)));
        q.try_push(ja).unwrap();
        let (jb, _rb) = job();
        q.try_push(jb).unwrap();
        // ...then learn that a job costs ~60 ms: the queued 50 ms job is
        // now predicted to miss, so a live arrival evicts it instead of
        // being rejected `overloaded`.
        q.record_service(60_000_000);
        let before = QUEUE_EVICTED.get();
        let (jc, _rc) = job();
        q.try_push(jc)
            .expect("doomed job must be evicted for live work");
        assert!(QUEUE_EVICTED.get() > before);
        expect_deadline_reply(&ra);
        assert_eq!(q.depth(), 2);
        // With nothing left to evict, a full queue still answers Full.
        let (jd, _rd) = job();
        assert_eq!(q.try_push(jd).unwrap_err().0, PushError::Full);
    }

    #[test]
    fn service_ewma_converges_on_samples() {
        let q = JobQueue::new(8);
        assert_eq!(q.service_estimate_ns(), 0);
        q.record_service(1000);
        assert_eq!(q.service_estimate_ns(), 1000);
        q.record_service(2000);
        // (3*1000 + 2000) / 4
        assert_eq!(q.service_estimate_ns(), 1250);
    }
}
