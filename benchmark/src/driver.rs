//! Load drivers: an open loop that sends on a seeded schedule and times
//! each request from its due time, and a closed loop that sends the next
//! request when the previous answer arrives. Every answer is checked
//! against the oracle as it arrives.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use dssddi_core::{CheckPrescriptionRequest, SuggestRequest};
use dssddi_serving::{Client, ModelKey};

use crate::oracle::{same_report, same_suggestion, Expected};
use crate::workload::{Op, Timed, BATCH_K};
use crate::world::Patients;

/// Everything a driver needs to send requests and check the answers.
pub struct Target<'a> {
    /// Gateway address.
    pub addr: SocketAddr,
    /// Shard key.
    pub key: &'a ModelKey,
    /// Held-out patients the operations index into.
    pub patients: &'a Patients,
    /// Reference answers.
    pub expected: &'a Expected,
    /// Model container shipped by `ReloadModel`.
    pub container: &'a [u8],
    /// KB container shipped by `ReloadKb`.
    pub kb_container: &'a [u8],
}

/// What kind of operation a sample timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Single-patient suggestion.
    Suggest,
    /// Prescription critique.
    Check,
    /// Suggestion batch.
    Batch,
    /// Model or KB reload.
    Write,
}

/// How an operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and the answer matches the oracle.
    Ok,
    /// Transport error or typed error frame (including a shed).
    Failed,
    /// Answered, but the answer differs from the oracle.
    Mismatch,
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Position of the operation in the phase's operation list.
    pub index: usize,
    /// Operation kind.
    pub kind: Kind,
    /// Latency from the scheduled send (open loop) or the actual send
    /// (closed loop) to the answer, in microseconds.
    pub latency_us: f64,
    /// Actual send to answer, in microseconds: the client round trip.
    pub rt_us: f64,
    /// How late the send was against its schedule, in microseconds.
    pub lag_us: f64,
    /// How the operation ended.
    pub outcome: Outcome,
    /// When the request was actually sent.
    pub sent: Instant,
}

impl Phase {
    /// Completion offsets from the phase start, in seconds, of the
    /// successful operations.
    pub fn completions(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.outcome == Outcome::Ok)
            .map(|s| s.sent.saturating_duration_since(self.start).as_secs_f64() + s.rt_us / 1e6)
            .collect()
    }
}

impl Sample {
    /// The live send instant and round trip, the root of a traced request.
    pub fn live(&self) -> (Instant, Duration) {
        (self.sent, Duration::from_secs_f64(self.rt_us / 1e6))
    }
}

/// The samples of one phase.
#[derive(Debug)]
pub struct Phase {
    /// One sample per operation sent, ordered by operation index.
    pub samples: Vec<Sample>,
    /// Wall time of the phase, first send to last answer.
    pub elapsed: Duration,
    /// When the phase started.
    pub start: Instant,
    /// The first few failure and mismatch messages.
    pub errors: Vec<String>,
}

/// Errors kept per phase for the report.
const KEPT_ERRORS: usize = 5;

enum Prepared {
    Suggest(SuggestRequest, usize, usize),
    Check(CheckPrescriptionRequest, usize),
    Batch(Vec<SuggestRequest>, Vec<usize>),
    ReloadModel,
    ReloadKb,
}

impl Target<'_> {
    fn prepare(&self, op: &Op) -> Prepared {
        match op {
            Op::Suggest { patient, k } => {
                Prepared::Suggest(self.patients.suggest(*patient, *k), *patient, *k)
            }
            Op::Check { patient } => Prepared::Check(self.patients.check(*patient), *patient),
            Op::Batch { patients } => Prepared::Batch(
                patients
                    .iter()
                    .map(|&p| self.patients.suggest(p, BATCH_K))
                    .collect(),
                patients.clone(),
            ),
            Op::ReloadModel => Prepared::ReloadModel,
            Op::ReloadKb => Prepared::ReloadKb,
        }
    }

    /// Sends one prepared operation and checks the answer. The returned
    /// instant is when the answer arrived (before the oracle ran).
    fn execute(
        &self,
        client: &mut Client,
        prepared: &Prepared,
    ) -> (Instant, Result<(), (Outcome, String)>) {
        let failed = |e: dssddi_serving::ServingError| (Outcome::Failed, e.to_string());
        let mismatch = |what: String| (Outcome::Mismatch, what);
        match prepared {
            Prepared::Suggest(request, patient, k) => {
                let answer = client.suggest(self.key, request);
                let done = Instant::now();
                let verdict = answer.map_err(failed).and_then(|got| {
                    let want = self.expected.suggest(*patient, *k).ok_or_else(|| {
                        mismatch(format!("no reference for patient {patient} k {k}"))
                    })?;
                    same_suggestion(&got, want)
                        .map_err(|e| mismatch(format!("suggest patient {patient} k {k}: {e}")))
                });
                (done, verdict)
            }
            Prepared::Check(request, patient) => {
                let answer = client.check_prescription(self.key, request);
                let done = Instant::now();
                let verdict = answer.map_err(failed).and_then(|got| {
                    let want = self.expected.check(*patient).ok_or_else(|| {
                        mismatch(format!("no reference critique for patient {patient}"))
                    })?;
                    same_report(&got, want)
                        .map_err(|e| mismatch(format!("critique patient {patient}: {e}")))
                });
                (done, verdict)
            }
            Prepared::Batch(requests, patients) => {
                let answer = client.suggest_batch(self.key, requests);
                let done = Instant::now();
                let verdict = answer.map_err(failed).and_then(|got| {
                    if got.len() != patients.len() {
                        return Err(mismatch(format!(
                            "batch of {} answered with {}",
                            patients.len(),
                            got.len()
                        )));
                    }
                    for (answer, &patient) in got.iter().zip(patients) {
                        let want = self.expected.suggest(patient, BATCH_K).ok_or_else(|| {
                            mismatch(format!("no reference for patient {patient}"))
                        })?;
                        same_suggestion(answer, want)
                            .map_err(|e| mismatch(format!("batch patient {patient}: {e}")))?;
                    }
                    Ok(())
                });
                (done, verdict)
            }
            Prepared::ReloadModel => {
                let answer = client.reload_model(self.key, self.container);
                let done = Instant::now();
                let verdict = answer.map_err(failed).and_then(|info| {
                    if info.fitted && info.key == *self.key {
                        Ok(())
                    } else {
                        Err(mismatch(format!("model reload answered {info:?}")))
                    }
                });
                (done, verdict)
            }
            Prepared::ReloadKb => {
                let answer = client.reload_kb(self.key, self.kb_container);
                (Instant::now(), answer.map(|_| ()).map_err(failed))
            }
        }
    }
}

fn kind_of(op: &Op) -> Kind {
    match op {
        Op::Suggest { .. } => Kind::Suggest,
        Op::Check { .. } => Kind::Check,
        Op::Batch { .. } => Kind::Batch,
        Op::ReloadModel | Op::ReloadKb => Kind::Write,
    }
}

/// Returns at `due`, yielding in a loop rather than sleeping. A thread
/// woken from sleep on an idle virtual CPU can start milliseconds late, and
/// that lateness would be charged to the gateway; a yielding thread keeps
/// its CPU awake and gives way to any gateway thread that becomes runnable.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Worker-local results, merged into a [`Phase`].
#[derive(Default)]
struct Tally {
    samples: Vec<Sample>,
    errors: Vec<String>,
    last: Option<Instant>,
}

impl Tally {
    fn record(&mut self, sample: Sample, verdict: Result<(), (Outcome, String)>, done: Instant) {
        let outcome = match verdict {
            Ok(()) => Outcome::Ok,
            Err((outcome, message)) => {
                if self.errors.len() < KEPT_ERRORS {
                    self.errors.push(message);
                }
                outcome
            }
        };
        self.samples.push(Sample { outcome, ..sample });
        self.last = Some(self.last.map_or(done, |last| last.max(done)));
    }
}

fn merge(tallies: Vec<Tally>, start: Instant) -> Phase {
    let mut samples = Vec::new();
    let mut errors = Vec::new();
    let mut last = start;
    for tally in tallies {
        samples.extend(tally.samples);
        errors.extend(tally.errors);
        last = tally.last.map_or(last, |t| t.max(last));
    }
    samples.sort_by_key(|s: &Sample| s.index);
    errors.truncate(KEPT_ERRORS);
    Phase {
        samples,
        elapsed: last.saturating_duration_since(start),
        start,
        errors,
    }
}

/// Runs `connections` workers over scoped threads, each with its own
/// gateway connection, released together once every one is connected.
fn with_workers(
    target: &Target,
    connections: usize,
    work: impl Fn(usize, &mut Client, Instant) -> Tally + Sync,
) -> Result<Phase, String> {
    // Workers connect, then wait until the start instant is fixed, so no
    // connection set-up lands inside the timed phase.
    let connected = Barrier::new(connections + 1);
    let released = Barrier::new(connections + 1);
    let start_slot = OnceLock::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|w| {
                let (connected, released, start_slot, work) =
                    (&connected, &released, &start_slot, &work);
                s.spawn(move || -> Result<Tally, String> {
                    let client = Client::connect(target.addr);
                    connected.wait();
                    released.wait();
                    let mut client = client.map_err(|e| format!("connect: {e}"))?;
                    let start = start_slot.get().copied().unwrap_or_else(Instant::now);
                    Ok(work(w, &mut client, start))
                })
            })
            .collect();
        connected.wait();
        // A short margin so every worker has left the barrier before the
        // first due time.
        let start = Instant::now() + Duration::from_millis(5);
        let _ = start_slot.set(start);
        released.wait();
        let tallies: Result<Vec<Tally>, String> = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "driver thread panicked".to_string())?)
            .collect();
        tallies.map(|t| merge(t, start))
    })
}

/// Open loop over a pool of connections: the first connection to fall
/// idle takes the next operation in schedule order and sends it at its due
/// time. Each operation is timed from that due time, so when every
/// connection is busy the wait counts against the requests queued behind.
pub fn open_loop(target: &Target, stream: &[Timed], connections: usize) -> Result<Phase, String> {
    let next = AtomicUsize::new(0);
    with_workers(target, connections, |_, client, start| {
        let mut tally = Tally::default();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(timed) = stream.get(index) else {
                break;
            };
            let prepared = target.prepare(&timed.op);
            let due = start + timed.at;
            wait_until(due);
            let sent = Instant::now();
            let (done, verdict) = target.execute(client, &prepared);
            let sample = Sample {
                index,
                kind: kind_of(&timed.op),
                latency_us: micros(done.saturating_duration_since(due)),
                rt_us: micros(done - sent),
                lag_us: micros(sent.saturating_duration_since(due)),
                outcome: Outcome::Ok,
                sent,
            };
            tally.record(sample, verdict, done);
        }
        tally
    })
}

/// Closed loop: each connection sends its share of `ops` (cycling) back to
/// back until `length` has passed.
pub fn closed_loop(
    target: &Target,
    ops: &[Op],
    connections: usize,
    length: Duration,
) -> Result<Phase, String> {
    if ops.is_empty() {
        return Err("closed loop needs at least one operation".to_string());
    }
    with_workers(target, connections, |w, client, start| {
        let mut tally = Tally::default();
        let mut index = w;
        let mut ready = start;
        while start.elapsed() < length {
            let op = &ops[index % ops.len()];
            let prepared = target.prepare(op);
            let sent = Instant::now();
            let (done, verdict) = target.execute(client, &prepared);
            let rt = micros(done - sent);
            // A closed loop has no schedule: its lag is the generator's own
            // time between an answer and the next send.
            let sample = Sample {
                index,
                kind: kind_of(op),
                latency_us: rt,
                rt_us: rt,
                lag_us: micros(sent.saturating_duration_since(ready)),
                outcome: Outcome::Ok,
                sent,
            };
            tally.record(sample, verdict, done);
            ready = Instant::now();
            index += connections;
        }
        tally
    })
}

/// Sends `ops` once, in order, over one connection (warm-up and probes).
pub fn sequential(target: &Target, ops: &[Op]) -> Result<Phase, String> {
    with_workers(target, 1, |_, client, _| {
        let mut tally = Tally::default();
        for (index, op) in ops.iter().enumerate() {
            let prepared = target.prepare(op);
            let sent = Instant::now();
            let (done, verdict) = target.execute(client, &prepared);
            let rt = micros(done - sent);
            let sample = Sample {
                index,
                kind: kind_of(op),
                latency_us: rt,
                rt_us: rt,
                lag_us: 0.0,
                outcome: Outcome::Ok,
                sent,
            };
            tally.record(sample, verdict, done);
        }
        tally
    })
}
