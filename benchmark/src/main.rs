//! The DSSDDI repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload clinic|ward_batch|reload_churn --seed N --seconds S --trace 0|1
//! ```
//!
//! One run builds the paper-scale world (86-drug formulary, signed DDI
//! graph, 4157-patient cohort), fits the service on 60% of the cohort,
//! ships it as DSSD container bytes to a loopback gateway (`Router::new`,
//! no admission limits), and drives one workload at it from this process
//! over at most two connections. Every answer is checked against a
//! reference service loaded from the same container. The set-up runs
//! [`SETUP_REPS`] times and its median is reported.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics from an outside-in trace of the same inputs (see
//! [`trace`]) and writes every span to `.bench_out/`. Every metric is
//! printed by name with its unit; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. A run
//! whose answers differ from the oracle exits with code 1; a run that is
//! invalid (the generator fell behind, too few samples for a p99) prints
//! no result and exits with code 3.

mod driver;
mod oracle;
mod stats;
mod trace;
mod workload;
mod world;

use std::time::{Duration, Instant};

use dssddi_obs::global;
use dssddi_serving::Client;

use driver::{Kind, Outcome, Phase, Sample, Target};
use stats::{median, per_second, quantile, result_line, windowed, Metric};
use trace::Replay;
use workload::{Op, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Reads sent, untimed, to warm the explanation cache before timing.
const WARMUP_READS: usize = 6000;
/// Share of `--seconds` the `clinic` open loop gets; the saturation phase
/// gets the rest.
const CLINIC_OPEN_SHARE: f64 = 0.7;
/// Write probe after `clinic` and `ward_batch`: this many rounds of one
/// model reload and two KB reloads, the `reload_churn` write mix.
const WRITE_PROBE_ROUNDS: usize = 40;
/// A run whose open-loop generator sent its p99 request later than this
/// behind schedule is invalid.
const LAG_BOUND_MS: f64 = 100.0;
/// Successful reads per latency window: p50 and p99 are taken per
/// consecutive window of at least this many reads, so every window's p99
/// has at least ten samples beyond it.
const WINDOW_READS: usize = 1000;
/// Quantile across windows of the per-window p99 that `p99_ms` reports.
const P99_WINDOW_QUANTILE: f64 = 0.25;
/// Share of traced requests that must pass the self-time consistency
/// check (see `trace::CONSISTENCY_TOLERANCE`) for the trace to be valid.
const MIN_CONSISTENT: f64 = 0.75;
/// `ward_batch` frames of the traced half that are replayed.
const TRACED_BATCH_FRAMES: usize = 300;
/// Reads generated for `clinic`'s saturation phase (cycled if exhausted).
const SATURATION_OPS: usize = 100_000;
/// `ward_batch` frames generated per second of the run (cycled if
/// exhausted); about twice what the reference box completes.
const BATCH_FRAMES_PER_SECOND: usize = 500;

/// The end-to-end metrics, as `BENCHMARK.json` lists them.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "p50_ms",
    "p99_ms",
    "throughput_rps",
    "write_p50_ms",
    "peak_rss_mb",
];
/// The per-layer metrics, as `BENCHMARK.json` and `layers.json` list them.
const PER_LAYER: [&str; 40] = [
    "ms.explain_us",
    "ctc.search_us",
    "ctc.community_nodes",
    "ctc.community_edges",
    "ms.cache_hit_ratio",
    "ms.cache_entries",
    "md.score_us",
    "md.rows_per_call",
    "service.suggest_us",
    "service.check_us",
    "service.self_us",
    "kb.grade_us",
    "kb.pairs_per_check",
    "wire.encode_req_us",
    "wire.decode_req_us",
    "wire.encode_resp_us",
    "wire.decode_resp_us",
    "wire.req_bytes",
    "wire.resp_bytes",
    "router.serve_us",
    "router.self_us",
    "server.transport_us",
    "admission.queue_us",
    "admission.shed",
    "admission.queue_depth_hwm",
    "persist.model_decode_ms",
    "persist.model_bytes",
    "kb.decode_ms",
    "ms.index_build_ms",
    "setup.world_s",
    "setup.fit_s",
    "setup.load_s",
    "setup.bind_s",
    "gen.lag_p99_ms",
    "gen.sent",
    "gen.ok",
    "gen.failed",
    "error_ratio",
    "trace_overhead_ms",
    "trace.consistent_ratio",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seconds {value:?}: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("benchmark: {message}");
            std::process::exit(2);
        }
    }
}

/// Prefixes an error with what was being done.
fn context<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Count and sum of one gateway stage summary in the process registry.
fn stage_totals(stage: &str) -> (u64, f64) {
    let histogram = global()
        .histogram_with(
            "dssddi_serving_stage_micros",
            "Per-frame serving latency broken down by pipeline stage",
            &[("stage", stage)],
        )
        .snapshot();
    (histogram.count(), histogram.sum() as f64)
}

/// Gateway stage summaries read around the timed phase: admission
/// (`admit`, `queue`) and the routed call (`infer`).
const STAGES: [&str; 3] = ["admit", "queue", "infer"];

/// The operations of one timed phase and what the driver measured.
struct TimedPhase {
    /// Operation `i` is the one sample `i` timed.
    ops: Vec<Op>,
    phase: Phase,
    /// Open loop (timed from the schedule) rather than closed.
    open: bool,
}

impl TimedPhase {
    fn new(ops: &[Op], phase: Phase, open: bool) -> Self {
        let ops = (0..phase.samples.len())
            .map(|i| ops[i % ops.len()].clone())
            .collect();
        Self { ops, phase, open }
    }

    fn ok_reads(&self) -> impl Iterator<Item = &Sample> {
        self.phase
            .samples
            .iter()
            .filter(|s| s.kind != Kind::Write && s.outcome == Outcome::Ok)
    }

    fn read_latencies_ms(&self) -> Vec<f64> {
        self.ok_reads().map(|s| s.latency_us / 1e3).collect()
    }
}

/// Everything one run sent to the gateway after set-up, in order.
struct Traffic {
    warmup_ops: Vec<Op>,
    warmup: Phase,
    /// The timed phase; two halves (untraced, traced) in a traced run.
    timed: Vec<TimedPhase>,
    /// `clinic`'s closed-loop saturation phase (untraced runs only).
    saturation: Option<TimedPhase>,
    probe_ops: Vec<Op>,
    probe: Phase,
}

impl Traffic {
    fn phases(&self) -> impl Iterator<Item = &Phase> {
        std::iter::once(&self.warmup)
            .chain(self.timed.iter().map(|t| &t.phase))
            .chain(self.saturation.iter().map(|t| &t.phase))
            .chain(std::iter::once(&self.probe))
    }

    fn timed_samples(&self) -> impl Iterator<Item = &Sample> {
        self.timed.iter().flat_map(|t| &t.phase.samples)
    }

    /// Successful write round trips of `op`'s kind (or of both kinds), ms.
    fn writes_ms(&self, op: Option<&Op>) -> Vec<f64> {
        let timed = self
            .timed
            .iter()
            .flat_map(|t| t.ops.iter().zip(&t.phase.samples));
        timed
            .chain(self.probe_ops.iter().zip(&self.probe.samples))
            .filter(|(o, s)| {
                !o.is_read() && op.is_none_or(|op| op == *o) && s.outcome == Outcome::Ok
            })
            .map(|(_, s)| s.rt_us / 1e3)
            .collect()
    }
}

/// The untimed reads that warm the explanation cache before timing.
fn warmup_ops(args: &Args, patients: &world::Patients, critiquable: &[usize]) -> Vec<Op> {
    match args.workload {
        Workload::Clinic | Workload::ReloadChurn => {
            workload::warmup(args.seed, patients, critiquable, WARMUP_READS)
        }
        Workload::WardBatch => workload::batch_warmup(patients.ids.len())
            .into_iter()
            .map(|patients| Op::Batch { patients })
            .collect(),
    }
}

/// The timed phase of one workload, then `clinic`'s saturation phase.
fn drive(
    args: &Args,
    target: &Target,
    critiquable: &[usize],
) -> Result<(Vec<TimedPhase>, Option<TimedPhase>), String> {
    let (seed, patients) = (args.seed, target.patients);
    let seconds = Duration::from_secs(args.seconds);
    let halves = if args.trace { 2 } else { 1 };
    let mut timed = Vec::new();
    let mut saturation = None;
    match args.workload {
        Workload::Clinic | Workload::ReloadChurn => {
            let churn = args.workload == Workload::ReloadChurn;
            let rate = if churn {
                workload::CHURN_RATE
            } else {
                workload::CLINIC_RATE
            };
            // Untraced clinic runs end with the saturation phase.
            let length = if churn || args.trace {
                seconds
            } else {
                seconds.mul_f64(CLINIC_OPEN_SHARE)
            };
            let stream = workload::open_loop(seed, patients, critiquable, rate, length, churn);
            // A traced run sends the first half of the stream (by due time)
            // untraced and the second half traced.
            let cut = stream.partition_point(|t| t.at < length / halves);
            let parts = if args.trace {
                vec![&stream[..cut], &stream[cut..]]
            } else {
                vec![&stream[..]]
            };
            for part in parts.into_iter().filter(|p| !p.is_empty()) {
                let offset = part[0].at.saturating_sub(Duration::from_millis(1));
                let shifted: Vec<_> = part
                    .iter()
                    .map(|t| workload::Timed {
                        at: t.at - offset,
                        op: t.op.clone(),
                    })
                    .collect();
                let phase = driver::open_loop(target, &shifted, workload::CONNECTIONS)?;
                let ops: Vec<Op> = part.iter().map(|t| t.op.clone()).collect();
                timed.push(TimedPhase::new(&ops, phase, true));
            }
            if !churn && !args.trace {
                let ops = workload::closed(seed, patients, critiquable, SATURATION_OPS);
                let phase = driver::closed_loop(
                    target,
                    &ops,
                    workload::CONNECTIONS,
                    seconds.saturating_sub(length),
                )?;
                saturation = Some(TimedPhase::new(&ops, phase, false));
            }
        }
        Workload::WardBatch => {
            let frames: Vec<Op> = workload::batches(seed, patients.ids.len())
                .take(BATCH_FRAMES_PER_SECOND * args.seconds as usize)
                .map(|patients| Op::Batch { patients })
                .collect();
            let mut offset = 0;
            for _ in 0..halves {
                let ops = &frames[offset % frames.len()..];
                let phase = driver::closed_loop(target, ops, 1, seconds / halves)?;
                offset += phase.samples.len();
                timed.push(TimedPhase::new(ops, phase, false));
            }
        }
    }
    Ok((timed, saturation))
}

/// Gateway-side figures over the timed phase: its own `Stats` report and
/// the process registry's stage summaries.
struct GatewayView {
    cache_hits: u64,
    cache_lookups: u64,
    shed: u64,
    queue_depth_hwm: u64,
    /// Mean admission time (admit + queue stages) per data-plane frame.
    admission_us: f64,
    /// Frames and mean routed-call time of the `infer` stage.
    infer: (u64, f64),
}

impl GatewayView {
    fn read(target: &Target, before: &[(u64, f64); 3]) -> Result<Self, String> {
        let stats = Client::connect(target.addr)
            .and_then(|mut c| c.stats_report())
            .map_err(|e| format!("gateway stats: {e}"))?;
        let after = STAGES.map(stage_totals);
        let stage = |i: usize| (after[i].0 - before[i].0, after[i].1 - before[i].1);
        let models = stats.models.iter().map(|(_, m)| m);
        Ok(Self {
            cache_hits: models.clone().map(|m| m.cache_hits).sum(),
            cache_lookups: models.clone().map(|m| m.cache_hits + m.cache_misses).sum(),
            shed: models.clone().map(|m| m.shed_requests).sum(),
            queue_depth_hwm: models.map(|m| m.queue_depth_hwm).max().unwrap_or(0),
            admission_us: (stage(0).1 + stage(1).1) / stage(0).0.max(1) as f64,
            infer: (stage(2).0, stage(2).1 / stage(2).0.max(1) as f64),
        })
    }
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# dssddi benchmark: workload={} seed={} seconds={} trace={} git_rev={} rustc={:?} profile={} nproc={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("BENCH_GIT_REV"),
        env!("BENCH_RUSTC"),
        env!("BENCH_PROFILE"),
        nproc
    );
    let origin = Instant::now();

    // Set-up, several times; the last deployment is the one measured.
    let mut setups = Vec::new();
    let mut deployment: Option<world::Deployment> = None;
    for _ in 0..SETUP_REPS {
        let (d, times) = world::deploy()?;
        println!(
            "# setup: world {:.3} s, fit {:.3} s, load {:.3} s, bind {:.3} s, total {:.3} s",
            times.world_s,
            times.fit_s,
            times.load_s,
            times.bind_s,
            times.total_s()
        );
        setups.push(times);
        if let Some(mut previous) = deployment.replace(d) {
            previous.stop()?;
        }
    }
    let mut deployment = deployment.ok_or("no deployment")?;
    // Peak memory of the loaded system: set-up plus the first answers. The
    // traffic phases that follow add several MB of allocator caching whose
    // size depends on which threads served what, so the end-of-run figure
    // is printed for information only.
    let setup_rss_mb = peak_rss_mb()?;
    let setup_median = |f: fn(&world::SetupTimes) -> f64| {
        median(&setups.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };

    let (reference, reference_kb) = deployment.reference()?;
    let patients = &deployment.patients;
    let critiquable = workload::critiquable(patients);
    let with_checks = args.workload != Workload::WardBatch;
    let ks = if with_checks {
        workload::K_MIN..=workload::K_MAX
    } else {
        workload::BATCH_K..=workload::BATCH_K
    };
    let t = Instant::now();
    let expected = oracle::Expected::compute(&reference, &reference_kb, patients, ks, with_checks)?;
    println!(
        "# oracle: reference answers computed in {:.3} s",
        t.elapsed().as_secs_f64()
    );
    drop(reference);
    let target = Target {
        addr: deployment.addr,
        key: &deployment.key,
        patients,
        expected: &expected,
        container: &deployment.container,
        kb_container: &deployment.kb_container,
    };

    let warmup_ops = warmup_ops(&args, patients, &critiquable);
    let warmup = driver::sequential(&target, &warmup_ops)?;
    let before = STAGES.map(stage_totals);
    let (timed, saturation) = drive(&args, &target, &critiquable)?;
    // Read before the write probe: a model reload resets the shard's cache
    // counters.
    let gateway = GatewayView::read(&target, &before)?;
    let probe_ops: Vec<Op> = if args.workload == Workload::ReloadChurn {
        Vec::new()
    } else {
        (0..WRITE_PROBE_ROUNDS)
            .flat_map(|_| [Op::ReloadModel, Op::ReloadKb, Op::ReloadKb])
            .collect()
    };
    let probe = driver::sequential(&target, &probe_ops)?;
    let traffic = Traffic {
        warmup_ops,
        warmup,
        timed,
        saturation,
        probe_ops,
        probe,
    };

    // Accounting over everything the oracle checked.
    let count = |outcome: Outcome| -> u64 {
        traffic
            .phases()
            .flat_map(|p| &p.samples)
            .filter(|s| s.outcome == outcome)
            .count() as u64
    };
    let attempted: u64 = traffic.phases().map(|p| p.samples.len() as u64).sum();
    let (failed_ops, mismatches) = (count(Outcome::Failed), count(Outcome::Mismatch));
    let failed = failed_ops + mismatches;
    for message in traffic.phases().flat_map(|p| &p.errors) {
        println!("# error: {message}");
    }
    let sent = traffic.timed_samples().count();
    let ok = traffic
        .timed_samples()
        .filter(|s| s.outcome == Outcome::Ok)
        .count();
    println!(
        "# tally: attempted {attempted} (timed {sent}), ok {}, failed {failed_ops}, shed {}, oracle mismatches {mismatches}",
        attempted - failed,
        gateway.shed
    );
    for (i, t) in traffic.timed.iter().chain(&traffic.saturation).enumerate() {
        println!(
            "# phase {i}: {} ops in {:.3} s ({})",
            t.phase.samples.len(),
            t.phase.elapsed.as_secs_f64(),
            if t.open { "open loop" } else { "closed loop" }
        );
    }

    let mut invalid = Vec::new();
    let open_lags: Vec<f64> = traffic
        .timed
        .iter()
        .filter(|t| t.open)
        .flat_map(|t| &t.phase.samples)
        .map(|s| s.lag_us / 1e3)
        .collect();
    if let Some(lag) = quantile(&open_lags, 0.99).filter(|&lag| lag > LAG_BOUND_MS) {
        invalid.push(format!(
            "generator p99 lag {lag:.3} ms exceeds the {LAG_BOUND_MS} ms bound"
        ));
    }

    // The timed phase's read latencies (both halves in a traced run).
    let latencies_ms: Vec<f64> = traffic
        .timed
        .iter()
        .flat_map(TimedPhase::read_latencies_ms)
        .collect();
    let n = latencies_ms.len();
    if n < WINDOW_READS {
        invalid.push(format!(
            "{n} latency samples leave fewer than {} beyond the p99",
            WINDOW_READS / 100
        ));
    }
    let p50s = windowed(&latencies_ms, WINDOW_READS, median);
    let p99s = windowed(&latencies_ms, WINDOW_READS, |w| quantile(w, 0.99));
    let (throughput_phase, weight) = match args.workload {
        Workload::Clinic => (traffic.saturation.as_ref(), 1.0),
        Workload::WardBatch => (traffic.timed.first(), workload::BATCH_SIZE as f64),
        Workload::ReloadChurn => (traffic.timed.first(), 1.0),
    };
    let rates = throughput_phase.map_or(Vec::new(), |t| per_second(&t.phase.completions(), weight));
    let brief = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "# latency: {n} successful reads in {} windows of at least {WINDOW_READS}",
        p50s.len()
    );
    println!("# window p50 ms: {}", brief(&p50s));
    println!("# window p99 ms: {}", brief(&p99s));
    println!("# throughput per one-second slice: {}", brief(&rates));
    let [p50_ms, throughput_rps] = [&p50s, &rates].map(|v| median(v).unwrap_or(f64::NAN));
    // Scheduling stalls of the host (about 10 ms, several a minute on the
    // reference box) land in many windows and would decide a median; the
    // lower quartile reports the tail of the calmer windows, which the
    // program's own queueing still sets.
    let p99_ms = quantile(&p99s, P99_WINDOW_QUANTILE).unwrap_or(f64::NAN);
    let write_p50_ms = median(&traffic.writes_ms(None)).unwrap_or(f64::NAN);
    for op in [Op::ReloadModel, Op::ReloadKb] {
        let writes = traffic.writes_ms(Some(&op));
        println!(
            "# writes: {op:?} p50 {:.3} ms over {}",
            median(&writes).unwrap_or(f64::NAN),
            writes.len()
        );
    }
    println!(
        "# memory: VmHWM {setup_rss_mb:.3} MB after set-up, {:.3} MB at the end of the run",
        peak_rss_mb()?
    );
    println!(
        "# gateway cross-check: explanation cache {} hits / {} lookups, infer stage mean {:.1} us over {} frames",
        gateway.cache_hits, gateway.cache_lookups, gateway.infer.1, gateway.infer.0
    );

    let mut end_to_end = vec![
        Metric::new("setup_s", setup_median(world::SetupTimes::total_s), "s"),
        Metric::new("p50_ms", p50_ms, "ms"),
        Metric::new("p99_ms", p99_ms, "ms"),
    ];
    if !args.trace || args.workload != Workload::Clinic {
        end_to_end.push(Metric::new("throughput_rps", throughput_rps, "req/s"));
    }
    end_to_end.extend([
        Metric::new("write_p50_ms", write_p50_ms, "ms"),
        Metric::new("peak_rss_mb", setup_rss_mb, "MB"),
    ]);
    let timed_lags: Vec<f64> = traffic.timed_samples().map(|s| s.lag_us / 1e3).collect();
    let mut per_layer = vec![
        Metric::new("setup.world_s", setup_median(|t| t.world_s), "s"),
        Metric::new("setup.fit_s", setup_median(|t| t.fit_s), "s"),
        Metric::new("setup.load_s", setup_median(|t| t.load_s), "s"),
        Metric::new("setup.bind_s", setup_median(|t| t.bind_s), "s"),
        Metric::new(
            "gen.lag_p99_ms",
            quantile(&timed_lags, 0.99).unwrap_or(f64::NAN),
            "ms",
        ),
        Metric::new("gen.sent", sent as f64, "count"),
        Metric::new("gen.ok", ok as f64, "count"),
        Metric::new("gen.failed", (sent - ok) as f64, "count"),
        Metric::new(
            "error_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        Metric::new("admission.queue_us", gateway.admission_us, "us"),
        Metric::new("admission.shed", gateway.shed as f64, "count"),
        Metric::new(
            "admission.queue_depth_hwm",
            gateway.queue_depth_hwm as f64,
            "count",
        ),
        Metric::new(
            "persist.model_bytes",
            deployment.container.len() as f64,
            "bytes",
        ),
    ];

    let mut correct = failed == 0;
    if args.trace {
        let mut replay = Replay::new(
            &deployment.key,
            patients,
            &deployment.container,
            &deployment.kb_container,
            origin,
        )?;
        // Replay everything the gateway served, in order; trace the
        // readiness probe, the second timed half and the write probe.
        for (op, live) in deployment.ready_ops().iter().zip(deployment.ready_live) {
            replay.replay(op, Some(live))?;
        }
        for op in &traffic.warmup_ops {
            replay.replay(op, None)?;
        }
        for (half, t) in traffic.timed.iter().enumerate() {
            let traced = half + 1 == traffic.timed.len();
            for (i, (op, sample)) in t.ops.iter().zip(&t.phase.samples).enumerate() {
                if args.workload == Workload::WardBatch && traced && i >= TRACED_BATCH_FRAMES {
                    break;
                }
                replay.replay(op, traced.then(|| sample.live()))?;
            }
        }
        let cache_entries = replay.cache_entries();
        for (op, sample) in traffic.probe_ops.iter().zip(&traffic.probe.samples) {
            replay.replay(op, Some(sample.live()))?;
        }
        let (consistent, roots) = replay.trace.consistency();
        let consistent_ratio = consistent as f64 / roots.max(1) as f64;
        println!(
            "# trace: {roots} traced requests, {consistent} consistent within {} of their root",
            trace::CONSISTENCY_TOLERANCE
        );
        if consistent_ratio < MIN_CONSISTENT {
            invalid.push(format!(
                "only {consistent} of {roots} traced requests have self times summing to their root span"
            ));
        }
        let path = std::path::PathBuf::from(format!(
            ".bench_out/trace-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        replay.trace.write_tsv(&path)?;
        println!(
            "# trace: {} spans written to {}",
            replay.trace.spans.len(),
            path.display()
        );
        let half_p50 = |t: Option<&TimedPhase>| t.and_then(|t| median(&t.read_latencies_ms()));
        let overhead = half_p50(traffic.timed.last())
            .zip(half_p50(traffic.timed.first()))
            .map_or(f64::NAN, |(traced, untraced)| traced - untraced);
        let decode_ms: Vec<f64> = setups.iter().map(|t| t.model_decode_s * 1e3).collect();
        per_layer.extend(replay.layer_metrics(&decode_ms, cache_entries));
        per_layer.push(Metric::new("trace_overhead_ms", overhead, "ms"));
        per_layer.push(Metric::new(
            "trace.consistent_ratio",
            consistent_ratio,
            "ratio",
        ));
    }

    for m in end_to_end
        .iter()
        .chain(per_layer.iter().filter(|_| args.trace))
    {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    deployment.stop()?;
    let (metrics, listed): (&[Metric], &[&str]) = if args.trace {
        (&per_layer, &PER_LAYER)
    } else {
        (&end_to_end, &END_TO_END)
    };
    let mut printed: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    let mut expected: Vec<&str> = listed.to_vec();
    printed.sort_unstable();
    expected.sort_unstable();
    if printed != expected {
        return Err(format!(
            "metrics {printed:?} differ from the listed {expected:?}"
        ));
    }
    if !invalid.is_empty() {
        for reason in &invalid {
            eprintln!("benchmark: invalid run: {reason}");
        }
        return Ok(3);
    }
    if let Some(missing) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("benchmark: metric {} has no value", missing.name);
        correct = false;
    }
    println!("{}", result_line(correct, attempted, failed, metrics));
    Ok(if correct { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "..."` value in `text`, in order.
    fn names(text: &str) -> Vec<String> {
        text.split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .map(str::to_string)
            .collect()
    }

    fn sorted(mut v: Vec<String>) -> Vec<String> {
        v.sort();
        v
    }

    fn listed(v: &[&str]) -> Vec<String> {
        sorted(v.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_printed() {
        let text = include_str!("../../BENCHMARK.json");
        let (before, per_layer) = text.split_once("\"per_layer\"").unwrap();
        let (workloads, end_to_end) = before.split_once("\"end_to_end\"").unwrap();
        assert_eq!(names(workloads), ["clinic", "ward_batch", "reload_churn"]);
        for name in names(workloads) {
            assert_eq!(
                Workload::parse(&name).map(Workload::name),
                Some(name.as_str())
            );
        }
        assert_eq!(sorted(names(end_to_end)), listed(&END_TO_END));
        assert_eq!(sorted(names(per_layer)), listed(&PER_LAYER));
    }

    #[test]
    fn layer_map_covers_every_per_layer_metric_once() {
        let text = include_str!("../layers.json");
        let mut mapped = Vec::new();
        for block in text.split("\"metrics\": [").skip(1) {
            let list = block.split(']').next().unwrap();
            mapped.extend(list.split('"').skip(1).step_by(2).map(str::to_string));
        }
        assert_eq!(sorted(mapped), listed(&PER_LAYER));
    }
}
