//! Seeded request streams. The workload seed is the only input: the same
//! seed yields the same operations at the same offsets, byte for byte once
//! encoded, and the program under test only ever sees the generated
//! requests.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::world::Patients;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop prescriber traffic, then a closed-loop saturation phase.
    Clinic,
    /// Closed-loop 64-patient suggestion batches on one connection.
    WardBatch,
    /// The clinic read mix at a lower rate plus model and KB hot reloads.
    ReloadChurn,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "clinic" => Some(Self::Clinic),
            "ward_batch" => Some(Self::WardBatch),
            "reload_churn" => Some(Self::ReloadChurn),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Clinic => "clinic",
            Self::WardBatch => "ward_batch",
            Self::ReloadChurn => "reload_churn",
        }
    }
}

/// Offered rate of the `clinic` open loop, requests per second: about an
/// eighth of the closed-loop saturation rate on the reference box, so the
/// two-connection pool rarely queues even when the host runs slow.
pub const CLINIC_RATE: f64 = 500.0;
/// Offered read rate of the `reload_churn` open loop, requests per second
/// (below `clinic`'s, as each model reload occupies a connection for tens
/// of milliseconds).
pub const CHURN_RATE: f64 = 300.0;
/// Share of reads that are single-patient suggestions (the rest critique).
pub const SUGGEST_SHARE: f64 = 0.7;
/// Smallest and largest `k` of a single-patient suggestion.
pub const K_MIN: usize = 3;
/// See [`K_MIN`].
pub const K_MAX: usize = 5;
/// Patients per `ward_batch` frame.
pub const BATCH_SIZE: usize = 64;
/// `k` of every `ward_batch` suggestion.
pub const BATCH_K: usize = 3;
/// Period of `ReloadModel` writes in `reload_churn`.
pub const MODEL_RELOAD_PERIOD: Duration = Duration::from_secs(2);
/// Period of `ReloadKb` writes in `reload_churn`.
pub const KB_RELOAD_PERIOD: Duration = Duration::from_secs(1);
/// Connections (and client threads) of the open and saturation loops: the
/// machine's CPU count on the reference box, and never more.
pub const CONNECTIONS: usize = 2;

/// One operation against the gateway. Patients are indices into
/// [`Patients`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Top-`k` suggestion for one patient.
    Suggest { patient: usize, k: usize },
    /// Critique of one patient's recorded medication list.
    Check { patient: usize },
    /// A batch of top-[`BATCH_K`] suggestions.
    Batch { patients: Vec<usize> },
    /// Hot reload of the fitted model (same container).
    ReloadModel,
    /// Hot reload of the knowledge base (same container).
    ReloadKb,
}

impl Op {
    /// True for reads (the data plane), false for reloads.
    pub fn is_read(&self) -> bool {
        !matches!(self, Op::ReloadModel | Op::ReloadKb)
    }
}

/// An operation due at `at` after the phase starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timed {
    /// Offset of the scheduled send from the phase start.
    pub at: Duration,
    /// What to send.
    pub op: Op,
}

/// Independent RNG for one purpose of one seed, so adding a phase never
/// shifts the draws of another.
fn rng_for(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

const PURPOSE_WARMUP: u64 = 1;
const PURPOSE_OPEN: u64 = 2;
const PURPOSE_CLOSED: u64 = 3;
const PURPOSE_BATCH: u64 = 4;

/// Draws reads from the clinic mix.
struct ReadMix<'a> {
    n_patients: usize,
    critiquable: &'a [usize],
}

impl<'a> ReadMix<'a> {
    fn new(patients: &Patients, critiquable: &'a [usize]) -> Self {
        Self {
            n_patients: patients.ids.len(),
            critiquable,
        }
    }

    fn draw(&self, rng: &mut StdRng) -> Op {
        if rng.gen_bool(SUGGEST_SHARE) {
            Op::Suggest {
                patient: rng.gen_range(0..self.n_patients),
                k: rng.gen_range(K_MIN..=K_MAX),
            }
        } else {
            Op::Check {
                patient: self.critiquable[rng.gen_range(0..self.critiquable.len())],
            }
        }
    }
}

/// Held-out patients whose recorded medication list has at least two drugs.
pub fn critiquable(patients: &Patients) -> Vec<usize> {
    (0..patients.ids.len())
        .filter(|&i| patients.medications[i].len() >= 2)
        .collect()
}

/// `n` reads of the clinic mix, for untimed cache warm-up.
pub fn warmup(seed: u64, patients: &Patients, critiquable: &[usize], n: usize) -> Vec<Op> {
    let mix = ReadMix::new(patients, critiquable);
    let mut rng = rng_for(seed, PURPOSE_WARMUP);
    (0..n).map(|_| mix.draw(&mut rng)).collect()
}

/// `n` reads of the clinic mix for the closed-loop saturation phase.
pub fn closed(seed: u64, patients: &Patients, critiquable: &[usize], n: usize) -> Vec<Op> {
    let mix = ReadMix::new(patients, critiquable);
    let mut rng = rng_for(seed, PURPOSE_CLOSED);
    (0..n).map(|_| mix.draw(&mut rng)).collect()
}

/// Poisson arrivals of the clinic mix at `rate` per second over `length`,
/// plus (with `writes`) model and KB reloads on their fixed periods. Sorted
/// by due time.
pub fn open_loop(
    seed: u64,
    patients: &Patients,
    critiquable: &[usize],
    rate: f64,
    length: Duration,
    writes: bool,
) -> Vec<Timed> {
    let mix = ReadMix::new(patients, critiquable);
    let mut rng = rng_for(seed, PURPOSE_OPEN);
    let end = length.as_secs_f64();
    let mut stream = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; `gen` is in [0, 1).
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= end {
            break;
        }
        stream.push(Timed {
            at: Duration::from_secs_f64(t),
            op: mix.draw(&mut rng),
        });
    }
    if writes {
        // Writes sit half a period into their slot so model and KB reloads
        // never coincide and none falls on the phase boundary.
        for (period, op) in [
            (MODEL_RELOAD_PERIOD, Op::ReloadModel),
            (KB_RELOAD_PERIOD, Op::ReloadKb),
        ] {
            let mut at = period / 2 + period / 4;
            while at < length {
                stream.push(Timed { at, op: op.clone() });
                at += period;
            }
        }
        stream.sort_by_key(|timed| timed.at);
    }
    stream
}

/// The `ward_batch` frames: sweeps over the held-out cohort, each sweep in
/// its own seed-shuffled order, cut into [`BATCH_SIZE`] chunks that wrap
/// from one sweep into the next. Endless; take what the run needs.
pub fn batches(seed: u64, n_patients: usize) -> impl Iterator<Item = Vec<usize>> {
    let mut rng = rng_for(seed, PURPOSE_BATCH);
    let mut order: Vec<usize> = Vec::new();
    let mut next = 0usize;
    std::iter::from_fn(move || {
        let mut frame = Vec::with_capacity(BATCH_SIZE);
        while frame.len() < BATCH_SIZE {
            if next == order.len() {
                order = (0..n_patients).collect();
                order.shuffle(&mut rng);
                next = 0;
            }
            frame.push(order[next]);
            next += 1;
        }
        Some(frame)
    })
}

/// One sweep's worth of frames: every held-out patient appears at least
/// once. Used to warm the cache before `ward_batch` is timed.
pub fn batch_warmup(n_patients: usize) -> Vec<Vec<usize>> {
    let order: Vec<usize> = (0..n_patients).collect();
    order.chunks(BATCH_SIZE).map(<[usize]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssddi_serving::wire::{encode_request_ref, RequestRef};
    use dssddi_serving::ModelKey;

    /// Encodes one operation as the wire frame the gateway receives (reloads
    /// carry the given containers).
    pub fn encode(
        op: &Op,
        key: &ModelKey,
        patients: &Patients,
        container: &[u8],
        kb_container: &[u8],
    ) -> Vec<u8> {
        match op {
            Op::Suggest { patient, k } => encode_request_ref(RequestRef::Suggest {
                model: key,
                request: &patients.suggest(*patient, *k),
            }),
            Op::Check { patient } => encode_request_ref(RequestRef::CheckPrescription {
                model: key,
                request: &patients.check(*patient),
            }),
            Op::Batch { patients: batch } => {
                let requests: Vec<_> = batch
                    .iter()
                    .map(|&p| patients.suggest(p, BATCH_K))
                    .collect();
                encode_request_ref(RequestRef::SuggestBatch {
                    model: key,
                    requests: &requests,
                })
            }
            Op::ReloadModel => encode_request_ref(RequestRef::ReloadModel {
                model: key,
                container,
            }),
            Op::ReloadKb => encode_request_ref(RequestRef::ReloadKb {
                model: key,
                container: kb_container,
            }),
        }
    }

    fn patients() -> Patients {
        let n = 50;
        Patients {
            ids: (1000..1000 + n).collect(),
            features: (0..n)
                .map(|i| (0..8).map(|j| (i * 8 + j) as f32 / 100.0).collect())
                .collect(),
            medications: (0..n)
                .map(|i| (0..(i % 4)).map(|d| d * 7 + i % 5).collect())
                .collect(),
        }
    }

    /// Every frame of a full `reload_churn` stream plus the warm-up,
    /// saturation and batch streams, with the due time of each timed op.
    fn stream_bytes(seed: u64) -> Vec<u8> {
        let p = patients();
        let crit = critiquable(&p);
        let key = ModelKey::new("chronic").unwrap();
        let mut bytes = Vec::new();
        let open = open_loop(seed, &p, &crit, CHURN_RATE, Duration::from_secs(3), true);
        for timed in &open {
            bytes.extend_from_slice(&(timed.at.as_nanos() as u64).to_le_bytes());
            bytes.extend(encode(&timed.op, &key, &p, b"model", b"kb"));
        }
        let reads = warmup(seed, &p, &crit, 200)
            .into_iter()
            .chain(closed(seed, &p, &crit, 200));
        let frames = batches(seed, p.ids.len())
            .take(5)
            .map(|patients| Op::Batch { patients });
        for op in reads.chain(frames) {
            bytes.extend(encode(&op, &key, &p, b"model", b"kb"));
        }
        bytes
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        let a = stream_bytes(7);
        assert!(a.len() > 10_000);
        assert_eq!(a, stream_bytes(7));
        assert_ne!(a, stream_bytes(8));
    }

    #[test]
    fn open_loop_has_the_offered_rate_and_writes_on_their_periods() {
        let p = patients();
        let crit = critiquable(&p);
        let stream = open_loop(3, &p, &crit, 400.0, Duration::from_secs(10), true);
        let reads = stream.iter().filter(|t| t.op.is_read()).count();
        assert!((3700..4300).contains(&reads), "{reads} reads");
        let models = stream.iter().filter(|t| t.op == Op::ReloadModel).count();
        let kbs = stream.iter().filter(|t| t.op == Op::ReloadKb).count();
        assert_eq!((models, kbs), (5, 10));
        assert!(stream.windows(2).all(|w| w[0].at <= w[1].at));
        let checks: Vec<_> = stream
            .iter()
            .filter_map(|t| match t.op {
                Op::Check { patient } => Some(patient),
                _ => None,
            })
            .collect();
        assert!(checks.iter().all(|&c| p.medications[c].len() >= 2));
        let share = 1.0 - checks.len() as f64 / reads as f64;
        assert!(
            (share - SUGGEST_SHARE).abs() < 0.05,
            "suggest share {share}"
        );
    }

    #[test]
    fn batch_sweeps_cover_every_patient() {
        let n = 150;
        let frames: Vec<_> = batches(5, n).take(n.div_ceil(BATCH_SIZE) + 1).collect();
        let mut seen = vec![0usize; n];
        for frame in &frames {
            assert_eq!(frame.len(), BATCH_SIZE);
            for &p in frame {
                seen[p] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c >= 1));
    }
}
