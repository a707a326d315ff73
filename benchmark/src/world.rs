//! The benchmark world and its set-up: the paper-scale formulary, DDI graph
//! and chronic cohort, the fitted service shipped as DSSD container bytes,
//! and the loopback gateway that serves it.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use dssddi_core::{
    CheckPrescriptionRequest, DecisionService, DrugId, PatientId, ServiceBuilder, SuggestRequest,
};
use dssddi_data::{
    generate_chronic_cohort, generate_ddi_graph, ChronicConfig, DdiConfig, DrugRegistry,
};
use dssddi_kb::KnowledgeBase;
use dssddi_serving::{Client, ModelCatalog, ModelKey, Router, Server, ServingError};
use dssddi_tensor::Matrix;

use crate::context;
use crate::workload::Op;

/// Seed of the world (graph, cohort, fit). It is fixed: the workload seed
/// varies only the request stream, so every seed measures the same model.
pub const WORLD_SEED: u64 = 11;
/// The paper's cohort size (4157 interview records).
pub const COHORT_PATIENTS: usize = 4157;
/// Share of the cohort the service is fitted on; the rest is held out and
/// is where every request comes from.
pub const OBSERVED_SHARE: f64 = 0.6;
/// `k` of the readiness probe's suggestion.
const READY_K: usize = 3;
/// The gateway's only shard.
pub const MODEL_KEY: &str = "chronic";

/// Held-out patients: everything the requests are generated from.
pub struct Patients {
    /// Cohort indices of the held-out patients.
    pub ids: Vec<usize>,
    /// Feature vector per held-out patient (same order as `ids`).
    pub features: Vec<Vec<f32>>,
    /// Recorded medication list per held-out patient (same order).
    pub medications: Vec<Vec<usize>>,
}

impl Patients {
    /// The top-`k` suggestion request for held-out patient `i`.
    pub fn suggest(&self, i: usize, k: usize) -> SuggestRequest {
        SuggestRequest::new(PatientId::new(self.ids[i]), self.features[i].clone(), k)
    }

    /// The critique of held-out patient `i`'s recorded medication list.
    pub fn check(&self, i: usize) -> CheckPrescriptionRequest {
        CheckPrescriptionRequest::new(
            self.medications[i]
                .iter()
                .map(|&d| DrugId::new(d))
                .collect(),
        )
        .for_patient(PatientId::new(self.ids[i]))
    }
}

/// Wall-clock split of one set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Formulary, DDI graph and cohort generation.
    pub world_s: f64,
    /// DDIGCN + MDGCN fit.
    pub fit_s: f64,
    /// Container encode plus the gateway's load of the shard from bytes.
    pub load_s: f64,
    /// Bind, accept loop start, connect and the first successful answers.
    pub bind_s: f64,
    /// Decode of the container into a service (part of `load_s`).
    pub model_decode_s: f64,
}

impl SetupTimes {
    /// The whole set-up: what a user waits for before the first answer.
    pub fn total_s(&self) -> f64 {
        self.world_s + self.fit_s + self.load_s + self.bind_s
    }
}

/// A running loopback gateway plus everything needed to check it.
pub struct Deployment {
    /// The fitted service as DSSD container bytes (what the gateway loaded).
    pub container: Vec<u8>,
    /// The shard's knowledge base as DSKB container bytes.
    pub kb_container: Vec<u8>,
    /// Held-out patients.
    pub patients: Patients,
    /// Gateway address.
    pub addr: SocketAddr,
    /// Shard key.
    pub key: ModelKey,
    server: Option<JoinHandle<Result<(), ServingError>>>,
    /// Held-out patient whose critique the readiness probe sends.
    pub ready_patient: usize,
    /// Send instant and round trip of the readiness probe's suggest and
    /// critique.
    pub ready_live: [(Instant, Duration); 2],
}

/// Builds the world, fits the service, ships it to a fresh loopback
/// gateway as container bytes and waits for the first successful answers.
pub fn deploy() -> Result<(Deployment, SetupTimes), String> {
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let registry = DrugRegistry::standard();
    let mut rng = StdRng::seed_from_u64(WORLD_SEED);
    let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng)
        .map_err(context("DDI graph"))?;
    let cohort = generate_chronic_cohort(
        &registry,
        &ddi,
        &ChronicConfig {
            n_patients: COHORT_PATIENTS,
            ..Default::default()
        },
        &mut rng,
    )
    .map_err(context("cohort"))?;
    let drug_features = Matrix::rand_uniform(registry.len(), 32, -0.1, 0.1, &mut rng);
    let n_observed = (COHORT_PATIENTS as f64 * OBSERVED_SHARE).round() as usize;
    let observed: Vec<usize> = (0..n_observed).collect();
    let held_out: Vec<usize> = (n_observed..COHORT_PATIENTS).collect();
    let patients = Patients {
        features: held_out
            .iter()
            .map(|&p| cohort.features().row(p).to_vec())
            .collect(),
        medications: held_out.iter().map(|&p| cohort.drugs_of(p)).collect(),
        ids: held_out,
    };
    times.world_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let service = ServiceBuilder::fast()
        .fit_chronic(&cohort, &observed, &drug_features, &ddi, &mut rng)
        .map_err(context("fit"))?;
    times.fit_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let container = service.to_container_bytes();
    drop(service);
    let decode = Instant::now();
    let loaded = DecisionService::load_with_embedded_registry_bytes(&container)
        .map_err(context("gateway load"))?;
    times.model_decode_s = decode.elapsed().as_secs_f64();
    let key = ModelKey::new(MODEL_KEY).map_err(context("model key"))?;
    let mut catalog = ModelCatalog::new();
    catalog
        .insert(key.clone(), loaded)
        .map_err(context("catalog insert"))?;
    let kb_container = catalog
        .kb(&key)
        .ok_or("catalog lost its shard")?
        .to_container_bytes();
    let router = Router::new(catalog);
    times.load_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let server = Server::bind("127.0.0.1:0", router).map_err(context("bind"))?;
    let addr = server.local_addr().map_err(context("gateway address"))?;
    let handle = std::thread::spawn(move || server.run());
    let first = patients
        .medications
        .iter()
        .position(|m| m.len() >= 2)
        .ok_or("no held-out patient has two recorded drugs")?;
    let mut deployment = Deployment {
        container,
        kb_container,
        patients,
        addr,
        key,
        server: Some(handle),
        ready_patient: first,
        ready_live: [(t, Duration::ZERO); 2],
    };
    let ready = (|| -> Result<(), ServingError> {
        let mut client = Client::connect(addr)?;
        let [suggest, check] = &mut deployment.ready_live;
        let sent = Instant::now();
        client.suggest(&deployment.key, &deployment.patients.suggest(0, READY_K))?;
        *suggest = (sent, sent.elapsed());
        let sent = Instant::now();
        client.check_prescription(&deployment.key, &deployment.patients.check(first))?;
        *check = (sent, sent.elapsed());
        Ok(())
    })();
    if let Err(e) = ready {
        let _ = deployment.stop();
        return Err(format!("gateway readiness probe: {e}"));
    }
    times.bind_s = t.elapsed().as_secs_f64();
    Ok((deployment, times))
}

impl Deployment {
    /// The readiness probe as operations: a suggestion for the first
    /// held-out patient, then a critique.
    pub fn ready_ops(&self) -> [Op; 2] {
        [
            Op::Suggest {
                patient: 0,
                k: READY_K,
            },
            Op::Check {
                patient: self.ready_patient,
            },
        ]
    }

    /// Shuts the gateway down and waits for its accept loop to end.
    pub fn stop(&mut self) -> Result<(), String> {
        let Some(handle) = self.server.take() else {
            return Ok(());
        };
        // Without a delivered shutdown the accept loop never ends, so it
        // can only be joined after one.
        Client::connect(self.addr)
            .and_then(|client| client.shutdown())
            .map_err(context("gateway shutdown"))?;
        handle
            .join()
            .map_err(|_| "gateway accept loop panicked".to_string())?
            .map_err(context("gateway accept loop"))
    }

    /// A reference service loaded from the same container the gateway
    /// loaded, with the same graph-seeded knowledge base.
    pub fn reference(&self) -> Result<(DecisionService, KnowledgeBase), String> {
        let service = DecisionService::load_with_embedded_registry_bytes(&self.container)
            .map_err(context("reference load"))?;
        let kb = KnowledgeBase::from_ddi_graph(service.ddi_graph(), service.registry())
            .map_err(context("reference KB"))?;
        Ok((service, kb))
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}
