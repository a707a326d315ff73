//! Parallel batch serving must be observationally identical to serial
//! serving: responses in request order, every score bit-identical, every
//! ranking unchanged — regardless of the batch composition. `suggest_batch`
//! shards a batch of 16 or more requests across worker threads on a
//! multi-core host; the serial reference is one `suggest` call per request,
//! which always runs on the calling thread. (Explicit shard counts are
//! covered by the service's own unit tests.)
//!
//! The fitted service is built once (training is the expensive part) and
//! shared across all randomized cases through a `OnceLock`; the service is
//! `Sync` by design, which is exactly what sharded serving relies on.

use std::sync::OnceLock;

use proptest::prelude::*;

use dssddi::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Fixture {
    service: DecisionService,
    cohort: ChronicCohort,
    held_out: Vec<usize>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let registry = DrugRegistry::standard();
        let mut rng = StdRng::seed_from_u64(41);
        let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
        let cohort = generate_chronic_cohort(
            &registry,
            &ddi,
            &ChronicConfig {
                n_patients: 90,
                ..Default::default()
            },
            &mut rng,
        )
        .unwrap();
        let drug_features = Matrix::rand_uniform(registry.len(), 16, -0.1, 0.1, &mut rng);
        let observed: Vec<usize> = (0..60).collect();
        let service = ServiceBuilder::fast()
            .hidden_dim(16)
            .epochs(20, 25)
            .fit_chronic(&cohort, &observed, &drug_features, &ddi, &mut rng)
            .unwrap();
        Fixture {
            service,
            cohort,
            held_out: (60..90).collect(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random batch compositions (with repeats) and ks, the batch
    /// equals the serial single requests response-by-response.
    #[test]
    fn sharded_suggest_batch_equals_serial_in_order_and_bits(
        seed in 0u64..1_000_000,
        batch_len in 1usize..40,
        k in 1usize..5,
    ) {
        let fx = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let requests: Vec<SuggestRequest> = (0..batch_len)
            .map(|_| {
                let p = fx.held_out[rand::Rng::gen_range(&mut rng, 0..fx.held_out.len())];
                SuggestRequest::new(
                    PatientId::new(p),
                    fx.cohort.features().row(p).to_vec(),
                    k,
                )
            })
            .collect();

        let serial = serial(&fx.service, &requests);
        let sharded = fx.service.suggest_batch(&requests).unwrap();
        prop_assert_eq!(serial.len(), requests.len());
        prop_assert_eq!(sharded.len(), requests.len());
        for (i, request) in requests.iter().enumerate() {
            prop_assert_eq!(serial[i].patient, request.patient);
            prop_assert_eq!(sharded[i].patient, request.patient, "order broken at {}", i);
            let a: Vec<(usize, u32)> = serial[i]
                .drugs
                .iter()
                .map(|d| (d.id.index(), d.score.to_bits()))
                .collect();
            let b: Vec<(usize, u32)> = sharded[i]
                .drugs
                .iter()
                .map(|d| (d.id.index(), d.score.to_bits()))
                .collect();
            prop_assert_eq!(a, b, "scores/ranking differ at response {}", i);
            prop_assert_eq!(
                serial[i].suggestion_satisfaction.to_bits(),
                sharded[i].suggestion_satisfaction.to_bits()
            );
        }
    }
}

/// Serves each request on its own, on the calling thread.
fn serial(service: &DecisionService, requests: &[SuggestRequest]) -> Vec<SuggestResponse> {
    requests
        .iter()
        .map(|request| service.suggest(request).unwrap())
        .collect()
}

/// The auto-sharding entry point also matches the serial path on a batch
/// large enough to actually engage multiple workers on multi-core hosts.
#[test]
fn auto_sharded_batch_matches_serial() {
    let fx = fixture();
    let requests: Vec<SuggestRequest> = fx
        .held_out
        .iter()
        .cycle()
        .take(64)
        .map(|&p| SuggestRequest::new(PatientId::new(p), fx.cohort.features().row(p).to_vec(), 3))
        .collect();
    let serial = serial(&fx.service, &requests);
    let auto = fx.service.suggest_batch(&requests).unwrap();
    assert_eq!(serial.len(), auto.len());
    for (a, b) in serial.iter().zip(&auto) {
        assert_eq!(a.patient, b.patient);
        let sa: Vec<(usize, u32)> = a
            .drugs
            .iter()
            .map(|d| (d.id.index(), d.score.to_bits()))
            .collect();
        let sb: Vec<(usize, u32)> = b
            .drugs
            .iter()
            .map(|d| (d.id.index(), d.score.to_bits()))
            .collect();
        assert_eq!(sa, sb);
    }
}
