//! Persistence integration tests: a service fitted in one process must be
//! savable, loadable against the same registry, and produce byte-identical
//! suggestion rankings and explanations for the same requests — while
//! corrupt, truncated or version-mismatched files produce typed
//! [`CoreError`]s, never panics.

use std::path::PathBuf;

use dssddi::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A unique temp path per test so parallel tests never collide.
fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dssddi-save-load-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{name}-{}.dssd", std::process::id()))
}

struct World {
    registry: DrugRegistry,
    ddi: SignedGraph,
    cohort: ChronicCohort,
    drug_features: Matrix,
}

fn build_world(seed: u64) -> World {
    let registry = DrugRegistry::standard();
    let mut rng = StdRng::seed_from_u64(seed);
    let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
    let cohort = generate_chronic_cohort(
        &registry,
        &ddi,
        &ChronicConfig {
            n_patients: 80,
            ..Default::default()
        },
        &mut rng,
    )
    .unwrap();
    let drug_features = Matrix::rand_uniform(registry.len(), 16, -0.1, 0.1, &mut rng);
    World {
        registry,
        ddi,
        cohort,
        drug_features,
    }
}

fn fitted_service(world: &World, seed: u64) -> DecisionService {
    let mut rng = StdRng::seed_from_u64(seed);
    let observed: Vec<usize> = (0..60).collect();
    ServiceBuilder::fast()
        .hidden_dim(16)
        .epochs(25, 30)
        .fit_chronic(
            &world.cohort,
            &observed,
            &world.drug_features,
            &world.ddi,
            &mut rng,
        )
        .unwrap()
}

#[test]
fn reloaded_service_returns_identical_responses() {
    let world = build_world(11);
    let service = fitted_service(&world, 12);
    let path = temp_path("identical-responses");
    service.save(&path).unwrap();
    let reloaded = DecisionService::load(&path, DrugRegistry::standard()).unwrap();
    std::fs::remove_file(&path).ok();

    let requests: Vec<SuggestRequest> = (60..80)
        .map(|p| {
            SuggestRequest::new(
                PatientId::new(p),
                world.cohort.features().row(p).to_vec(),
                4,
            )
        })
        .collect();
    let original = service.suggest_batch(&requests).unwrap();
    let restored = reloaded.suggest_batch(&requests).unwrap();
    assert_eq!(original.len(), restored.len());
    for (a, b) in original.iter().zip(&restored) {
        assert_eq!(a.patient, b.patient);
        // Rankings are byte-identical: same drugs, same order, same bits.
        let ids_a: Vec<_> = a.drugs.iter().map(|d| d.id).collect();
        let ids_b: Vec<_> = b.drugs.iter().map(|d| d.id).collect();
        assert_eq!(ids_a, ids_b);
        for (da, db) in a.drugs.iter().zip(&b.drugs) {
            assert_eq!(da.score.to_bits(), db.score.to_bits());
            assert_eq!(da.name, db.name);
        }
        // Explanations agree structurally and numerically.
        assert_eq!(a.explanation.community.nodes, b.explanation.community.nodes);
        assert_eq!(a.explanation.edges, b.explanation.edges);
        assert_eq!(
            a.suggestion_satisfaction.to_bits(),
            b.suggestion_satisfaction.to_bits()
        );
    }

    // Raw score matrices agree bit-for-bit as well.
    let features = world
        .cohort
        .features()
        .select_rows(&(60..80).collect::<Vec<_>>());
    let s1 = service.predict_scores(&features).unwrap();
    let s2 = reloaded.predict_scores(&features).unwrap();
    let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&s1), bits(&s2));
}

#[test]
fn embedded_registry_load_matches_registry_backed_load() {
    // A serving host that only receives the DSSD file can reconstruct the
    // registry from the embedded name list and still serve byte-identical
    // suggestions — this is what the dssddi-serve gateway relies on.
    let world = build_world(41);
    let service = fitted_service(&world, 42);
    let path = temp_path("embedded-registry");
    service.save(&path).unwrap();
    let embedded = DecisionService::load_with_embedded_registry(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(embedded.registry().len(), service.registry().len());
    assert_eq!(embedded.registry().digest(), service.registry().digest());
    assert_eq!(embedded.registry().names(), service.registry().names());
    assert!(embedded.is_fitted());
    assert_eq!(embedded.n_features(), service.n_features());

    let requests: Vec<SuggestRequest> = (60..70)
        .map(|p| {
            SuggestRequest::new(
                PatientId::new(p),
                world.cohort.features().row(p).to_vec(),
                4,
            )
        })
        .collect();
    let original = service.suggest_batch(&requests).unwrap();
    let restored = embedded.suggest_batch(&requests).unwrap();
    for (a, b) in original.iter().zip(&restored) {
        assert_eq!(a, b, "embedded-registry load must serve identically");
        for (da, db) in a.drugs.iter().zip(&b.drugs) {
            assert_eq!(da.score.to_bits(), db.score.to_bits());
        }
    }
    assert!(matches!(
        DecisionService::load_with_embedded_registry(temp_path("no-such-file")),
        Err(CoreError::Persistence { .. })
    ));
}

#[test]
fn support_only_service_round_trips() {
    let world = build_world(21);
    let service = ServiceBuilder::fast().build_support(&world.ddi).unwrap();
    let path = temp_path("support-only");
    service.save(&path).unwrap();
    let reloaded = DecisionService::load(&path, world.registry.clone()).unwrap();
    std::fs::remove_file(&path).ok();

    let request = CheckPrescriptionRequest::new(vec![DrugId::new(61), DrugId::new(59)]);
    let a = service.check_prescription(&request).unwrap();
    let b = reloaded.check_prescription(&request).unwrap();
    assert_eq!(a.is_safe(), b.is_safe());
    assert_eq!(a.antagonistic, b.antagonistic);
    assert_eq!(
        a.suggestion_satisfaction.to_bits(),
        b.suggestion_satisfaction.to_bits()
    );
    // A support-only service still refuses to suggest after reload.
    let suggest = SuggestRequest::new(PatientId::new(0), vec![0.0; 4], 2);
    assert!(matches!(
        reloaded.suggest(&suggest),
        Err(CoreError::NotFitted { .. })
    ));
}

#[test]
fn corrupt_truncated_and_mismatched_files_error_without_panics() {
    let world = build_world(31);
    let service = fitted_service(&world, 32);
    let path = temp_path("corruption");
    service.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();

    // Truncation at a spread of prefixes: always a typed error.
    for cut in [0, 3, 4, 13, 14, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(
            matches!(
                DecisionService::load(&path, DrugRegistry::standard()),
                Err(CoreError::Persistence { .. })
            ),
            "truncation at {cut} must be a persistence error"
        );
    }

    // A flipped payload byte fails the checksum.
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x20;
    std::fs::write(&path, &corrupt).unwrap();
    assert!(matches!(
        DecisionService::load(&path, DrugRegistry::standard()),
        Err(CoreError::Persistence { .. })
    ));

    // A bumped format version is refused with a typed error.
    let mut wrong_version = bytes.clone();
    wrong_version[4] = 0xEE;
    std::fs::write(&path, &wrong_version).unwrap();
    match DecisionService::load(&path, DrugRegistry::standard()) {
        Err(CoreError::Persistence { what }) => {
            assert!(what.contains("version"), "uncontextual error: {what}")
        }
        other => panic!("expected Persistence error, got {other:?}"),
    }

    // Engine-level loading rejects a service container (wrong section).
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        Dssddi::load(&path),
        Err(CoreError::Persistence { .. })
    ));

    // A missing file is an I/O persistence error, not a panic.
    std::fs::remove_file(&path).ok();
    assert!(matches!(
        DecisionService::load(&path, DrugRegistry::standard()),
        Err(CoreError::Persistence { .. })
    ));
}

#[test]
fn engine_save_load_round_trips_scores() {
    let world = build_world(41);
    let mut rng = StdRng::seed_from_u64(42);
    let observed: Vec<usize> = (0..60).collect();
    let mut config = DssddiConfig::fast();
    config.ddi.hidden_dim = 16;
    config.ddi.epochs = 25;
    config.md.hidden_dim = 16;
    config.md.epochs = 30;
    let train_features = world.cohort.features().select_rows(&observed);
    let train_graph = world.cohort.bipartite_graph(&observed).unwrap();
    let engine = Dssddi::fit(
        &train_features,
        &train_graph,
        &world.drug_features,
        &world.ddi,
        &config,
        &mut rng,
    )
    .unwrap();

    let path = temp_path("engine");
    engine.save(&path).unwrap();
    let reloaded = Dssddi::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let features = world.cohort.features().select_rows(&[70, 71, 72]);
    let s1 = engine.predict_scores(&features).unwrap();
    let s2 = reloaded.predict_scores(&features).unwrap();
    assert_eq!(s1.data().len(), s2.data().len());
    for (a, b) in s1.data().iter().zip(s2.data()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(
        engine.ddi_module().is_some(),
        reloaded.ddi_module().is_some()
    );
    assert_eq!(
        engine.config().md.hidden_dim,
        reloaded.config().md.hidden_dim
    );
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The `DSSD` container of the fixed-seed fit, pinned by length and
/// CRC-32. The model codec, the `ByteReader` primitives and the frame
/// opener all sit under these bytes; any layout drift changes the pin.
#[test]
fn fitted_container_bytes_are_pinned() {
    let world = build_world(11);
    let bytes = fitted_service(&world, 12).to_container_bytes();
    assert_eq!(
        (bytes.len(), dssddi::tensor::serde::crc32(&bytes)),
        (69_241, 0xC985_0882),
        "DSSD container bytes of the fixed-seed fit changed"
    );
    let reloaded = DecisionService::load_with_embedded_registry_bytes(&bytes).unwrap();
    assert_eq!(reloaded.to_container_bytes(), bytes);
}

/// A small hand-built knowledge base, pinned byte-for-byte as a `DSKB`
/// container, and decoded back from the pinned bytes.
#[test]
fn knowledge_base_container_bytes_are_pinned() {
    let registry = DrugRegistry::standard();
    let mut kb = KnowledgeBase::new(&registry);
    kb.upsert(
        59,
        1,
        KbFact {
            severity: Severity::Contraindicated,
            evidence: EvidenceLevel::Established,
            mechanism: "additive bleeding risk".into(),
            management: "avoid; monitor INR".into(),
        },
    )
    .unwrap();
    kb.upsert(
        2,
        7,
        KbFact {
            severity: Severity::Minor,
            evidence: EvidenceLevel::Theoretical,
            mechanism: String::new(),
            management: String::new(),
        },
    )
    .unwrap();
    let golden = "44534b4201008c00000000000000560000000000000078478faab14b5c9e0200000000000000020000000000000001000000000000003b0000000000000003031600000000000000616464697469766520626c656564696e67207269736b120000000000000061766f69643b206d6f6e69746f7220494e5202000000000000000700000000000000000000000000000000000000000000000000e418cd5d";
    assert_eq!(hex(&kb.to_container_bytes()), golden);
    let bytes: Vec<u8> = (0..golden.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&golden[i..i + 2], 16).unwrap())
        .collect();
    assert_eq!(KnowledgeBase::from_container_bytes(&bytes).unwrap(), kb);
}

#[test]
fn untrusted_graph_node_counts_are_rejected_before_the_index_is_built() {
    // The explanation index sizes dense adjacency rows from the DDI graph's
    // node count, which nothing in a container backs. A forged count must be
    // a clean persistence error; allocating rows for 2^20 nodes would abort.
    let world = build_world(41);
    let service = ServiceBuilder::fast().build_support(&world.ddi).unwrap();
    let sealed = service.to_container_bytes();
    let payload = dssddi::tensor::serde::open_container(&sealed)
        .unwrap()
        .to_vec();
    let nodes = world.ddi.node_count() as u64;
    let header = [nodes, world.ddi.edge_count() as u64].map(u64::to_le_bytes);
    let at = payload
        .windows(16)
        .position(|w| w == header.concat())
        .expect("signed graph header in the payload");
    for (forged_nodes, expected) in [
        (
            nodes + 1,
            format!("{} nodes but the registry has {nodes} drugs", nodes + 1),
        ),
        (1 << 20, "1048576 nodes; at most 4096".to_string()),
    ] {
        let mut forged = payload.clone();
        forged[at..at + 8].copy_from_slice(&forged_nodes.to_le_bytes());
        let bytes = dssddi::tensor::serde::seal_container(&forged);
        match DecisionService::load_with_embedded_registry_bytes(&bytes) {
            Err(CoreError::Persistence { what }) => {
                assert!(what.contains(&expected), "{forged_nodes} nodes: {what}")
            }
            other => panic!("{forged_nodes} nodes: expected a persistence error, got {other:?}"),
        }
    }

    // A registry as large as the graph does not lift the bound.
    let names = (0..=4096).map(|i| format!("drug-{i}"));
    let registry = DrugRegistry::from_names(names).unwrap();
    let ddi = SignedGraph::new(registry.len());
    let oversized = ServiceBuilder::fast()
        .registry(registry)
        .build_support(&ddi)
        .unwrap();
    match DecisionService::load_with_embedded_registry_bytes(&oversized.to_container_bytes()) {
        Err(CoreError::Persistence { what }) => assert!(what.contains("at most 4096"), "{what}"),
        other => panic!("expected a persistence error, got {other:?}"),
    }
}
