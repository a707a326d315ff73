//! Golden frame corpus for the `DSWR` wire protocol: every `Request` and
//! `Response` variant, sealed both untraced (version 1) and traced
//! (version 2), is pinned byte-for-byte against the hex fixtures in
//! `tests/golden/wire_frames.hex`.
//!
//! Round-trip properties alone cannot catch a layout change that encode
//! and decode make together; this corpus can. Each fixture line is
//! `<label> <hex frame>`. A failing line means the bytes on the wire
//! changed: old and new builds would no longer understand each other.

// Tests may panic freely; the workspace panic-policy denies target library
// and binary code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;

use dssddi_core::{
    CheckPrescriptionRequest, DrugId, Explanation, InteractionReport, PairInteraction, PatientId,
    ScoredDrug, SignedEdge, SuggestFilters, SuggestRequest, SuggestResponse,
};
use dssddi_graph::{Community, Interaction};
use dssddi_serving::wire::{
    decode_request, decode_response, encode_request, encode_request_ref_traced, encode_response,
    encode_response_traced, open_wire_frame_traced,
};
use dssddi_serving::{
    AlertPolicy, ErrorCode, GatewayStats, KbInfo, KeyVersions, ModelInfo, ModelKey, ModelStats,
    ReplicaStats, Request, Response, Severity, StatsReport, SyncArtifact, TraceExemplar,
};

const FIXTURES: &str = include_str!("golden/wire_frames.hex");

/// Trace ID every version-2 fixture carries.
const TRACE: u64 = 0x0123_4567_89AB_CDEF;

fn key(name: &str) -> ModelKey {
    ModelKey::new(name).unwrap()
}

fn ids(raw: &[usize]) -> Vec<DrugId> {
    raw.iter().copied().map(DrugId::new).collect()
}

fn full_suggest_request(patient: usize) -> SuggestRequest {
    SuggestRequest::new(
        PatientId::new(patient),
        vec![
            0.5,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0e-40,
        ],
        4,
    )
    .with_filters(SuggestFilters {
        exclude: ids(&[1]),
        avoid_antagonists_of: ids(&[59, 60]),
        exclude_contraindicated_with: ids(&[61]),
    })
}

fn versions() -> Vec<KeyVersions> {
    vec![
        KeyVersions {
            key: key("chronic"),
            model_version: 3,
            kb_version: 7,
        },
        KeyVersions {
            key: key("critique/v2"),
            model_version: 1,
            kb_version: u64::MAX,
        },
    ]
}

fn requests() -> Vec<(&'static str, Request)> {
    vec![
        (
            "suggest.full",
            Request::Suggest {
                model: key("chronic"),
                request: full_suggest_request(3),
            },
        ),
        (
            "suggest.empty",
            Request::Suggest {
                model: key("c"),
                request: SuggestRequest::new(PatientId::new(0), vec![], 0),
            },
        ),
        (
            "suggest_batch.empty",
            Request::SuggestBatch {
                model: key("chronic"),
                requests: vec![],
            },
        ),
        (
            "suggest_batch.two",
            Request::SuggestBatch {
                model: key("chronic"),
                requests: vec![
                    full_suggest_request(5),
                    SuggestRequest::new(PatientId::new(usize::MAX), vec![-1.25], 3),
                ],
            },
        ),
        (
            "check.minimal",
            Request::CheckPrescription {
                model: key("chronic"),
                request: CheckPrescriptionRequest::new(vec![]),
            },
        ),
        (
            "check.full",
            Request::CheckPrescription {
                model: key("chronic"),
                request: CheckPrescriptionRequest::new(ids(&[1, 59, 61]))
                    .for_patient(PatientId::new(42))
                    .with_policy(AlertPolicy {
                        min_severity: Severity::Major,
                        contraindicated_always_fires: false,
                    }),
            },
        ),
        (
            "reload_model.empty",
            Request::ReloadModel {
                model: key("chronic"),
                container: vec![],
            },
        ),
        (
            "reload_model.bytes",
            Request::ReloadModel {
                model: key("chronic"),
                container: b"DSSD\x01\x00container".to_vec(),
            },
        ),
        (
            "reload_kb.bytes",
            Request::ReloadKb {
                model: key("chronic"),
                container: vec![0x00, 0xFF, 0x7F, 0x80],
            },
        ),
        (
            "kb_info",
            Request::KbInfo {
                model: key("chronic"),
            },
        ),
        ("list_models", Request::ListModels),
        ("stats", Request::Stats),
        ("ping", Request::Ping),
        (
            "peer_status.empty",
            Request::PeerStatus { versions: vec![] },
        ),
        (
            "peer_status.two",
            Request::PeerStatus {
                versions: versions(),
            },
        ),
        (
            "peer_sync.model",
            Request::PeerSync {
                model: key("chronic"),
                artifact: SyncArtifact::Model,
            },
        ),
        (
            "peer_sync.kb",
            Request::PeerSync {
                model: key("chronic"),
                artifact: SyncArtifact::Kb,
            },
        ),
        ("trace_dump.all", Request::TraceDump { limit: 0 }),
        ("trace_dump.16", Request::TraceDump { limit: 16 }),
        ("shutdown", Request::Shutdown),
    ]
}

fn explanation(ss: f64) -> Explanation {
    Explanation {
        suggested: vec![2, 7, 9],
        community: Community {
            nodes: BTreeSet::from([2, 7, 9, 11]),
            edges: vec![(2, 7), (7, 9), (9, 11)],
            trussness: 3,
            diameter: usize::MAX,
        },
        edges: vec![
            SignedEdge {
                u: 2,
                v: 7,
                interaction: Interaction::Synergistic,
            },
            SignedEdge {
                u: 7,
                v: 9,
                interaction: Interaction::Antagonistic,
            },
            SignedEdge {
                u: 9,
                v: 11,
                interaction: Interaction::None,
            },
        ],
        internal_synergy: 1,
        internal_antagonism: 1,
        external_antagonism: 0,
        suggestion_satisfaction: ss,
    }
}

fn empty_explanation() -> Explanation {
    Explanation {
        suggested: vec![],
        community: Community {
            nodes: BTreeSet::new(),
            edges: vec![],
            trussness: 0,
            diameter: 0,
        },
        edges: vec![],
        internal_synergy: 0,
        internal_antagonism: 0,
        external_antagonism: 0,
        suggestion_satisfaction: -0.0,
    }
}

fn suggest_response(patient: usize, ss: f64) -> SuggestResponse {
    SuggestResponse {
        patient: PatientId::new(patient),
        drugs: vec![
            ScoredDrug {
                id: DrugId::new(2),
                name: "metformin".into(),
                score: 0.875,
            },
            ScoredDrug {
                id: DrugId::new(7),
                name: "drüg-ß".into(),
                score: f32::NAN,
            },
            ScoredDrug {
                id: DrugId::new(9),
                name: String::new(),
                score: -0.0,
            },
            ScoredDrug {
                id: DrugId::new(11),
                name: "inf".into(),
                score: f32::NEG_INFINITY,
            },
        ],
        explanation: explanation(ss),
        suggestion_satisfaction: ss,
    }
}

fn pair(a: usize, b: usize, interaction: Interaction, management: Option<&str>) -> PairInteraction {
    PairInteraction {
        a: DrugId::new(a),
        a_name: format!("drug-{a}"),
        b: DrugId::new(b),
        b_name: format!("drug-{b}"),
        interaction,
        severity: match interaction {
            Interaction::Antagonistic => Severity::Contraindicated,
            Interaction::Synergistic => Severity::Minor,
            Interaction::None => Severity::Moderate,
        },
        management: management.map(str::to_string),
    }
}

fn model_info(n_features: Option<usize>) -> ModelInfo {
    ModelInfo {
        key: key("chronic"),
        fitted: n_features.is_some(),
        n_drugs: 86,
        n_features,
        registry_digest: 0xFEED_FACE_CAFE_BEEF,
        backbone: "lightgcn".into(),
        kb_version: 4,
    }
}

fn kb_info() -> KbInfo {
    KbInfo {
        version: 9,
        n_facts: 130,
        facts_by_severity: [70, 40, 15, 5],
        registry_digest: 0x0DDC_0FFE_E0DD_F00D,
        n_drugs: 86,
    }
}

fn full_stats() -> StatsReport {
    StatsReport {
        models: vec![
            (
                key("chronic"),
                ModelStats {
                    requests: 1_000,
                    errors: 12,
                    errors_by_code: vec![(ErrorCode::Malformed, 2), (ErrorCode::Overloaded, 10)],
                    cache_hits: 800,
                    cache_misses: 200,
                    p50_ms: 0.125,
                    p99_ms: f64::INFINITY,
                    shed_requests: 10,
                    in_flight: 1,
                    queue_depth_hwm: 6,
                    samples: 1_000,
                },
            ),
            (
                key("critique"),
                ModelStats {
                    requests: 0,
                    errors: 0,
                    errors_by_code: vec![],
                    cache_hits: 0,
                    cache_misses: 0,
                    p50_ms: f64::NAN,
                    p99_ms: -0.0,
                    shed_requests: 0,
                    in_flight: 0,
                    queue_depth_hwm: 0,
                    samples: 0,
                },
            ),
        ],
        gateway: GatewayStats {
            connections_accepted: 17,
            connections_active: 2,
            connections_shed: 1,
            stalled_reaped: 3,
        },
        replica: Some(ReplicaStats {
            peers: 2,
            syncs: 5,
            bytes_shipped: 40_960,
            max_lag: 1,
            versions: versions(),
        }),
    }
}

fn responses() -> Vec<(&'static str, Response)> {
    let mut out = vec![
        (
            "suggest.full",
            Response::Suggest(suggest_response(3, f64::NAN)),
        ),
        (
            "suggest.empty",
            Response::Suggest(SuggestResponse {
                patient: PatientId::new(0),
                drugs: vec![],
                explanation: empty_explanation(),
                suggestion_satisfaction: f64::NEG_INFINITY,
            }),
        ),
        ("suggest_batch.empty", Response::SuggestBatch(vec![])),
        (
            "suggest_batch.two",
            Response::SuggestBatch(vec![
                suggest_response(5, f64::INFINITY),
                suggest_response(6, -0.0),
            ]),
        ),
        (
            "check.minimal",
            Response::CheckPrescription(InteractionReport {
                patient: None,
                drugs: vec![],
                antagonistic: vec![],
                synergistic: vec![],
                explanation: empty_explanation(),
                suggestion_satisfaction: 0.0,
                kb_version: None,
            }),
        ),
        (
            "check.full",
            Response::CheckPrescription(InteractionReport {
                patient: Some(PatientId::new(42)),
                drugs: vec![ScoredDrug {
                    id: DrugId::new(1),
                    name: "warfarin".into(),
                    score: 1.0,
                }],
                antagonistic: vec![
                    pair(1, 59, Interaction::Antagonistic, Some("monitor INR")),
                    pair(1, 61, Interaction::None, None),
                ],
                synergistic: vec![pair(2, 7, Interaction::Synergistic, Some(""))],
                explanation: explanation(0.75),
                suggestion_satisfaction: 0.75,
                kb_version: Some(3),
            }),
        ),
        (
            "model_reloaded",
            Response::ModelReloaded(model_info(Some(37))),
        ),
        ("kb_reloaded", Response::KbReloaded(kb_info())),
        ("kb_info", Response::KbInfo(kb_info())),
        ("list_models.empty", Response::ListModels(vec![])),
        (
            "list_models.two",
            Response::ListModels(vec![model_info(Some(37)), model_info(None)]),
        ),
        ("stats.default", Response::Stats(StatsReport::default())),
        ("stats.full", Response::Stats(full_stats())),
        ("pong", Response::Pong),
        (
            "peer_status.empty",
            Response::PeerStatus { versions: vec![] },
        ),
        (
            "peer_status.two",
            Response::PeerStatus {
                versions: versions(),
            },
        ),
        (
            "peer_sync.model",
            Response::PeerSync {
                model: key("chronic"),
                artifact: SyncArtifact::Model,
                version: 4,
                container: vec![0xDE, 0xAD, 0xBE, 0xEF],
            },
        ),
        (
            "peer_sync.kb_empty",
            Response::PeerSync {
                model: key("chronic"),
                artifact: SyncArtifact::Kb,
                version: 0,
                container: vec![],
            },
        ),
        ("trace_dump.empty", Response::TraceDump(vec![])),
        (
            "trace_dump.two",
            Response::TraceDump(vec![
                TraceExemplar {
                    trace_id: 1,
                    model: "chronic".into(),
                    op: "suggest".into(),
                    total_micros: 900,
                    stage_micros: [1, 2, 3, 890, 4],
                },
                TraceExemplar {
                    trace_id: u64::MAX,
                    model: String::new(),
                    op: "stats".into(),
                    total_micros: 10,
                    stage_micros: [10, 0, 0, 0, 0],
                },
            ]),
        ),
        ("shutting_down", Response::ShuttingDown),
    ];
    let error_labels = [
        "error.malformed",
        "error.unknown_model",
        "error.unknown_drug",
        "error.invalid_input",
        "error.not_fitted",
        "error.internal",
        "error.persistence",
        "error.overloaded",
    ];
    for (label, code) in error_labels.into_iter().zip(ErrorCode::ALL) {
        out.push((
            label,
            Response::Error {
                code,
                message: format!("{code}: no such shard `x`"),
            },
        ));
    }
    out
}

/// Every fixture: `(label, value as Debug text, frame bytes)`.
fn corpus() -> Vec<(String, String, Vec<u8>)> {
    let mut out = Vec::new();
    for (label, request) in requests() {
        let debug = format!("{request:?}");
        out.push((
            format!("request.{label}.v1"),
            debug.clone(),
            encode_request(&request),
        ));
        out.push((
            format!("request.{label}.v2"),
            debug,
            encode_request_ref_traced(request.as_request_ref(), Some(TRACE)),
        ));
    }
    for (label, response) in responses() {
        let debug = format!("{response:?}");
        out.push((
            format!("response.{label}.v1"),
            debug.clone(),
            encode_response(&response),
        ));
        out.push((
            format!("response.{label}.v2"),
            debug,
            encode_response_traced(&response, Some(TRACE)),
        ));
    }
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    assert!(text.len().is_multiple_of(2), "odd-length hex");
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// The checked-in fixtures as `(label, frame bytes)`, in file order.
fn fixtures() -> Vec<(String, Vec<u8>)> {
    FIXTURES
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            let (label, frame) = line.split_once(' ').expect("`<label> <hex>` line");
            (label.to_string(), unhex(frame.trim()))
        })
        .collect()
}

#[test]
fn fixtures_cover_every_variant_in_both_versions() {
    let labels: Vec<String> = fixtures().into_iter().map(|(label, _)| label).collect();
    let expected: Vec<String> = corpus().into_iter().map(|(label, _, _)| label).collect();
    assert_eq!(
        labels, expected,
        "fixture file and corpus disagree on labels"
    );
    for version in ["v1", "v2"] {
        assert!(labels.iter().any(|l| l.ends_with(version)));
    }
}

#[test]
fn encoding_matches_the_fixtures_byte_for_byte() {
    let fixtures = fixtures();
    for (label, _, frame) in corpus() {
        let (_, golden) = fixtures
            .iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("no fixture for {label}"));
        assert_eq!(
            hex(&frame),
            hex(golden),
            "{label}: encoded bytes differ from the golden frame"
        );
    }
}

#[test]
fn fixtures_decode_to_the_corpus_values() {
    let fixtures = fixtures();
    for (label, debug, _) in corpus() {
        let (_, golden) = fixtures
            .iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("no fixture for {label}"));
        let (trace, payload) = open_wire_frame_traced(golden)
            .unwrap_or_else(|e| panic!("{label}: golden frame does not open: {e}"));
        let expected_trace = label.ends_with(".v2").then_some(TRACE);
        assert_eq!(trace, expected_trace, "{label}: trace id");
        // Debug text compares float signs and NaN-ness; the re-encode
        // below compares every bit.
        let (decoded, reencoded) = if label.starts_with("request.") {
            let request = decode_request(payload)
                .unwrap_or_else(|e| panic!("{label}: golden payload does not decode: {e}"));
            (format!("{request:?}"), encode_request(&request))
        } else {
            let response = decode_response(payload)
                .unwrap_or_else(|e| panic!("{label}: golden payload does not decode: {e}"));
            (format!("{response:?}"), encode_response(&response))
        };
        assert_eq!(decoded, debug, "{label}: decoded value differs");
        let (_, v1_payload) = open_wire_frame_traced(&reencoded).unwrap();
        assert_eq!(
            hex(v1_payload),
            hex(payload),
            "{label}: decode→encode is not bit-exact"
        );
    }
}
