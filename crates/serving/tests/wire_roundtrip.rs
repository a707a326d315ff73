//! Property-based coverage of the serving wire protocol: random requests
//! and responses round-trip bit-exactly through encode→frame→decode, and
//! random truncation or bit-flips of frames yield typed errors — never
//! panics, never a wrong-but-accepted message (the CRC catches payload
//! damage; the header checks catch the rest).

// Tests and examples may panic freely; the workspace-level panic-policy
// denies target library and binary code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dssddi_core::{
    CheckPrescriptionRequest, DrugId, Explanation, InteractionReport, PairInteraction, PatientId,
    ScoredDrug, SignedEdge, SuggestFilters, SuggestRequest, SuggestResponse,
};
use dssddi_graph::{Community, Interaction};
use dssddi_kb::{AlertPolicy, KbInfo, Severity};
use dssddi_serving::wire::{
    decode_request, decode_response, encode_request, encode_request_ref_traced, encode_response,
    encode_response_traced, open_wire_frame, open_wire_frame_traced, WireError, WIRE_MAGIC,
    WIRE_VERSION,
};
use dssddi_serving::{ErrorCode, ModelKey, ModelStats, Request, Response};
use dssddi_tensor::serde::{seal_frame, SerdeError};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Strategies. Floats are drawn as raw bit patterns so NaNs, infinities and
// negative zero all appear; equality below is always on bits.
// ---------------------------------------------------------------------------

fn arb_f32_bits() -> impl Strategy<Value = f32> {
    (0u32..=u32::MAX).prop_map(f32::from_bits)
}

fn arb_f64_bits() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

fn arb_model_key() -> impl Strategy<Value = ModelKey> {
    (1usize..12, any::<u64>()).prop_map(|(len, salt)| {
        let alphabet: Vec<char> = ('a'..='z').chain("0123456789-_./".chars()).collect();
        let key: String = (0..len)
            .map(|i| {
                let mix = salt
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(i as u32);
                alphabet[(mix as usize) % alphabet.len()]
            })
            .collect();
        ModelKey::new(key).expect("alphabet chars are always valid")
    })
}

fn arb_drug_ids() -> impl Strategy<Value = Vec<DrugId>> {
    proptest::collection::vec(0usize..200, 0..5)
        .prop_map(|ids| ids.into_iter().map(DrugId::new).collect())
}

fn arb_suggest_request() -> impl Strategy<Value = SuggestRequest> {
    (
        0usize..10_000,
        proptest::collection::vec(arb_f32_bits(), 0..40),
        0usize..10,
        arb_drug_ids(),
        arb_drug_ids(),
        arb_drug_ids(),
    )
        .prop_map(|(patient, features, k, exclude, avoid, contraindicated)| {
            SuggestRequest::new(PatientId::new(patient), features, k).with_filters(SuggestFilters {
                exclude,
                avoid_antagonists_of: avoid,
                exclude_contraindicated_with: contraindicated,
            })
        })
}

fn arb_severity() -> impl Strategy<Value = Severity> {
    (0u8..4).prop_map(|t| Severity::from_u8(t).expect("tags 0..4 are valid"))
}

fn arb_alert_policy() -> impl Strategy<Value = AlertPolicy> {
    (arb_severity(), any::<bool>()).prop_map(|(min_severity, contraindicated_always_fires)| {
        AlertPolicy {
            min_severity,
            contraindicated_always_fires,
        }
    })
}

fn arb_kb_info() -> impl Strategy<Value = KbInfo> {
    (
        any::<u64>(),
        0usize..100_000,
        proptest::collection::vec(0usize..1000, 4),
        any::<u64>(),
        0usize..10_000,
    )
        .prop_map(
            |(version, n_facts, by_severity, registry_digest, n_drugs)| KbInfo {
                version,
                n_facts,
                facts_by_severity: [
                    by_severity[0],
                    by_severity[1],
                    by_severity[2],
                    by_severity[3],
                ],
                registry_digest,
                n_drugs,
            },
        )
}

fn arb_interaction() -> impl Strategy<Value = Interaction> {
    (0u8..3).prop_map(|t| match t {
        0 => Interaction::None,
        1 => Interaction::Synergistic,
        _ => Interaction::Antagonistic,
    })
}

fn arb_scored_drug() -> impl Strategy<Value = ScoredDrug> {
    (0usize..200, 0usize..30, arb_f32_bits()).prop_map(|(id, name_len, score)| ScoredDrug {
        id: DrugId::new(id),
        name: "drüg-".chars().cycle().take(name_len).collect(),
        score,
    })
}

fn arb_explanation() -> impl Strategy<Value = Explanation> {
    (
        proptest::collection::vec(0usize..100, 0..5),
        proptest::collection::vec(0usize..100, 0..8),
        proptest::collection::vec((0usize..100, 0usize..100), 0..8),
        (0usize..10, 0usize..1000),
        proptest::collection::vec((0usize..100, 0usize..100, arb_interaction()), 0..8),
        (0usize..5, 0usize..5, 0usize..5),
        arb_f64_bits(),
    )
        .prop_map(
            |(suggested, nodes, comm_edges, (trussness, diameter), edges, counts, ss)| {
                Explanation {
                    suggested,
                    community: Community {
                        nodes: nodes.into_iter().collect(),
                        edges: comm_edges,
                        trussness,
                        diameter,
                    },
                    edges: edges
                        .into_iter()
                        .map(|(u, v, interaction)| SignedEdge { u, v, interaction })
                        .collect(),
                    internal_synergy: counts.0,
                    internal_antagonism: counts.1,
                    external_antagonism: counts.2,
                    suggestion_satisfaction: ss,
                }
            },
        )
}

fn arb_suggest_response() -> impl Strategy<Value = SuggestResponse> {
    (
        0usize..10_000,
        proptest::collection::vec(arb_scored_drug(), 0..6),
        arb_explanation(),
        arb_f64_bits(),
    )
        .prop_map(|(patient, drugs, explanation, ss)| SuggestResponse {
            patient: PatientId::new(patient),
            drugs,
            explanation,
            suggestion_satisfaction: ss,
        })
}

fn arb_pair() -> impl Strategy<Value = PairInteraction> {
    (
        0usize..200,
        0usize..200,
        arb_interaction(),
        arb_severity(),
        (any::<bool>(), 0usize..20),
    )
        .prop_map(
            |(a, b, interaction, severity, (has_hint, hint_len))| PairInteraction {
                a: DrugId::new(a),
                a_name: format!("drug-{a}"),
                b: DrugId::new(b),
                b_name: format!("drug-{b}"),
                interaction,
                severity,
                management: has_hint.then(|| "hint-".chars().cycle().take(hint_len).collect()),
            },
        )
}

fn arb_report() -> impl Strategy<Value = InteractionReport> {
    (
        any::<bool>(),
        0usize..10_000,
        proptest::collection::vec(arb_scored_drug(), 0..6),
        proptest::collection::vec(arb_pair(), 0..4),
        proptest::collection::vec(arb_pair(), 0..4),
        arb_explanation(),
        arb_f64_bits(),
        (any::<bool>(), any::<u64>()),
    )
        .prop_map(
            |(
                has_patient,
                patient,
                drugs,
                antagonistic,
                synergistic,
                explanation,
                ss,
                (has_kb, kb_version),
            )| {
                InteractionReport {
                    patient: has_patient.then_some(PatientId::new(patient)),
                    drugs,
                    antagonistic,
                    synergistic,
                    explanation,
                    suggestion_satisfaction: ss,
                    kb_version: has_kb.then_some(kb_version),
                }
            },
        )
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        0u8..9,
        arb_model_key(),
        arb_suggest_request(),
        proptest::collection::vec(arb_suggest_request(), 0..4),
        (any::<bool>(), 0usize..10_000),
        arb_drug_ids(),
        arb_alert_policy(),
        proptest::collection::vec((0u32..256).prop_map(|v| v as u8), 0..64),
    )
        .prop_map(
            |(
                variant,
                model,
                request,
                requests,
                (has_patient, patient),
                drugs,
                policy,
                container,
            )| match variant {
                0 => Request::Suggest { model, request },
                1 => Request::SuggestBatch { model, requests },
                2 => {
                    let mut check = CheckPrescriptionRequest::new(drugs).with_policy(policy);
                    if has_patient {
                        check = check.for_patient(PatientId::new(patient));
                    }
                    Request::CheckPrescription {
                        model,
                        request: check,
                    }
                }
                3 => Request::ReloadModel { model, container },
                4 => Request::ReloadKb { model, container },
                5 => Request::KbInfo { model },
                6 => Request::ListModels,
                7 => Request::Stats,
                _ => Request::Shutdown,
            },
        )
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    (0usize..ErrorCode::ALL.len()).prop_map(|i| ErrorCode::ALL[i])
}

fn arb_model_stats() -> impl Strategy<Value = ModelStats> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec((arb_error_code(), any::<u64>()), 0..4),
        any::<u64>(),
        any::<u64>(),
        arb_f64_bits(),
        arb_f64_bits(),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                requests,
                errors,
                errors_by_code,
                cache_hits,
                cache_misses,
                p50_ms,
                p99_ms,
                (shed_requests, in_flight, queue_depth_hwm, samples),
            )| {
                ModelStats {
                    requests,
                    errors,
                    errors_by_code,
                    cache_hits,
                    cache_misses,
                    p50_ms,
                    p99_ms,
                    shed_requests,
                    in_flight,
                    queue_depth_hwm,
                    samples,
                }
            },
        )
}

fn arb_model_info() -> impl Strategy<Value = dssddi_serving::ModelInfo> {
    (arb_model_key(), arb_model_stats(), any::<u64>()).prop_map(|(key, s, kb_version)| {
        dssddi_serving::ModelInfo {
            key,
            fitted: s.requests % 2 == 0,
            n_drugs: (s.errors % 100) as usize,
            n_features: (s.cache_hits % 2 == 0).then_some((s.cache_hits % 50) as usize),
            registry_digest: s.cache_misses,
            backbone: "SGCN".to_string(),
            kb_version,
        }
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        0u8..10,
        arb_suggest_response(),
        proptest::collection::vec(arb_suggest_response(), 0..3),
        arb_report(),
        proptest::collection::vec((arb_model_key(), arb_model_stats()), 0..4),
        proptest::collection::vec(arb_model_info(), 0..4),
        arb_kb_info(),
        (
            (arb_error_code(), 0usize..40),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        ),
    )
        .prop_map(
            |(
                variant,
                response,
                responses,
                report,
                stats,
                models,
                kb_info,
                ((code, msg_len), gateway),
            )| {
                match variant {
                    0 => Response::Suggest(response),
                    1 => Response::SuggestBatch(responses),
                    2 => Response::CheckPrescription(report),
                    3 => Response::ListModels(models),
                    4 => Response::Stats(dssddi_serving::StatsReport {
                        models: stats,
                        gateway: dssddi_serving::GatewayStats {
                            connections_accepted: gateway.0,
                            connections_active: gateway.1,
                            connections_shed: gateway.2,
                            stalled_reaped: gateway.3,
                        },
                        // Half the generated reports are replicated so the
                        // optional trailer roundtrips in both states.
                        replica: (gateway.0 % 2 == 1).then(|| dssddi_serving::ReplicaStats {
                            peers: (gateway.1 % 5) as usize,
                            syncs: gateway.2,
                            bytes_shipped: gateway.3,
                            max_lag: gateway.0 % 17,
                            versions: vec![dssddi_serving::KeyVersions {
                                key: ModelKey::new("chronic").expect("valid key"),
                                model_version: gateway.2.wrapping_add(1),
                                kb_version: gateway.3.wrapping_add(1),
                            }],
                        }),
                    }),
                    5 => Response::ModelReloaded(models.into_iter().next().unwrap_or_else(|| {
                        dssddi_serving::ModelInfo {
                            key: ModelKey::new("m").expect("valid key"),
                            fitted: true,
                            n_drugs: 1,
                            n_features: None,
                            registry_digest: 0,
                            backbone: "SGCN".to_string(),
                            kb_version: 0,
                        }
                    })),
                    6 => Response::KbReloaded(kb_info),
                    7 => Response::KbInfo(kb_info),
                    8 => Response::ShuttingDown,
                    _ => Response::Error {
                        code,
                        message: "e".repeat(msg_len),
                    },
                }
            },
        )
}

// ---------------------------------------------------------------------------
// Bit-exact equality. Derived PartialEq is wrong for NaN-bearing floats, so
// requests/responses are compared through their wire bytes: the encoder is
// deterministic, so value equality (bit-level) implies byte equality.
// ---------------------------------------------------------------------------

fn request_bytes(r: &Request) -> Vec<u8> {
    encode_request(r)
}

fn response_bytes(r: &Response) -> Vec<u8> {
    encode_response(r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Requests survive encode→frame-validate→decode bit-exactly.
    #[test]
    fn requests_round_trip_bit_exactly(request in arb_request()) {
        let frame = encode_request(&request);
        let payload = open_wire_frame(&frame).expect("fresh frame validates");
        let back = decode_request(payload).expect("fresh payload decodes");
        prop_assert_eq!(request_bytes(&back), frame);
    }

    /// Responses survive encode→frame-validate→decode bit-exactly,
    /// including NaN/infinity scores and satisfaction values.
    #[test]
    fn responses_round_trip_bit_exactly(response in arb_response()) {
        let frame = encode_response(&response);
        let payload = open_wire_frame(&frame).expect("fresh frame validates");
        let back = decode_response(payload).expect("fresh payload decodes");
        prop_assert_eq!(response_bytes(&back), frame);
    }

    /// Any trace ID rides the version-2 extension block losslessly, and a
    /// `None` trace produces the version-1 frame bit-identically — a traced
    /// client with tracing off is indistinguishable from an old client.
    #[test]
    fn trace_ids_round_trip_through_the_frame_extension(
        request in arb_request(),
        response in arb_response(),
        trace in any::<u64>(),
    ) {
        // Requests.
        let traced = encode_request_ref_traced(request.as_request_ref(), Some(trace));
        let (got, payload) = open_wire_frame_traced(&traced).expect("traced frame validates");
        prop_assert_eq!(got, Some(trace));
        let back = decode_request(payload).expect("traced payload decodes");
        prop_assert_eq!(request_bytes(&back), request_bytes(&request));
        let untraced = encode_request_ref_traced(request.as_request_ref(), None);
        prop_assert_eq!(&untraced, &encode_request(&request));
        let (got, _) = open_wire_frame_traced(&untraced).expect("v1 frame validates");
        prop_assert_eq!(got, None);

        // Responses, same contract.
        let traced = encode_response_traced(&response, Some(trace));
        let (got, payload) = open_wire_frame_traced(&traced).expect("traced frame validates");
        prop_assert_eq!(got, Some(trace));
        let back = decode_response(payload).expect("traced payload decodes");
        prop_assert_eq!(response_bytes(&back), response_bytes(&response));
        prop_assert_eq!(
            encode_response_traced(&response, None),
            encode_response(&response)
        );
    }

    /// Truncating a traced frame anywhere yields a typed error, never a
    /// panic — the extension block is length-checked like everything else.
    #[test]
    fn truncated_traced_frames_are_typed_errors(
        response in arb_response(),
        trace in any::<u64>(),
        cut_at in any::<proptest::sample::Index>(),
    ) {
        let frame = encode_response_traced(&response, Some(trace));
        let cut = cut_at.index(frame.len());
        prop_assert!(open_wire_frame_traced(&frame[..cut]).is_err());
    }

    /// Truncating a frame anywhere yields a typed error, never a panic.
    #[test]
    fn truncated_frames_are_typed_errors(
        response in arb_response(),
        cut_at in any::<proptest::sample::Index>(),
    ) {
        let frame = encode_response(&response);
        let cut = cut_at.index(frame.len());
        prop_assert!(open_wire_frame(&frame[..cut]).is_err());
        // The streaming reader agrees with the buffer validator.
        let mut stream = std::io::Cursor::new(frame[..cut].to_vec());
        prop_assert!(dssddi_serving::wire::read_frame(&mut stream).is_err());
    }

    /// Flipping any single bit of a frame yields a typed error — the header
    /// checks catch damage before the payload, the CRC catches damage inside
    /// it. (Flips confined to the CRC trailer itself also fail, as a
    /// checksum mismatch.)
    #[test]
    fn bit_flips_are_typed_errors(
        request in arb_request(),
        byte_at in any::<proptest::sample::Index>(),
        bit in 0u8..8,
    ) {
        let frame = encode_request(&request);
        let index = byte_at.index(frame.len());
        let mut damaged = frame.clone();
        damaged[index] ^= 1 << bit;
        match open_wire_frame(&damaged) {
            Err(_) => {}
            Ok(payload) => {
                // The only survivable flip is inside the *declared length
                // high bytes*? No: any length change truncates or extends
                // and fails. A flip that still validates must decode to a
                // different message or fail decoding — accepting damaged
                // bytes as the original message is the one forbidden
                // outcome.
                let reencoded = decode_request(payload).map(|r| encode_request(&r));
                prop_assert!(
                    reencoded.map(|bytes| bytes != frame).unwrap_or(true),
                    "bit flip at byte {} bit {} was silently absorbed",
                    index,
                    bit
                );
            }
        }
    }
}

#[test]
fn error_frames_from_wire_module_decode_everywhere() {
    // The server's typed error mapping must survive the wire.
    let error = dssddi_serving::ServingError::UnknownModel {
        key: "nope".to_string(),
        available: vec!["chronic".to_string()],
    };
    let response = dssddi_serving::wire::error_response(&error);
    let frame = encode_response(&response);
    let decoded = decode_response(open_wire_frame(&frame).expect("validates")).expect("decodes");
    match decoded {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::UnknownModel);
            assert!(message.contains("nope") && message.contains("chronic"));
        }
        other => panic!("expected Error, got {other:?}"),
    }
}

/// Overwrites the u64 count at `offset` of a frame's payload (checking it
/// held `expect`) with `count`, and re-seals the frame so its CRC is valid
/// and decoding reaches the count.
fn reseal_with_count(frame: &[u8], offset: usize, expect: u64, count: u64) -> Vec<u8> {
    let mut payload = open_wire_frame(frame).expect("fresh frame").to_vec();
    let field = &mut payload[offset..offset + 8];
    assert_eq!(
        field,
        expect.to_le_bytes(),
        "layout moved: no count at {offset}"
    );
    field.copy_from_slice(&count.to_le_bytes());
    seal_frame(WIRE_MAGIC, WIRE_VERSION, &payload)
}

#[test]
fn oversized_declared_lengths_error_before_allocation() {
    let frame = encode_request(&Request::ListModels);
    let mut bad = frame;
    bad[6..14].copy_from_slice(&(u64::MAX - 100).to_le_bytes());
    assert!(matches!(
        open_wire_frame(&bad),
        Err(WireError::Oversized { .. })
    ));
    let mut stream = std::io::Cursor::new(bad);
    assert!(matches!(
        dssddi_serving::wire::read_frame(&mut stream),
        Err(WireError::Oversized { .. })
    ));

    // Counts inside a well-sealed body: decoding must reject each one
    // against the bytes left, not allocate for it.
    let huge = u64::MAX / 2;
    let model = ModelKey::new("chronic").unwrap();
    let request = SuggestRequest::new(PatientId::new(3), vec![0.5, 1.5], 3);
    // tag (1) + model key (8 + 7): the batch count comes next.
    let batch = encode_request(&Request::SuggestBatch {
        model: model.clone(),
        requests: vec![request.clone()],
    });
    // ... and for a single request, the patient (8) precedes the features.
    let single = encode_request(&Request::Suggest { model, request });
    for (what, bad) in [
        ("batch count", reseal_with_count(&batch, 16, 1, huge)),
        ("features length", reseal_with_count(&single, 24, 2, huge)),
    ] {
        let decoded = decode_request(open_wire_frame(&bad).expect("re-sealed frame opens"));
        assert!(
            matches!(
                decoded,
                Err(SerdeError::Truncated { .. }) | Err(SerdeError::Corrupt { .. })
            ),
            "{what}: {decoded:?}"
        );
    }
    // tag (1) + patient (8) + no drugs (8) + no suggested drugs (8): the
    // community's node count comes next.
    let response = encode_response(&Response::Suggest(SuggestResponse {
        patient: PatientId::new(3),
        drugs: vec![],
        explanation: Explanation {
            suggested: vec![],
            community: Community {
                nodes: [4, 5].into_iter().collect(),
                edges: vec![(4, 5)],
                trussness: 2,
                diameter: 1,
            },
            edges: vec![],
            internal_synergy: 0,
            internal_antagonism: 0,
            external_antagonism: 0,
            suggestion_satisfaction: 0.5,
        },
        suggestion_satisfaction: 0.5,
    }));
    let bad = reseal_with_count(&response, 25, 2, huge);
    let decoded = decode_response(open_wire_frame(&bad).expect("re-sealed frame opens"));
    assert!(
        matches!(
            decoded,
            Err(SerdeError::Truncated { .. }) | Err(SerdeError::Corrupt { .. })
        ),
        "community.nodes length: {decoded:?}"
    );
}
