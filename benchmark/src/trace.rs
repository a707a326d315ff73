//! The outside-in per-layer trace.
//!
//! The live run records one root span per request: the client round trip
//! through the gateway. Afterwards every request the gateway served is
//! replayed, in order, against in-process copies loaded from the same
//! container, and each call into a layer's public entry point gets a span
//! under that root:
//!
//! ```text
//! client.request                  live round trip (self time = transport)
//! ├─ wire.encode_req              encode_request_ref
//! ├─ wire.decode_req              open_wire_frame + decode_request
//! ├─ router.serve                 Router::serve_framed
//! │  ├─ service.suggest|check     DecisionService::*_with_kb
//! │  │  ├─ service.shard          one per batch shard (run concurrently)
//! │  │  ├─ md.score               DecisionService::predict_scores
//! │  │  ├─ ms.explain             ExplanationIndex::explain (cache miss)
//! │  │  │  └─ ctc.search          closest_truss_community_with
//! │  │  └─ kb.grade               KnowledgeBase::grade per pair
//! │  ├─ persist.model_decode      load_with_embedded_registry_bytes
//! │  │  └─ ms.index_build         ExplanationIndex::build
//! │  ├─ kb.decode                 KnowledgeBase::from_container_bytes
//! │  └─ wire.encode_resp          encode_response
//! └─ wire.decode_resp             open_wire_frame + decode_response
//! ```
//!
//! The service's pieces (`md.score`, `ms.explain`, `kb.grade`) are composed
//! by the replay exactly as the service composes them, with its own
//! `ExplanationCache`, and the composed answer is asserted equal to the
//! service's answer. The router, the service and the composed path each
//! keep their own explanation cache, fed the same requests in the same
//! order as the gateway, so hits and misses line up.
//!
//! A span's self time is its duration minus what its children cover:
//! the sum of sequential children, the longest of concurrent ones. The
//! children were timed in the replay rather than inside the live call, so
//! a request is *consistent* when its clamped self times, along the
//! critical path, sum to its root span within [`CONSISTENCY_TOLERANCE`].

use std::time::{Duration, Instant};

use dssddi_core::ms_module::{ExplanationCache, ExplanationIndex};
use dssddi_core::{
    CheckPrescriptionRequest, DecisionService, InteractionReport, PairInteraction, ScoredDrug,
    SuggestRequest, SuggestResponse,
};
use dssddi_graph::{closest_truss_community_with, truss_decomposition, Interaction};
use dssddi_kb::KnowledgeBase;
use dssddi_serving::wire::{
    decode_request, decode_response, encode_request_ref, encode_response, open_wire_frame,
    RequestRef,
};
use dssddi_serving::{ModelCatalog, ModelKey, Request, Response, Router};
use dssddi_tensor::Matrix;

use crate::context;
use crate::oracle::{same_report, same_suggestion};
use crate::stats::{mean, median, Metric};
use crate::workload::{Op, BATCH_K};
use crate::world::Patients;

/// Largest share of its root span by which a request's clamped self times
/// may exceed the root before the request counts as inconsistent.
pub const CONSISTENCY_TOLERANCE: f64 = 0.25;

/// The service splits a batch into one shard per this many requests (and
/// at most one per CPU); the replay mirrors the split.
const MIN_REQUESTS_PER_SHARD: usize = 8;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Shared by every span of one request.
    pub request: u64,
    /// Layer entry point.
    pub name: &'static str,
    /// Index of the parent span (`None` for a root).
    pub parent: Option<usize>,
    /// Start, from the trace origin.
    pub start: Duration,
    /// End, from the trace origin.
    pub end: Duration,
    /// Ran concurrently with its siblings that are also concurrent.
    pub concurrent: bool,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end.saturating_sub(self.start)).as_secs_f64() * 1e6
    }
}

/// In-memory span store.
pub struct Trace {
    origin: Instant,
    /// Every span recorded, in recording order.
    pub spans: Vec<Span>,
}

impl Trace {
    fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn add(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            request,
            name,
            parent,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            concurrent: false,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    fn time<T>(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (self.add(request, name, parent, start, end), out)
    }

    /// Child span indices per span.
    fn children(&self) -> Vec<Vec<usize>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(i);
            }
        }
        children
    }

    /// Self time of every span, in microseconds.
    pub fn self_times(&self) -> Vec<f64> {
        let children = self.children();
        self.spans
            .iter()
            .enumerate()
            .map(|(i, span)| span.micros() - self.covered(&children[i]))
            .collect()
    }

    /// What a set of sibling spans covers: sequential ones add up,
    /// concurrent ones cover their longest.
    fn covered(&self, siblings: &[usize]) -> f64 {
        let sequential: f64 = siblings
            .iter()
            .filter(|&&c| !self.spans[c].concurrent)
            .map(|&c| self.spans[c].micros())
            .sum();
        let concurrent = siblings
            .iter()
            .filter(|&&c| self.spans[c].concurrent)
            .map(|&c| self.spans[c].micros())
            .fold(0.0, f64::max);
        sequential + concurrent
    }

    /// Per root span: whether its clamped self times along the critical
    /// path sum to it within [`CONSISTENCY_TOLERANCE`].
    pub fn consistency(&self) -> (usize, usize) {
        let children = self.children();
        let self_times = self.self_times();
        fn clamped(i: usize, children: &[Vec<usize>], spans: &[Span], self_times: &[f64]) -> f64 {
            let mut sum = self_times[i].max(0.0);
            let mut longest = 0.0f64;
            for &c in &children[i] {
                let sub = clamped(c, children, spans, self_times);
                if spans[c].concurrent {
                    longest = longest.max(sub);
                } else {
                    sum += sub;
                }
            }
            sum + longest
        }
        let mut roots = 0;
        let mut consistent = 0;
        for (i, span) in self.spans.iter().enumerate() {
            if span.parent.is_none() {
                roots += 1;
                let root = span.micros();
                let sum = clamped(i, &children, &self.spans, &self_times);
                if (sum - root).abs() <= CONSISTENCY_TOLERANCE * root {
                    consistent += 1;
                }
            }
        }
        (consistent, roots)
    }

    /// Writes every span as tab-separated values.
    pub fn write_tsv(&self, path: &std::path::Path) -> Result<(), String> {
        let mut out = String::from("request\tspan\tparent\tname\tstart_us\tend_us\tconcurrent\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{}\t{i}\t{parent}\t{}\t{:.3}\t{:.3}\t{}\n",
                s.request,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.concurrent
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Counts gathered alongside the spans of traced requests.
#[derive(Debug, Default)]
pub struct Counts {
    /// `(nodes, edges)` of every community searched.
    pub communities: Vec<(usize, usize)>,
    /// Rows scored, summed over `md.score` calls.
    pub rows: usize,
    /// Drug pairs graded per critique.
    pub pairs: Vec<usize>,
    /// Request frame bytes of data-plane requests.
    pub req_bytes: Vec<usize>,
    /// Response frame bytes of data-plane requests.
    pub resp_bytes: Vec<usize>,
    /// Composed-path cache hits and lookups.
    pub cache_hits: usize,
    /// See `cache_hits`.
    pub cache_lookups: usize,
}

/// The in-process replica of the gateway that requests are replayed on.
pub struct Replay<'a> {
    key: &'a ModelKey,
    patients: &'a Patients,
    container: &'a [u8],
    kb_container: &'a [u8],
    router: Router,
    service: DecisionService,
    kb: KnowledgeBase,
    index: ExplanationIndex,
    structural: dssddi_graph::UnGraph,
    decomposition: dssddi_graph::TrussDecomposition,
    cache: ExplanationCache,
    next_request: u64,
    /// Spans of traced requests.
    pub trace: Trace,
    /// Counts of traced requests.
    pub counts: Counts,
    /// `ExplanationIndex::build` times, milliseconds (one per model load).
    pub index_build_ms: Vec<f64>,
    /// Per request id: whether it was a read (data plane).
    reads: Vec<bool>,
    /// Whether the request being replayed is traced (counts are kept only
    /// for traced requests).
    tracing: bool,
}

impl<'a> Replay<'a> {
    /// Loads the router, the service and the composed path from the
    /// containers the gateway was given.
    pub fn new(
        key: &'a ModelKey,
        patients: &'a Patients,
        container: &'a [u8],
        kb_container: &'a [u8],
        origin: Instant,
    ) -> Result<Self, String> {
        let routed = DecisionService::load_with_embedded_registry_bytes(container)
            .map_err(context("replay router load"))?;
        let mut catalog = ModelCatalog::new();
        catalog
            .insert(key.clone(), routed)
            .map_err(context("replay catalog"))?;
        let router = Router::new(catalog);
        let service = DecisionService::load_with_embedded_registry_bytes(container)
            .map_err(context("replay service load"))?;
        let kb = KnowledgeBase::from_ddi_graph(service.ddi_graph(), service.registry())
            .map_err(context("replay KB"))?;
        let build = Instant::now();
        let index = ExplanationIndex::build(service.ddi_graph());
        let index_build_ms = vec![build.elapsed().as_secs_f64() * 1e3];
        let structural = service.ddi_graph().structural_graph();
        let decomposition = truss_decomposition(&structural);
        Ok(Self {
            key,
            patients,
            container,
            kb_container,
            router,
            service,
            kb,
            index,
            structural,
            decomposition,
            cache: ExplanationCache::new(),
            next_request: 0,
            trace: Trace::new(origin),
            counts: Counts::default(),
            index_build_ms,
            reads: Vec::new(),
            tracing: false,
        })
    }

    /// Replays one operation the gateway served. With `live` (the
    /// driver's send instant and round trip) the request is traced under
    /// a root span covering the live round trip; without it the replay
    /// only keeps the caches in step with the gateway.
    pub fn replay(&mut self, op: &Op, live: Option<(Instant, Duration)>) -> Result<(), String> {
        let request = self.next_request;
        self.next_request += 1;
        self.reads.push(op.is_read());
        let mark = self.trace.spans.len();
        self.tracing = live.is_some();
        let (sent, rt) = live.unwrap_or((Instant::now(), Duration::ZERO));
        let root = self
            .trace
            .add(request, "client.request", None, sent, sent + rt);
        self.replay_under(op, request, Some(root))?;
        if !self.tracing {
            self.trace.spans.truncate(mark);
        }
        Ok(())
    }

    fn replay_under(&mut self, op: &Op, id: u64, root: Option<usize>) -> Result<(), String> {
        let patients = self.patients;
        let key = self.key;
        let (frame, owned) = match op {
            Op::Suggest { patient, k } => {
                let request = patients.suggest(*patient, *k);
                let (_, frame) = self.trace.time(id, "wire.encode_req", root, || {
                    encode_request_ref(RequestRef::Suggest {
                        model: key,
                        request: &request,
                    })
                });
                (
                    frame,
                    Request::Suggest {
                        model: key.clone(),
                        request,
                    },
                )
            }
            Op::Check { patient } => {
                let request = patients.check(*patient);
                let (_, frame) = self.trace.time(id, "wire.encode_req", root, || {
                    encode_request_ref(RequestRef::CheckPrescription {
                        model: key,
                        request: &request,
                    })
                });
                (
                    frame,
                    Request::CheckPrescription {
                        model: key.clone(),
                        request,
                    },
                )
            }
            Op::Batch { patients: batch } => {
                let requests: Vec<SuggestRequest> = batch
                    .iter()
                    .map(|&p| patients.suggest(p, BATCH_K))
                    .collect();
                let (_, frame) = self.trace.time(id, "wire.encode_req", root, || {
                    encode_request_ref(RequestRef::SuggestBatch {
                        model: key,
                        requests: &requests,
                    })
                });
                (
                    frame,
                    Request::SuggestBatch {
                        model: key.clone(),
                        requests,
                    },
                )
            }
            Op::ReloadModel => {
                let (_, frame) = self.trace.time(id, "wire.encode_req", root, || {
                    encode_request_ref(RequestRef::ReloadModel {
                        model: key,
                        container: self.container,
                    })
                });
                (
                    frame,
                    Request::ReloadModel {
                        model: key.clone(),
                        container: self.container.to_vec(),
                    },
                )
            }
            Op::ReloadKb => {
                let (_, frame) = self.trace.time(id, "wire.encode_req", root, || {
                    encode_request_ref(RequestRef::ReloadKb {
                        model: key,
                        container: self.kb_container,
                    })
                });
                (
                    frame,
                    Request::ReloadKb {
                        model: key.clone(),
                        container: self.kb_container.to_vec(),
                    },
                )
            }
        };
        let (_, decoded) = self.trace.time(id, "wire.decode_req", root, || {
            open_wire_frame(&frame)
                .map_err(|e| e.to_string())
                .and_then(|payload| decode_request(payload).map_err(|e| e.to_string()))
        });
        if decoded.map_err(context("replay request decode"))? != owned {
            return Err("replayed request frame does not decode to the request".to_string());
        }
        let router = &self.router;
        let (serve, response_frame) = self
            .trace
            .time(id, "router.serve", root, || router.serve_framed(&owned));
        let (_, response) = self.trace.time(id, "wire.decode_resp", root, || {
            open_wire_frame(&response_frame)
                .map_err(|e| e.to_string())
                .and_then(|payload| decode_response(payload).map_err(|e| e.to_string()))
        });
        let response = response.map_err(context("replay response decode"))?;
        if self.tracing && op.is_read() {
            self.counts.req_bytes.push(frame.len());
            self.counts.resp_bytes.push(response_frame.len());
        }
        let encoded = match (&owned, &response) {
            (Request::Suggest { request, .. }, Response::Suggest(got)) => {
                let want = self.suggest(id, serve, std::slice::from_ref(request))?;
                let want = want.first().ok_or("service answered no suggestion")?;
                same_suggestion(got, want).map_err(|e| format!("router vs service: {e}"))?;
                Response::Suggest(want.clone())
            }
            (Request::SuggestBatch { requests, .. }, Response::SuggestBatch(got)) => {
                let want = self.suggest(id, serve, requests)?;
                if got.len() != want.len() {
                    return Err("router batch length differs from the service's".to_string());
                }
                for (g, w) in got.iter().zip(&want) {
                    same_suggestion(g, w).map_err(|e| format!("router vs service: {e}"))?;
                }
                Response::SuggestBatch(want)
            }
            (Request::CheckPrescription { request, .. }, Response::CheckPrescription(got)) => {
                let want = self.check(id, serve, request)?;
                same_report(got, &want).map_err(|e| format!("router vs service: {e}"))?;
                Response::CheckPrescription(want)
            }
            (Request::ReloadModel { .. }, Response::ModelReloaded(_)) => {
                let (decode, service) =
                    self.trace
                        .time(id, "persist.model_decode", Some(serve), || {
                            DecisionService::load_with_embedded_registry_bytes(self.container)
                        });
                self.service = service.map_err(context("replay model reload"))?;
                let (build, index) = self.trace.time(id, "ms.index_build", Some(decode), || {
                    ExplanationIndex::build(self.service.ddi_graph())
                });
                self.index_build_ms
                    .push(self.trace.spans[build].micros() / 1e3);
                self.index = index;
                self.cache = ExplanationCache::new();
                response
            }
            (Request::ReloadKb { .. }, Response::KbReloaded(_)) => {
                let (_, kb) = self.trace.time(id, "kb.decode", Some(serve), || {
                    KnowledgeBase::from_container_bytes(self.kb_container)
                });
                self.kb = kb.map_err(context("replay KB reload"))?;
                response
            }
            (_, other) => return Err(format!("replay router answered {other:?}")),
        };
        let (_, reencoded) = self.trace.time(id, "wire.encode_resp", Some(serve), || {
            encode_response(&encoded)
        });
        if op.is_read() && reencoded != response_frame {
            return Err(
                "service answer re-encodes to a different frame than the router's".to_string(),
            );
        }
        Ok(())
    }

    /// Times the service's suggestion call and the composed pieces, and
    /// checks they agree.
    fn suggest(
        &mut self,
        id: u64,
        parent: usize,
        requests: &[SuggestRequest],
    ) -> Result<Vec<SuggestResponse>, String> {
        let (service_span, answer) = self.trace.time(id, "service.suggest", Some(parent), || {
            self.service.suggest_batch_with_kb(requests, Some(&self.kb))
        });
        let answer = answer.map_err(context("replay service suggest"))?;
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min((requests.len() / MIN_REQUESTS_PER_SHARD).max(1));
        let chunk_len = requests.len().div_ceil(workers.max(1));
        let sharded = chunk_len < requests.len();
        let mut composed = Vec::with_capacity(requests.len());
        for chunk in requests.chunks(chunk_len.max(1)) {
            let shard = if sharded {
                let now = Instant::now();
                let span = self
                    .trace
                    .add(id, "service.shard", Some(service_span), now, now);
                self.trace.spans[span].concurrent = true;
                span
            } else {
                service_span
            };
            let shard_start = Instant::now();
            composed.extend(self.compose_suggest(id, shard, chunk)?);
            if sharded {
                self.trace.spans[shard].start =
                    shard_start.saturating_duration_since(self.trace.origin);
                self.trace.spans[shard].end =
                    Instant::now().saturating_duration_since(self.trace.origin);
            }
        }
        if composed.len() != answer.len() {
            return Err("composed suggestion count differs from the service's".to_string());
        }
        for (c, a) in composed.iter().zip(&answer) {
            same_suggestion(c, a).map_err(|e| format!("composed vs service: {e}"))?;
        }
        Ok(answer)
    }

    fn compose_suggest(
        &mut self,
        id: u64,
        parent: usize,
        chunk: &[SuggestRequest],
    ) -> Result<Vec<SuggestResponse>, String> {
        let n_features = chunk.first().map_or(0, |r| r.features.len());
        let stacked: Vec<f32> = chunk
            .iter()
            .flat_map(|r| r.features.iter().copied())
            .collect();
        let features = Matrix::from_vec(chunk.len(), n_features, stacked)
            .map_err(context("replay features"))?;
        let (_, scores) = self.trace.time(id, "md.score", Some(parent), || {
            self.service.predict_scores(&features)
        });
        let scores = scores.map_err(context("replay predict_scores"))?;
        if self.tracing {
            self.counts.rows += chunk.len();
        }
        let mut out = Vec::with_capacity(chunk.len());
        for (row, request) in chunk.iter().enumerate() {
            let scores = scores.row(row);
            let mut order: Vec<usize> = (0..scores.len()).collect();
            order.sort_by(|&a, &b| {
                scores[b]
                    .partial_cmp(&scores[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            order.truncate(request.k);
            let drugs = order
                .iter()
                .map(|&d| {
                    Ok(ScoredDrug {
                        id: dssddi_core::DrugId::new(d),
                        name: self
                            .service
                            .registry()
                            .name_of(d)
                            .ok_or("unknown drug")?
                            .to_string(),
                        score: scores[d],
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            let cached = self.cache.lookup(&order);
            if self.tracing {
                self.counts.cache_lookups += 1;
                self.counts.cache_hits += usize::from(cached.is_some());
            }
            let explanation = match cached {
                Some(hit) => hit,
                None => {
                    let key = ExplanationCache::canonical_key(&order);
                    let explanation = self.explain(id, parent, &key)?;
                    self.cache.insert(&key, explanation.clone());
                    explanation
                }
            };
            out.push(SuggestResponse {
                patient: request.patient,
                drugs,
                suggestion_satisfaction: explanation.suggestion_satisfaction,
                explanation,
            });
        }
        Ok(out)
    }

    fn explain(
        &mut self,
        id: u64,
        parent: usize,
        drugs: &[usize],
    ) -> Result<dssddi_core::ms_module::Explanation, String> {
        let config = self.service.config().ms.clone();
        let ddi = self.service.ddi_graph();
        let index = &self.index;
        let (explain, explanation) = self.trace.time(id, "ms.explain", Some(parent), || {
            index.explain(ddi, drugs, &config)
        });
        let explanation = explanation.map_err(context("replay explain"))?;
        let (structural, decomposition) = (&self.structural, &self.decomposition);
        let (_, community) = self.trace.time(id, "ctc.search", Some(explain), || {
            closest_truss_community_with(structural, decomposition, drugs, &config.ctc)
        });
        let community = community.map_err(context("replay community search"))?;
        if community != explanation.community {
            return Err("community search differs from the explanation's community".to_string());
        }
        if self.tracing {
            self.counts
                .communities
                .push((community.node_count(), community.edge_count()));
        }
        Ok(explanation)
    }

    /// Times the service's critique and the composed pieces, and checks
    /// they agree.
    fn check(
        &mut self,
        id: u64,
        parent: usize,
        request: &CheckPrescriptionRequest,
    ) -> Result<InteractionReport, String> {
        let (service_span, answer) = self.trace.time(id, "service.check", Some(parent), || {
            self.service
                .check_prescription_with_kb(request, Some(&self.kb))
        });
        let answer = answer.map_err(context("replay service check"))?;
        let mut drugs: Vec<ScoredDrug> = Vec::new();
        for &d in &request.drugs {
            if drugs.iter().any(|x| x.id == d) {
                continue;
            }
            let name = self
                .service
                .registry()
                .name_of(d.index())
                .ok_or("unknown drug")?;
            drugs.push(ScoredDrug {
                id: d,
                name: name.to_string(),
                score: 1.0,
            });
        }
        let (ddi, kb) = (self.service.ddi_graph(), &self.kb);
        let (_, (antagonistic, synergistic, pairs)) =
            self.trace.time(id, "kb.grade", Some(service_span), || {
                let mut antagonistic = Vec::new();
                let mut synergistic = Vec::new();
                let mut pairs = 0usize;
                for (i, a) in drugs.iter().enumerate() {
                    for b in &drugs[i + 1..] {
                        pairs += 1;
                        let graph_sign = ddi.interaction(a.id.index(), b.id.index());
                        let signed = graph_sign.filter(|&s| s != Interaction::None);
                        if signed.is_none() && kb.lookup(a.id.index(), b.id.index()).is_none() {
                            continue;
                        }
                        let interaction = signed.or(graph_sign).unwrap_or(Interaction::None);
                        let (severity, management) =
                            kb.grade(a.id.index(), b.id.index(), interaction);
                        if !request.policy.reports(severity) {
                            continue;
                        }
                        let pair = PairInteraction {
                            a: a.id,
                            a_name: a.name.clone(),
                            b: b.id,
                            b_name: b.name.clone(),
                            interaction,
                            severity,
                            management: management.map(str::to_string),
                        };
                        match interaction {
                            Interaction::Synergistic => synergistic.push(pair),
                            Interaction::Antagonistic | Interaction::None => {
                                antagonistic.push(pair)
                            }
                        }
                    }
                }
                (antagonistic, synergistic, pairs)
            });
        if self.tracing {
            self.counts.pairs.push(pairs);
        }
        let indices: Vec<usize> = drugs.iter().map(|d| d.id.index()).collect();
        let explanation = self.explain(id, service_span, &indices)?;
        let composed = InteractionReport {
            patient: request.patient,
            drugs,
            antagonistic,
            synergistic,
            suggestion_satisfaction: explanation.suggestion_satisfaction,
            explanation,
            kb_version: Some(self.kb.version()),
        };
        same_report(&composed, &answer).map_err(|e| format!("composed vs service: {e}"))?;
        Ok(answer)
    }
}

impl Replay<'_> {
    /// Drug sets in the composed path's explanation cache right now.
    pub fn cache_entries(&self) -> usize {
        self.cache.len()
    }

    /// The per-layer metrics of the traced requests. `decode_ms` adds the
    /// set-up's own container decodes to the replayed ones; `cache_entries`
    /// is the cache size at the end of the timed phase.
    pub fn layer_metrics(&self, decode_ms: &[f64], cache_entries: usize) -> Vec<Metric> {
        let spans = &self.trace.spans;
        let self_times = self.trace.self_times();
        let read = |i: usize| {
            self.reads
                .get(spans[i].request as usize)
                .copied()
                .unwrap_or(false)
        };
        let durations = |name: &str, reads_only: bool| -> Vec<f64> {
            (0..spans.len())
                .filter(|&i| spans[i].name == name && (!reads_only || read(i)))
                .map(|i| spans[i].micros())
                .collect()
        };
        let selves = |names: &[&str], reads_only: bool| -> Vec<f64> {
            (0..spans.len())
                .filter(|&i| names.contains(&spans[i].name) && (!reads_only || read(i)))
                .map(|i| self_times[i])
                .collect()
        };
        let med = |v: Vec<f64>| median(&v).unwrap_or(f64::NAN);
        let avg = |v: Vec<f64>| mean(&v).unwrap_or(f64::NAN);
        let c = &self.counts;
        let md = durations("md.score", true);
        let md_calls = md.len();
        let md_total: f64 = md.iter().sum();
        let mut decodes: Vec<f64> = durations("persist.model_decode", false)
            .iter()
            .map(|us| us / 1e3)
            .collect();
        decodes.extend_from_slice(decode_ms);
        vec![
            Metric::new("ms.explain_us", med(durations("ms.explain", true)), "us"),
            Metric::new("ctc.search_us", med(durations("ctc.search", true)), "us"),
            Metric::new(
                "ctc.community_nodes",
                avg(c.communities.iter().map(|&(n, _)| n as f64).collect()),
                "count",
            ),
            Metric::new(
                "ctc.community_edges",
                avg(c.communities.iter().map(|&(_, e)| e as f64).collect()),
                "count",
            ),
            Metric::new(
                "ms.cache_hit_ratio",
                c.cache_hits as f64 / c.cache_lookups.max(1) as f64,
                "ratio",
            ),
            Metric::new("ms.cache_entries", cache_entries as f64, "count"),
            Metric::new("md.score_us", md_total / c.rows.max(1) as f64, "us"),
            Metric::new(
                "md.rows_per_call",
                c.rows as f64 / md_calls.max(1) as f64,
                "count",
            ),
            Metric::new(
                "service.suggest_us",
                med(durations("service.suggest", true)),
                "us",
            ),
            Metric::new(
                "service.check_us",
                med(durations("service.check", true)),
                "us",
            ),
            Metric::new(
                "service.self_us",
                med(selves(&["service.suggest", "service.check"], true)),
                "us",
            ),
            Metric::new("kb.grade_us", med(durations("kb.grade", true)), "us"),
            Metric::new(
                "kb.pairs_per_check",
                avg(c.pairs.iter().map(|&p| p as f64).collect()),
                "count",
            ),
            Metric::new(
                "wire.encode_req_us",
                med(durations("wire.encode_req", true)),
                "us",
            ),
            Metric::new(
                "wire.decode_req_us",
                med(durations("wire.decode_req", true)),
                "us",
            ),
            Metric::new(
                "wire.encode_resp_us",
                med(durations("wire.encode_resp", true)),
                "us",
            ),
            Metric::new(
                "wire.decode_resp_us",
                med(durations("wire.decode_resp", true)),
                "us",
            ),
            Metric::new(
                "wire.req_bytes",
                avg(c.req_bytes.iter().map(|&b| b as f64).collect()),
                "bytes",
            ),
            Metric::new(
                "wire.resp_bytes",
                avg(c.resp_bytes.iter().map(|&b| b as f64).collect()),
                "bytes",
            ),
            Metric::new(
                "router.serve_us",
                med(durations("router.serve", true)),
                "us",
            ),
            Metric::new("router.self_us", med(selves(&["router.serve"], true)), "us"),
            Metric::new(
                "server.transport_us",
                med(selves(&["client.request"], true)),
                "us",
            ),
            Metric::new("persist.model_decode_ms", med(decodes), "ms"),
            Metric::new(
                "kb.decode_ms",
                med(durations("kb.decode", false)
                    .iter()
                    .map(|us| us / 1e3)
                    .collect()),
                "ms",
            ),
            Metric::new("ms.index_build_ms", med(self.index_build_ms.clone()), "ms"),
        ]
    }
}
