//! The versioned binary wire protocol of the serving gateway.
//!
//! ## Frames
//!
//! Every message travels in a *frame* with the same shape as the `DSSD`
//! container (see [`dssddi_tensor::serde`]), under its own magic bytes and
//! version so a model file can never be confused with a network frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic bytes "DSWR"
//! 4       2     protocol version (little-endian u16, currently 1)
//! 6       8     payload length in bytes (little-endian u64)
//! 14      n     payload (tagged message body)
//! 14+n    4     CRC-32 (IEEE) of the payload (little-endian u32)
//! ```
//!
//! The payload is a one-byte message tag followed by the message body.
//!
//! An untraced frame seals as version 1, byte-identical to every build
//! since the protocol shipped. A frame carrying a request trace ID seals as
//! version 2 ([`WIRE_VERSION_TRACED`]), whose payload opens with an
//! *extension block* before the tagged message:
//!
//! ```text
//! offset  size  field
//! 0       1     extension count (u8)
//! —  per extension, repeated `count` times —
//! +0      1     extension type (u8)
//! +1      1     extension value length in bytes (u8)
//! +2      len   extension value
//! ```
//!
//! Unknown extension types are skipped on decode, so the block can grow
//! without another version bump. The only type assigned so far is
//! `TraceId` (1): an 8-byte little-endian u64 request trace ID, minted at
//! the client edge (or by the gateway when absent) and threaded through
//! the serving pipeline into per-stage [`SpanRecorder`] breakdowns.
//!
//! [`SpanRecorder`]: dssddi_obs::SpanRecorder
//!
//! ## Tag registry
//!
//! The complete message-tag space, by direction. Tags are assigned once
//! and never reused: a value dropped from either direction's registry
//! moves to `analysis/baseline.toml`'s `[retired.wire]` list, which
//! `dssddi-analyze`'s wire pass enforces against the constants in this
//! module.
//!
//! | Tag | Request             | Response            |
//! |----:|---------------------|---------------------|
//! |   0 | —                   | `Error`             |
//! |   1 | `Suggest`           | `Suggest`           |
//! |   2 | `SuggestBatch`      | `SuggestBatch`      |
//! |   3 | `CheckPrescription` | `CheckPrescription` |
//! |   4 | `ListModels`        | `ListModels`        |
//! |   5 | `Stats`             | `Stats`             |
//! |   6 | `Shutdown`          | —                   |
//! |   7 | *retired*           | `ShuttingDown`      |
//! |   8 | `ReloadModel`       | `ModelReloaded`     |
//! |   9 | `ReloadKb`          | `KbReloaded`        |
//! |  10 | `KbInfo`            | `KbInfo`            |
//! |  11 | `Ping`              | `Pong`              |
//! |  12 | `PeerStatus`        | `PeerStatus`        |
//! |  13 | `PeerSync`          | `PeerSync`          |
//! |  14 | `TraceDump`         | `TraceDump`         |
//!
//! `ReloadModel` (8) and `ReloadKb` (9) ship the complete `DSSD`/`DSKB`
//! container in the frame, so the artifact the gateway validates is
//! exactly the artifact the operator built; `KbInfo` (10) summarises a
//! shard's knowledge base. `Ping` (11) is answered by `Pong` (11) without
//! passing admission control, so liveness probes answer even while the
//! data plane sheds load with `Overloaded` (8) errors. Replicas exchange
//! per-key version vectors with `PeerStatus` (12) and pull the container
//! of a shard that lags with `PeerSync` (13); both are idempotent reads.
//! `TraceDump` (14) returns the gateway's slowest-request exemplars.
//!
//! ## Encoding rules
//!
//! Message bodies are written through one private codec trait: each type's
//! layout is stated once, as an ordered field list, and both directions are
//! derived from it.
//!
//! - Integers are little-endian; a `usize` travels as a u64.
//! - `f32`/`f64` travel as their IEEE-754 bit patterns, so scores and
//!   suggestion-satisfaction values (NaN, −0.0 and ±∞ included) arrive
//!   bit-identical to an in-process call.
//! - A `bool` is one byte, 0 or 1.
//! - A string or `Vec` is a u64 length followed by its bytes or elements;
//!   a set travels like a `Vec` of its elements in ascending order.
//! - An `Option` is a `bool` presence flag followed by the value if present.
//! - A fixed-size array is its elements in order, without a length.
//! - A tuple or struct is its fields in order.
//! - Enums, error codes and message tags are one byte.
//! - Model and KB containers are a u64 length followed by the raw bytes.
//!
//! Decoding is fully defensive: truncated frames, flipped bits (caught by
//! the CRC), foreign magic bytes, future protocol versions, unknown message
//! tags and oversized declared lengths all produce typed [`WireError`]s —
//! never a panic, and never an allocation sized from an unvalidated length.
//!
//! ## Compatibility
//!
//! Version 1 grew after it shipped: new tags, and fields appended to
//! existing bodies (alert policies, severity grades, KB versions, stats
//! counters, the replica section). The tag space grew backwards-compatibly,
//! but the grown bodies did not: a peer built before a body grew sees
//! `Malformed` decode errors, not a version mismatch. Both ends of a
//! deployment must ship the same build, which is how this workspace's
//! server, client and binaries are always built. A change that needs
//! mixed-version interop should bump the version instead of growing bodies
//! again.

use std::collections::BTreeSet;
use std::fmt;
use std::io::{Read, Write};

use dssddi_core::{
    CheckPrescriptionRequest, DrugId, Explanation, InteractionReport, PairInteraction, PatientId,
    ScoredDrug, SignedEdge, SuggestFilters, SuggestRequest, SuggestResponse,
};
use dssddi_graph::{Community, Interaction};
use dssddi_kb::{AlertPolicy, KbInfo, Severity};
use dssddi_obs::trace::TraceExemplar;
use dssddi_tensor::serde::{
    open_frame_versions, parse_frame_header_versions, seal_frame, ByteReader, ByteWriter,
    SerdeError, FRAME_HEADER_LEN,
};

use crate::router::{
    GatewayStats, KeyVersions, ModelInfo, ModelKey, ModelStats, ReplicaStats, StatsReport,
};
use crate::ServingError;

/// Magic bytes opening every wire frame ("DSsddi WiRe").
pub const WIRE_MAGIC: [u8; 4] = *b"DSWR";

/// Current wire protocol version. Untraced frames — the default — always
/// seal under this version, bit-identical to every build since the
/// protocol shipped.
pub const WIRE_VERSION: u16 = 1;

/// Wire protocol version of *traced* frames: the payload opens with the
/// extension block (carrying the request trace ID) before the tagged
/// message. Both versions are accepted on decode; old peers that only
/// speak version 1 interoperate with any peer that leaves tracing off.
pub const WIRE_VERSION_TRACED: u16 = 2;

/// Every protocol version this build decodes.
const WIRE_SUPPORTED_VERSIONS: [u16; 2] = [WIRE_VERSION, WIRE_VERSION_TRACED];

/// Frame-extension type carrying the 8-byte little-endian u64 request
/// trace ID in a version-2 frame's extension block.
pub const EXT_TRACE_ID: u8 = 1;

/// Upper bound on a frame's declared payload length. A 64-request batch
/// with wide feature vectors is a few hundred kilobytes; 16 MiB leaves two
/// orders of magnitude of headroom while keeping a malicious length prefix
/// from turning into a giant allocation.
pub const MAX_FRAME_PAYLOAD: usize = 16 << 20;

/// Errors produced while reading, writing or decoding wire frames.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The frame or its payload failed validation (bad magic, version
    /// mismatch, truncation, CRC mismatch, unknown tag, corrupt field).
    Decode(SerdeError),
    /// The frame header declared a payload larger than [`MAX_FRAME_PAYLOAD`].
    Oversized {
        /// Length the header declared.
        declared: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// The peer closed the connection cleanly between frames.
    ConnectionClosed,
    /// A read timeout fired before any byte of a frame arrived — the
    /// connection is idle, not broken. Only produced when the caller has
    /// set a read timeout on the stream; servers use it to poll their
    /// shutdown flag between requests.
    IdleTimeout,
    /// A read timeout fired *mid-frame*, or while a client was waiting for
    /// the response to a request it had already sent: the peer stalled.
    /// Only produced when the caller has set a read timeout on the stream
    /// (see `Client::connect_timeout` / `Client::set_read_timeout`).
    Timeout,
    /// A socket read or write failed mid-frame.
    Io {
        /// Description including the underlying error.
        what: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Decode(e) => write!(f, "frame decode error: {e}"),
            WireError::Oversized { declared, max } => write!(
                f,
                "frame declares a {declared}-byte payload, above the {max}-byte limit"
            ),
            WireError::ConnectionClosed => write!(f, "connection closed by peer"),
            WireError::IdleTimeout => write!(f, "read timed out with no frame in flight"),
            WireError::Timeout => write!(f, "peer did not complete a frame within the timeout"),
            WireError::Io { what } => write!(f, "frame i/o error: {what}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SerdeError> for WireError {
    fn from(e: SerdeError) -> Self {
        WireError::Decode(e)
    }
}

/// Machine-readable classification of a server-side failure, carried in
/// [`Response::Error`] frames so remote callers can branch on the failure
/// class without parsing messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The request frame or payload could not be decoded.
    Malformed,
    /// The request named a model the gateway does not serve.
    UnknownModel,
    /// A drug reference fell outside the routed model's formulary.
    UnknownDrug,
    /// The routed service rejected the request's content.
    InvalidInput,
    /// The request needs a fitted model and the routed shard has none.
    NotFitted,
    /// A persisted artifact (`DSSD` model or `DSKB` knowledge base) was
    /// damaged, version-mismatched or described the wrong formulary — the
    /// reload failure class.
    Persistence,
    /// Admission control shed the request: the gateway (or the routed
    /// shard) is at its configured rate limit, quota or queue bound. The
    /// request was never executed — retrying after a backoff is safe and is
    /// what `Client`'s opt-in retry policy does.
    Overloaded,
    /// Any other server-side failure.
    Internal,
}

impl ErrorCode {
    /// Every error code, in tag order — the stats breakdown iterates this.
    /// (`Persistence` and `Overloaded` were added after `Internal` and keep
    /// earlier tag values stable, so they sort last.)
    pub const ALL: [ErrorCode; 8] = [
        ErrorCode::Malformed,
        ErrorCode::UnknownModel,
        ErrorCode::UnknownDrug,
        ErrorCode::InvalidInput,
        ErrorCode::NotFitted,
        ErrorCode::Internal,
        ErrorCode::Persistence,
        ErrorCode::Overloaded,
    ];

    /// Position of this code in [`ErrorCode::ALL`] (dense counter index).
    pub(crate) fn index(self) -> usize {
        self.to_u8() as usize - 1
    }

    /// The error class a [`ServingError`] reports as — what `Error` frames
    /// carry and what the per-model error breakdown counts.
    pub fn classify(error: &ServingError) -> ErrorCode {
        use dssddi_core::CoreError;
        match error {
            ServingError::UnknownModel { .. } => ErrorCode::UnknownModel,
            ServingError::Wire(_) | ServingError::Protocol { .. } => ErrorCode::Malformed,
            ServingError::Kb(_) | ServingError::FormularyMismatch { .. } => ErrorCode::Persistence,
            ServingError::Overloaded { .. } => ErrorCode::Overloaded,
            ServingError::Core(CoreError::UnknownDrug { .. }) => ErrorCode::UnknownDrug,
            ServingError::Core(CoreError::NotFitted { .. }) => ErrorCode::NotFitted,
            ServingError::Core(CoreError::Persistence { .. }) => ErrorCode::Persistence,
            ServingError::Core(CoreError::InvalidInput { .. })
            | ServingError::Core(CoreError::InvalidConfig { .. }) => ErrorCode::InvalidInput,
            _ => ErrorCode::Internal,
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::UnknownModel => 2,
            ErrorCode::UnknownDrug => 3,
            ErrorCode::InvalidInput => 4,
            ErrorCode::NotFitted => 5,
            ErrorCode::Internal => 6,
            ErrorCode::Persistence => 7,
            ErrorCode::Overloaded => 8,
        }
    }

    fn from_u8(tag: u8) -> Result<Self, SerdeError> {
        Ok(match tag {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnknownModel,
            3 => ErrorCode::UnknownDrug,
            4 => ErrorCode::InvalidInput,
            5 => ErrorCode::NotFitted,
            6 => ErrorCode::Internal,
            7 => ErrorCode::Persistence,
            8 => ErrorCode::Overloaded,
            other => {
                return Err(SerdeError::Corrupt {
                    what: format!("unknown error code {other}"),
                })
            }
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnknownModel => "unknown-model",
            ErrorCode::UnknownDrug => "unknown-drug",
            ErrorCode::InvalidInput => "invalid-input",
            ErrorCode::NotFitted => "not-fitted",
            ErrorCode::Persistence => "persistence",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Internal => "internal",
        };
        f.write_str(name)
    }
}

/// Which replicated artifact a [`Request::PeerSync`] pull targets: the
/// trained model (`DSSD` container) or the knowledge base (`DSKB`
/// container) behind a shard key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncArtifact {
    /// The shard's trained model, shipped as a complete `DSSD` container.
    Model,
    /// The shard's knowledge base, shipped as a complete `DSKB` container.
    Kb,
}

impl fmt::Display for SyncArtifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SyncArtifact::Model => "model",
            SyncArtifact::Kb => "kb",
        })
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Request {
    /// Top-k medication suggestion for one patient on one model shard.
    Suggest {
        /// The shard to route to.
        model: ModelKey,
        /// The typed suggestion request.
        request: SuggestRequest,
    },
    /// A batch of suggestion requests served by one model shard in a single
    /// sharded prediction pass.
    SuggestBatch {
        /// The shard to route to.
        model: ModelKey,
        /// The typed suggestion requests.
        requests: Vec<SuggestRequest>,
    },
    /// Critique of an existing prescription against one shard's DDI graph.
    CheckPrescription {
        /// The shard to route to.
        model: ModelKey,
        /// The typed prescription-check request.
        request: CheckPrescriptionRequest,
    },
    /// Hot-swap the model behind a live key with a re-trained `DSSD`
    /// container shipped in the frame. The replacement must serve the same
    /// formulary; in-flight requests finish on the old model.
    ReloadModel {
        /// The shard to swap.
        model: ModelKey,
        /// A complete `DSSD` container (as produced by
        /// `DecisionService::save`).
        container: Vec<u8>,
    },
    /// Hot-swap the knowledge base paired with a live key with a `DSKB`
    /// container shipped in the frame.
    ReloadKb {
        /// The shard whose KB to swap.
        model: ModelKey,
        /// A complete `DSKB` container (as produced by
        /// `KnowledgeBase::save`).
        container: Vec<u8>,
    },
    /// Summary of the knowledge base paired with one shard.
    KbInfo {
        /// The shard to describe.
        model: ModelKey,
    },
    /// Enumerate the models the gateway serves.
    ListModels,
    /// Per-model serving statistics.
    Stats,
    /// Control-plane liveness check: answered with [`Response::Pong`]
    /// without touching any shard and without passing admission control.
    Ping,
    /// Replica-to-replica version-vector exchange: the requester reports
    /// the per-key `(model_version, kb_version)` pairs it holds and the
    /// responder answers with its own, so one round trip tells both sides
    /// who is ahead (gossip-style anti-entropy probe).
    PeerStatus {
        /// The requester's per-key artifact versions.
        versions: Vec<KeyVersions>,
    },
    /// Replica-to-replica artifact pull: ask a peer that is ahead for one
    /// shard's complete container, answered with
    /// [`Response::PeerSync`] carrying the bytes and the version they
    /// certify. Idempotent — pulling twice converges to the same state.
    PeerSync {
        /// The shard to pull.
        model: ModelKey,
        /// Which artifact (model or knowledge base) to ship.
        artifact: SyncArtifact,
    },
    /// Dump the gateway's ring of slowest-request trace exemplars
    /// (control-plane: answered without passing admission control, like
    /// `Stats`).
    TraceDump {
        /// Maximum exemplars to return (`0` means all retained).
        limit: u64,
    },
    /// Ask the server to stop accepting connections and exit its run loop.
    Shutdown,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Response {
    /// Answer to [`Request::Suggest`].
    Suggest(SuggestResponse),
    /// Answer to [`Request::SuggestBatch`], in request order.
    SuggestBatch(Vec<SuggestResponse>),
    /// Answer to [`Request::CheckPrescription`].
    CheckPrescription(InteractionReport),
    /// Answer to [`Request::ReloadModel`]: the swapped shard's new listing.
    ModelReloaded(ModelInfo),
    /// Answer to [`Request::ReloadKb`]: the new knowledge base's summary.
    KbReloaded(KbInfo),
    /// Answer to [`Request::KbInfo`].
    KbInfo(KbInfo),
    /// Answer to [`Request::ListModels`].
    ListModels(Vec<ModelInfo>),
    /// Answer to [`Request::Stats`].
    Stats(StatsReport),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::PeerStatus`]: the responder's own per-key
    /// version vector.
    PeerStatus {
        /// The responder's per-key artifact versions.
        versions: Vec<KeyVersions>,
    },
    /// Answer to [`Request::PeerSync`]: one shard's complete artifact
    /// container plus the version the bytes certify.
    PeerSync {
        /// The shard the container belongs to.
        model: ModelKey,
        /// Which artifact the container holds.
        artifact: SyncArtifact,
        /// The version the shipped container certifies; the puller adopts
        /// it for the key after applying the container.
        version: u64,
        /// The complete `DSSD` or `DSKB` container bytes.
        container: Vec<u8>,
    },
    /// Answer to [`Request::TraceDump`]: the slowest-request exemplars
    /// retained by the gateway, slowest first.
    TraceDump(Vec<TraceExemplar>),
    /// Acknowledgement of [`Request::Shutdown`].
    ShuttingDown,
    /// A typed server-side failure.
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Body codec. Every message body is written through `Wire`, so a type's
// layout is stated once and encode and decode cannot drift apart. Every
// `take` reads through the bounds-checked `ByteReader`, so a truncated or
// corrupt body surfaces as a typed `SerdeError`.
// ---------------------------------------------------------------------------

/// A type with one wire layout, written by `put` and read back by `take`.
///
/// Every value encodes to at least one byte, which is what lets
/// [`take_len`] reject a collection count larger than the bytes left.
/// `u8` has no impl: single bytes on the wire are tags and enum
/// discriminants, written explicitly.
trait Wire: Sized {
    fn put(&self, w: &mut ByteWriter);
    fn take(r: &mut ByteReader<'_>) -> Result<Self, SerdeError>;
}

macro_rules! wire_primitive {
    ($($ty:ty => $put:ident, $take:ident;)*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut ByteWriter) {
                w.$put(*self);
            }
            fn take(r: &mut ByteReader<'_>) -> Result<Self, SerdeError> {
                r.$take(std::any::type_name::<Self>())
            }
        }
    )*};
}

wire_primitive! {
    usize => put_usize, take_usize;
    u64 => put_u64, take_u64;
    bool => put_bool, take_bool;
    f32 => put_f32, take_f32;
    f64 => put_f64, take_f64;
}

/// Implements [`Wire`] for a struct laid out as the listed fields, in
/// order. Decoding builds the struct literal, so a field added to the type
/// but not to its list is a compile error rather than a silent gap.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut ByteWriter) {
                $(self.$field.put(w);)*
            }
            fn take(r: &mut ByteReader<'_>) -> Result<Self, SerdeError> {
                Ok($ty { $($field: Wire::take(r)?,)* })
            }
        }
    )*};
}

wire_struct! {
    ScoredDrug { id, name, score }
    SignedEdge { u, v, interaction }
    Community { nodes, edges, trussness, diameter }
    Explanation {
        suggested,
        community,
        edges,
        internal_synergy,
        internal_antagonism,
        external_antagonism,
        suggestion_satisfaction,
    }
    SuggestResponse { patient, drugs, explanation, suggestion_satisfaction }
    PairInteraction { a, a_name, b, b_name, interaction, severity, management }
    InteractionReport {
        patient,
        drugs,
        antagonistic,
        synergistic,
        explanation,
        suggestion_satisfaction,
        kb_version,
    }
    ModelInfo { key, fitted, n_drugs, n_features, registry_digest, backbone, kb_version }
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
    TraceExemplar { trace_id, model, op, total_micros, stage_micros }
    GatewayStats { connections_accepted, connections_active, connections_shed, stalled_reaped }
    KeyVersions { key, model_version, kb_version }
    ReplicaStats { peers, syncs, bytes_shipped, max_lag, versions }
    KbInfo { version, n_facts, facts_by_severity, registry_digest, n_drugs }
    AlertPolicy { min_severity, contraindicated_always_fires }
    SuggestFilters { exclude, avoid_antagonists_of, exclude_contraindicated_with }
    StatsReport { models, gateway, replica }
}

impl Wire for String {
    fn put(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, SerdeError> {
        r.take_str(std::any::type_name::<Self>())
    }
}

/// Reads a collection length and rejects one larger than the bytes left:
/// every element takes at least one byte, so such a count cannot be real.
fn take_len(r: &mut ByteReader<'_>, what: &'static str) -> Result<usize, SerdeError> {
    let len = r.take_usize(what)?;
    if len > r.remaining() {
        return Err(SerdeError::Truncated { what });
    }
    Ok(len)
}

fn put_slice<T: Wire>(w: &mut ByteWriter, items: &[T]) {
    w.put_usize(items.len());
    for item in items {
        item.put(w);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut ByteWriter) {
        put_slice(w, self);
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, SerdeError> {
        let len = take_len(r, std::any::type_name::<Self>())?;
        // Reserve no more memory than the bytes left in the payload; a
        // genuine list of wide elements grows past that as it decodes.
        let fits = r.remaining() / std::mem::size_of::<T>().max(1);
        let mut items = Vec::with_capacity(len.min(fits));
        for _ in 0..len {
            items.push(T::take(r)?);
        }
        Ok(items)
    }
}

impl Wire for BTreeSet<usize> {
    fn put(&self, w: &mut ByteWriter) {
        w.put_usize(self.len());
        for item in self {
            item.put(w);
        }
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, SerdeError> {
        let len = take_len(r, std::any::type_name::<Self>())?;
        (0..len).map(|_| usize::take(r)).collect()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut ByteWriter) {
        w.put_bool(self.is_some());
        if let Some(value) = self {
            value.put(w);
        }
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, SerdeError> {
        if r.take_bool(std::any::type_name::<Self>())? {
            T::take(r).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    fn put(&self, w: &mut ByteWriter) {
        for item in self {
            item.put(w);
        }
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, SerdeError> {
        let mut items = [T::default(); N];
        for item in &mut items {
            *item = T::take(r)?;
        }
        Ok(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut ByteWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, SerdeError> {
        Ok((A::take(r)?, B::take(r)?))
    }
}

impl Wire for DrugId {
    fn put(&self, w: &mut ByteWriter) {
        self.index().put(w);
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, SerdeError> {
        usize::take(r).map(DrugId::new)
    }
}

impl Wire for PatientId {
    fn put(&self, w: &mut ByteWriter) {
        self.index().put(w);
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, SerdeError> {
        usize::take(r).map(PatientId::new)
    }
}

impl Wire for ModelKey {
    fn put(&self, w: &mut ByteWriter) {
        w.put_str(self.as_str());
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, SerdeError> {
        let raw = String::take(r)?;
        ModelKey::new(&raw).map_err(|e| SerdeError::Corrupt {
            what: format!("invalid model key on the wire: {e}"),
        })
    }
}

impl Wire for Interaction {
    fn put(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            Interaction::None => 0,
            Interaction::Synergistic => 1,
            Interaction::Antagonistic => 2,
        });
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, SerdeError> {
        Ok(match r.take_u8("interaction")? {
            0 => Interaction::None,
            1 => Interaction::Synergistic,
            2 => Interaction::Antagonistic,
            other => {
                return Err(SerdeError::Corrupt {
                    what: format!("unknown interaction sign {other}"),
                })
            }
        })
    }
}

impl Wire for Severity {
    fn put(&self, w: &mut ByteWriter) {
        w.put_u8(self.to_u8());
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, SerdeError> {
        let tag = r.take_u8("severity")?;
        Severity::from_u8(tag).ok_or_else(|| SerdeError::Corrupt {
            what: format!("unknown severity byte {tag}"),
        })
    }
}

impl Wire for SyncArtifact {
    fn put(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            SyncArtifact::Model => 0,
            SyncArtifact::Kb => 1,
        });
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, SerdeError> {
        Ok(match r.take_u8("sync artifact")? {
            0 => SyncArtifact::Model,
            1 => SyncArtifact::Kb,
            other => {
                return Err(SerdeError::Corrupt {
                    what: format!("unknown sync artifact {other}"),
                })
            }
        })
    }
}

impl Wire for ErrorCode {
    fn put(&self, w: &mut ByteWriter) {
        w.put_u8(self.to_u8());
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, SerdeError> {
        ErrorCode::from_u8(r.take_u8("error code")?)
    }
}

impl Wire for SuggestRequest {
    fn put(&self, w: &mut ByteWriter) {
        self.patient.put(w);
        self.features.put(w);
        self.k.put(w);
        self.filters.put(w);
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, SerdeError> {
        let patient = Wire::take(r)?;
        let features = Wire::take(r)?;
        let k = Wire::take(r)?;
        Ok(SuggestRequest::new(patient, features, k).with_filters(Wire::take(r)?))
    }
}

impl Wire for CheckPrescriptionRequest {
    fn put(&self, w: &mut ByteWriter) {
        self.patient.put(w);
        self.drugs.put(w);
        self.policy.put(w);
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, SerdeError> {
        let patient: Option<PatientId> = Wire::take(r)?;
        let request = CheckPrescriptionRequest::new(Wire::take(r)?).with_policy(Wire::take(r)?);
        Ok(match patient {
            Some(p) => request.for_patient(p),
            None => request,
        })
    }
}

// ---------------------------------------------------------------------------
// Message codecs.
// ---------------------------------------------------------------------------

// Message tags, by direction; the module docs list the full registry.
const TAG_SUGGEST: u8 = 1;
const TAG_SUGGEST_BATCH: u8 = 2;
const TAG_CHECK_PRESCRIPTION: u8 = 3;
const TAG_LIST_MODELS: u8 = 4;
const TAG_STATS: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;
const TAG_SHUTTING_DOWN: u8 = 7;
const TAG_RELOAD_MODEL: u8 = 8;
const TAG_RELOAD_KB: u8 = 9;
const TAG_KB_INFO: u8 = 10;
const TAG_MODEL_RELOADED: u8 = 8;
const TAG_KB_RELOADED: u8 = 9;
const TAG_KB_INFO_RESPONSE: u8 = 10;
const TAG_PING: u8 = 11;
const TAG_PONG: u8 = 11;
const TAG_PEER_STATUS: u8 = 12;
const TAG_PEER_SYNC: u8 = 13;
const TAG_TRACE_DUMP: u8 = 14;
const TAG_ERROR: u8 = 0;

/// A borrowed view of a [`Request`], so callers holding the pieces (a key,
/// a slice of requests) can encode a frame without cloning them into an
/// owned message first — the client's hot path.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub enum RequestRef<'a> {
    /// Borrowed [`Request::Suggest`].
    Suggest {
        /// The shard to route to.
        model: &'a ModelKey,
        /// The typed suggestion request.
        request: &'a SuggestRequest,
    },
    /// Borrowed [`Request::SuggestBatch`].
    SuggestBatch {
        /// The shard to route to.
        model: &'a ModelKey,
        /// The typed suggestion requests.
        requests: &'a [SuggestRequest],
    },
    /// Borrowed [`Request::CheckPrescription`].
    CheckPrescription {
        /// The shard to route to.
        model: &'a ModelKey,
        /// The typed prescription-check request.
        request: &'a CheckPrescriptionRequest,
    },
    /// Borrowed [`Request::ReloadModel`].
    ReloadModel {
        /// The shard to swap.
        model: &'a ModelKey,
        /// The `DSSD` container bytes.
        container: &'a [u8],
    },
    /// Borrowed [`Request::ReloadKb`].
    ReloadKb {
        /// The shard whose KB to swap.
        model: &'a ModelKey,
        /// The `DSKB` container bytes.
        container: &'a [u8],
    },
    /// Borrowed [`Request::KbInfo`].
    KbInfo {
        /// The shard to describe.
        model: &'a ModelKey,
    },
    /// Borrowed [`Request::ListModels`].
    ListModels,
    /// Borrowed [`Request::Stats`].
    Stats,
    /// Borrowed [`Request::Ping`].
    Ping,
    /// Borrowed [`Request::PeerStatus`].
    PeerStatus {
        /// The requester's per-key artifact versions.
        versions: &'a [KeyVersions],
    },
    /// Borrowed [`Request::PeerSync`].
    PeerSync {
        /// The shard to pull.
        model: &'a ModelKey,
        /// Which artifact to ship.
        artifact: SyncArtifact,
    },
    /// Borrowed [`Request::TraceDump`].
    TraceDump {
        /// Maximum exemplars to return (`0` means all retained).
        limit: u64,
    },
    /// Borrowed [`Request::Shutdown`].
    Shutdown,
}

impl RequestRef<'_> {
    /// Whether re-sending this request after a transport fault is safe:
    /// read-only requests never change gateway state, so a duplicate
    /// execution is harmless. Reloads swap live artifacts and `Shutdown`
    /// stops the gateway — a client must never retry those on its own,
    /// because the first send may have executed before the fault.
    pub fn is_idempotent(&self) -> bool {
        match self {
            RequestRef::Suggest { .. }
            | RequestRef::SuggestBatch { .. }
            | RequestRef::CheckPrescription { .. }
            | RequestRef::KbInfo { .. }
            | RequestRef::ListModels
            | RequestRef::Stats
            | RequestRef::Ping
            // Peer messages are reads: a status exchange reports versions
            // and a sync pull ships a container without mutating the
            // responder, so the anti-entropy loop may retry them freely.
            | RequestRef::PeerStatus { .. }
            | RequestRef::PeerSync { .. }
            // Dumping trace exemplars reads a ring without mutating it.
            | RequestRef::TraceDump { .. } => true,
            RequestRef::ReloadModel { .. } | RequestRef::ReloadKb { .. } | RequestRef::Shutdown => {
                false
            }
        }
    }
}

impl Request {
    /// The borrowed view of this request.
    pub fn as_request_ref(&self) -> RequestRef<'_> {
        match self {
            Request::Suggest { model, request } => RequestRef::Suggest { model, request },
            Request::SuggestBatch { model, requests } => {
                RequestRef::SuggestBatch { model, requests }
            }
            Request::CheckPrescription { model, request } => {
                RequestRef::CheckPrescription { model, request }
            }
            Request::ReloadModel { model, container } => {
                RequestRef::ReloadModel { model, container }
            }
            Request::ReloadKb { model, container } => RequestRef::ReloadKb { model, container },
            Request::KbInfo { model } => RequestRef::KbInfo { model },
            Request::ListModels => RequestRef::ListModels,
            Request::Stats => RequestRef::Stats,
            Request::Ping => RequestRef::Ping,
            Request::PeerStatus { versions } => RequestRef::PeerStatus { versions },
            Request::PeerSync { model, artifact } => RequestRef::PeerSync {
                model,
                artifact: *artifact,
            },
            Request::TraceDump { limit } => RequestRef::TraceDump { limit: *limit },
            Request::Shutdown => RequestRef::Shutdown,
        }
    }
}

/// Encodes a borrowed request view into a complete, sealed wire frame.
pub fn encode_request_ref(request: RequestRef<'_>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let w = &mut w;
    match request {
        RequestRef::Suggest { model, request } => {
            w.put_u8(TAG_SUGGEST);
            model.put(w);
            request.put(w);
        }
        RequestRef::SuggestBatch { model, requests } => {
            w.put_u8(TAG_SUGGEST_BATCH);
            model.put(w);
            put_slice(w, requests);
        }
        RequestRef::CheckPrescription { model, request } => {
            w.put_u8(TAG_CHECK_PRESCRIPTION);
            model.put(w);
            request.put(w);
        }
        RequestRef::ReloadModel { model, container } => {
            w.put_u8(TAG_RELOAD_MODEL);
            model.put(w);
            w.put_u8_slice(container);
        }
        RequestRef::ReloadKb { model, container } => {
            w.put_u8(TAG_RELOAD_KB);
            model.put(w);
            w.put_u8_slice(container);
        }
        RequestRef::KbInfo { model } => {
            w.put_u8(TAG_KB_INFO);
            model.put(w);
        }
        RequestRef::ListModels => w.put_u8(TAG_LIST_MODELS),
        RequestRef::Stats => w.put_u8(TAG_STATS),
        RequestRef::Ping => w.put_u8(TAG_PING),
        RequestRef::PeerStatus { versions } => {
            w.put_u8(TAG_PEER_STATUS);
            put_slice(w, versions);
        }
        RequestRef::PeerSync { model, artifact } => {
            w.put_u8(TAG_PEER_SYNC);
            model.put(w);
            artifact.put(w);
        }
        RequestRef::TraceDump { limit } => {
            w.put_u8(TAG_TRACE_DUMP);
            limit.put(w);
        }
        RequestRef::Shutdown => w.put_u8(TAG_SHUTDOWN),
    }
    seal_frame(WIRE_MAGIC, WIRE_VERSION, w.as_bytes())
}

/// [`encode_request_ref`] with an optional trace ID. `None` produces the
/// version-1 frame unchanged (bit-identical to [`encode_request_ref`], so
/// untraced clients interoperate with old peers); `Some` re-seals the same
/// payload as a version-2 frame whose extension block carries the ID.
pub fn encode_request_ref_traced(request: RequestRef<'_>, trace: Option<u64>) -> Vec<u8> {
    let frame = encode_request_ref(request);
    match trace {
        None => frame,
        Some(id) => reseal_traced(&frame, id),
    }
}

/// Encodes a request into a complete, sealed wire frame.
pub fn encode_request(request: &Request) -> Vec<u8> {
    encode_request_ref(request.as_request_ref())
}

/// Decodes a request from a validated frame payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, SerdeError> {
    let mut r = ByteReader::new(payload);
    let r = &mut r;
    let request = match r.take_u8("request.tag")? {
        TAG_SUGGEST => Request::Suggest {
            model: Wire::take(r)?,
            request: Wire::take(r)?,
        },
        TAG_SUGGEST_BATCH => Request::SuggestBatch {
            model: Wire::take(r)?,
            requests: Wire::take(r)?,
        },
        TAG_CHECK_PRESCRIPTION => Request::CheckPrescription {
            model: Wire::take(r)?,
            request: Wire::take(r)?,
        },
        TAG_RELOAD_MODEL => Request::ReloadModel {
            model: Wire::take(r)?,
            container: r.take_u8_vec("reload.container")?,
        },
        TAG_RELOAD_KB => Request::ReloadKb {
            model: Wire::take(r)?,
            container: r.take_u8_vec("reload.container")?,
        },
        TAG_KB_INFO => Request::KbInfo {
            model: Wire::take(r)?,
        },
        TAG_LIST_MODELS => Request::ListModels,
        TAG_STATS => Request::Stats,
        TAG_PING => Request::Ping,
        TAG_PEER_STATUS => Request::PeerStatus {
            versions: Wire::take(r)?,
        },
        TAG_PEER_SYNC => Request::PeerSync {
            model: Wire::take(r)?,
            artifact: Wire::take(r)?,
        },
        TAG_TRACE_DUMP => Request::TraceDump {
            limit: Wire::take(r)?,
        },
        TAG_SHUTDOWN => Request::Shutdown,
        other => {
            return Err(SerdeError::Corrupt {
                what: format!("unknown request tag {other}"),
            })
        }
    };
    body_end(r, "request")?;
    Ok(request)
}

/// Rejects bytes left over after a decoded message body.
fn body_end(r: &ByteReader<'_>, message: &str) -> Result<(), SerdeError> {
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(SerdeError::Corrupt {
            what: format!("{} trailing bytes after the {message} body", r.remaining()),
        })
    }
}

/// Encodes a response into a complete, sealed wire frame.
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let w = &mut w;
    match response {
        Response::Suggest(response) => {
            w.put_u8(TAG_SUGGEST);
            response.put(w);
        }
        Response::SuggestBatch(responses) => {
            w.put_u8(TAG_SUGGEST_BATCH);
            responses.put(w);
        }
        Response::CheckPrescription(report) => {
            w.put_u8(TAG_CHECK_PRESCRIPTION);
            report.put(w);
        }
        Response::ListModels(models) => {
            w.put_u8(TAG_LIST_MODELS);
            models.put(w);
        }
        Response::Stats(report) => {
            w.put_u8(TAG_STATS);
            report.put(w);
        }
        Response::ModelReloaded(info) => {
            w.put_u8(TAG_MODEL_RELOADED);
            info.put(w);
        }
        Response::KbReloaded(info) => {
            w.put_u8(TAG_KB_RELOADED);
            info.put(w);
        }
        Response::KbInfo(info) => {
            w.put_u8(TAG_KB_INFO_RESPONSE);
            info.put(w);
        }
        Response::Pong => w.put_u8(TAG_PONG),
        Response::PeerStatus { versions } => {
            w.put_u8(TAG_PEER_STATUS);
            versions.put(w);
        }
        Response::PeerSync {
            model,
            artifact,
            version,
            container,
        } => {
            w.put_u8(TAG_PEER_SYNC);
            model.put(w);
            artifact.put(w);
            version.put(w);
            w.put_u8_slice(container);
        }
        Response::TraceDump(exemplars) => {
            w.put_u8(TAG_TRACE_DUMP);
            exemplars.put(w);
        }
        Response::ShuttingDown => w.put_u8(TAG_SHUTTING_DOWN),
        Response::Error { code, message } => {
            w.put_u8(TAG_ERROR);
            code.put(w);
            message.put(w);
        }
    }
    seal_frame(WIRE_MAGIC, WIRE_VERSION, w.as_bytes())
}

/// [`encode_response`] with an optional trace ID, mirroring
/// [`encode_request_ref_traced`]: `None` is the version-1 frame unchanged,
/// `Some` re-seals as a version-2 traced frame.
pub fn encode_response_traced(response: &Response, trace: Option<u64>) -> Vec<u8> {
    let frame = encode_response(response);
    match trace {
        None => frame,
        Some(id) => reseal_traced(&frame, id),
    }
}

/// Re-seals a version-1 frame produced in this module as a version-2
/// traced frame: the same tagged payload, prefixed with an extension block
/// carrying `trace_id`.
fn reseal_traced(frame: &[u8], trace_id: u64) -> Vec<u8> {
    // The frame was just sealed by `seal_frame`, so the payload sits
    // between the fixed header and the 4-byte CRC trailer.
    let payload = frame
        .get(FRAME_HEADER_LEN..frame.len().saturating_sub(4))
        .unwrap_or(&[]);
    let mut traced = Vec::with_capacity(payload.len() + 11);
    traced.push(1); // extension count
    traced.push(EXT_TRACE_ID);
    traced.push(8); // extension value length
    traced.extend_from_slice(&trace_id.to_le_bytes());
    traced.extend_from_slice(payload);
    seal_frame(WIRE_MAGIC, WIRE_VERSION_TRACED, &traced)
}

/// Splits a version-2 payload into its trace ID (if the block carries one)
/// and the tagged message that follows. Unknown extension types — and
/// known types with unexpected lengths — are skipped, so the block can
/// grow without another version bump.
fn strip_extensions(payload: &[u8]) -> Result<(Option<u64>, &[u8]), SerdeError> {
    fn take_byte(payload: &[u8], pos: &mut usize) -> Result<u8, SerdeError> {
        let byte = payload.get(*pos).copied().ok_or(SerdeError::Truncated {
            what: "frame extension block",
        })?;
        *pos += 1;
        Ok(byte)
    }
    let mut pos = 0usize;
    let count = take_byte(payload, &mut pos)?;
    let mut trace = None;
    for _ in 0..count {
        let ext_type = take_byte(payload, &mut pos)?;
        let len = take_byte(payload, &mut pos)? as usize;
        let end = pos.checked_add(len).ok_or(SerdeError::Truncated {
            what: "frame extension value",
        })?;
        let value = payload.get(pos..end).ok_or(SerdeError::Truncated {
            what: "frame extension value",
        })?;
        pos = end;
        if ext_type == EXT_TRACE_ID && len == 8 {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(value);
            let id = u64::from_le_bytes(bytes);
            if id != 0 {
                trace = Some(id);
            }
        }
    }
    let rest = payload.get(pos..).ok_or(SerdeError::Truncated {
        what: "frame extension block",
    })?;
    Ok((trace, rest))
}

/// Decodes a response from a validated frame payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, SerdeError> {
    let mut r = ByteReader::new(payload);
    let r = &mut r;
    let response = match r.take_u8("response.tag")? {
        TAG_SUGGEST => Response::Suggest(Wire::take(r)?),
        TAG_SUGGEST_BATCH => Response::SuggestBatch(Wire::take(r)?),
        TAG_CHECK_PRESCRIPTION => Response::CheckPrescription(Wire::take(r)?),
        TAG_LIST_MODELS => Response::ListModels(Wire::take(r)?),
        TAG_STATS => Response::Stats(Wire::take(r)?),
        TAG_MODEL_RELOADED => Response::ModelReloaded(Wire::take(r)?),
        TAG_KB_RELOADED => Response::KbReloaded(Wire::take(r)?),
        TAG_KB_INFO_RESPONSE => Response::KbInfo(Wire::take(r)?),
        TAG_PONG => Response::Pong,
        TAG_PEER_STATUS => Response::PeerStatus {
            versions: Wire::take(r)?,
        },
        TAG_PEER_SYNC => Response::PeerSync {
            model: Wire::take(r)?,
            artifact: Wire::take(r)?,
            version: Wire::take(r)?,
            container: r.take_u8_vec("sync.container")?,
        },
        TAG_TRACE_DUMP => Response::TraceDump(Wire::take(r)?),
        TAG_SHUTTING_DOWN => Response::ShuttingDown,
        TAG_ERROR => Response::Error {
            code: Wire::take(r)?,
            message: Wire::take(r)?,
        },
        other => {
            return Err(SerdeError::Corrupt {
                what: format!("unknown response tag {other}"),
            })
        }
    };
    body_end(r, "response")?;
    Ok(response)
}

/// Validates a complete frame (as produced by [`encode_request`] /
/// [`encode_response`]) and returns its payload, discarding any trace ID.
/// This is the non-streaming entry point used by tests and benchmarks;
/// sockets go through [`read_frame`].
pub fn open_wire_frame(frame: &[u8]) -> Result<&[u8], WireError> {
    open_wire_frame_traced(frame).map(|(_, payload)| payload)
}

/// [`open_wire_frame`] keeping the trace ID a version-2 frame carries
/// (`None` for version-1 frames and traced frames without a trace ID).
pub fn open_wire_frame_traced(frame: &[u8]) -> Result<(Option<u64>, &[u8]), WireError> {
    let (_, declared) = parse_frame_header_versions(WIRE_MAGIC, &WIRE_SUPPORTED_VERSIONS, frame)?;
    if declared > MAX_FRAME_PAYLOAD {
        return Err(WireError::Oversized {
            declared,
            max: MAX_FRAME_PAYLOAD,
        });
    }
    let (version, payload) = open_frame_versions(WIRE_MAGIC, &WIRE_SUPPORTED_VERSIONS, frame)?;
    if version == WIRE_VERSION_TRACED {
        Ok(strip_extensions(payload)?)
    } else {
        Ok((None, payload))
    }
}

/// Writes a sealed frame to a stream.
pub fn write_frame(stream: &mut impl Write, frame: &[u8]) -> Result<(), WireError> {
    stream.write_all(frame).map_err(|e| WireError::Io {
        what: format!("writing frame: {e}"),
    })?;
    stream.flush().map_err(|e| WireError::Io {
        what: format!("flushing frame: {e}"),
    })
}

/// Reads one frame from a stream and returns its validated payload,
/// discarding any trace ID: [`read_frame_traced`] with no stall budget and
/// no per-frame deadline.
///
/// A clean end-of-stream *between* frames is [`WireError::ConnectionClosed`];
/// end-of-stream *inside* a frame is a truncation error. The declared
/// payload length is checked against [`MAX_FRAME_PAYLOAD`] before any
/// allocation. The first read-timeout expiry mid-frame is a typed
/// [`WireError::Timeout`].
pub fn read_frame(stream: &mut impl Read) -> Result<Vec<u8>, WireError> {
    read_frame_traced(stream, 1, None).map(|(_, payload)| payload)
}

/// Reads one frame from a stream and returns the trace ID a version-2
/// frame carries (`None` for version-1 frames) plus the validated payload.
/// This is the read path of both the server and the client.
///
/// A read timeout before the first frame byte is always
/// [`WireError::IdleTimeout`], so idle polling stays cheap. Mid-frame, up
/// to `max_stalls` *consecutive* read-timeout expiries are tolerated (the
/// counter resets whenever bytes arrive; `max_stalls` is clamped to at
/// least 1): a server whose short read timeout doubles as a shutdown poll
/// must not sever a peer mid-way through a multi-megabyte `ReloadModel`
/// upload because TCP stalled for one round of retransmission.
///
/// The stall budget alone cannot stop a slow-loris peer that trickles one
/// byte per poll interval, so `frame_deadline` adds a wall-clock limit per
/// frame: the clock starts when the first header byte arrives, and a frame
/// still incomplete when it passes fails with [`WireError::Timeout`] even
/// while bytes are still trickling in.
pub fn read_frame_traced(
    stream: &mut impl Read,
    max_stalls: u32,
    frame_deadline: Option<std::time::Duration>,
) -> Result<(Option<u64>, Vec<u8>), WireError> {
    let mut limits = FrameLimits {
        max_stalls: max_stalls.max(1),
        stalls: 0,
        frame_deadline,
        deadline: None,
    };
    let mut header = [0u8; FRAME_HEADER_LEN];
    limits.fill(stream, &mut header, 0, "frame header")?;
    let (_, declared) = parse_frame_header_versions(WIRE_MAGIC, &WIRE_SUPPORTED_VERSIONS, &header)?;
    if declared > MAX_FRAME_PAYLOAD {
        return Err(WireError::Oversized {
            declared,
            max: MAX_FRAME_PAYLOAD,
        });
    }
    // Reassemble the full frame so validation (length + CRC) is exactly the
    // container code path.
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + declared + 4);
    frame.extend_from_slice(&header);
    frame.resize(FRAME_HEADER_LEN + declared + 4, 0);
    limits.fill(stream, &mut frame, FRAME_HEADER_LEN, "frame payload")?;
    let (trace, payload) = open_wire_frame_traced(&frame)?;
    Ok((trace, payload.to_vec()))
}

/// Stall and deadline accounting for one [`read_frame_traced`] call.
struct FrameLimits {
    max_stalls: u32,
    stalls: u32,
    frame_deadline: Option<std::time::Duration>,
    /// Set when the frame's first byte arrives.
    deadline: Option<std::time::Instant>,
}

impl FrameLimits {
    fn check_deadline(&self) -> Result<(), WireError> {
        match self.deadline {
            Some(at) if std::time::Instant::now() >= at => Err(WireError::Timeout),
            _ => Ok(()),
        }
    }

    /// Reads into `buf[pos..]` until `buf` is full. `pos == 0` means no
    /// byte of the frame has arrived yet.
    fn fill(
        &mut self,
        stream: &mut impl Read,
        buf: &mut [u8],
        mut pos: usize,
        what: &'static str,
    ) -> Result<(), WireError> {
        let len = buf.len();
        while let Some(rest) = buf.get_mut(pos..).filter(|rest| !rest.is_empty()) {
            match stream.read(rest) {
                Ok(0) if pos == 0 => return Err(WireError::ConnectionClosed),
                Ok(0) => return Err(WireError::Decode(SerdeError::Truncated { what })),
                Ok(n) => {
                    if pos == 0 {
                        self.deadline = self.frame_deadline.map(|d| std::time::Instant::now() + d);
                    }
                    pos += n;
                    self.stalls = 0;
                    if pos < len {
                        self.check_deadline()?;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // A read timeout before the first frame byte means the
                // connection is merely idle (WouldBlock on Unix SO_RCVTIMEO,
                // TimedOut on Windows); a timeout mid-frame means the peer
                // stalled, tolerated up to the stall budget.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if pos == 0 {
                        return Err(WireError::IdleTimeout);
                    }
                    self.check_deadline()?;
                    self.stalls += 1;
                    if self.stalls >= self.max_stalls {
                        return Err(WireError::Timeout);
                    }
                }
                Err(e) => {
                    return Err(WireError::Io {
                        what: format!("reading {what}: {e}"),
                    })
                }
            }
        }
        Ok(())
    }
}

/// Maps a routing/service error to the typed error frame the server sends
/// back, so remote callers see the same failure classes in-process callers
/// match on.
pub fn error_response(error: &ServingError) -> Response {
    Response::Error {
        code: ErrorCode::classify(error),
        message: error.to_string(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request::Suggest {
            model: ModelKey::new("chronic").unwrap(),
            request: SuggestRequest::new(PatientId::new(3), vec![0.5, -1.25, f32::NAN], 4)
                .with_filters(SuggestFilters {
                    exclude: vec![DrugId::new(1)],
                    avoid_antagonists_of: vec![DrugId::new(59)],
                    exclude_contraindicated_with: vec![DrugId::new(61)],
                }),
        }
    }

    #[test]
    fn request_frames_round_trip() {
        let request = sample_request();
        let frame = encode_request(&request);
        let payload = open_wire_frame(&frame).unwrap();
        let back = decode_request(payload).unwrap();
        // NaN features break derived equality; compare the pieces.
        match (&request, &back) {
            (
                Request::Suggest {
                    model: m1,
                    request: r1,
                },
                Request::Suggest {
                    model: m2,
                    request: r2,
                },
            ) => {
                assert_eq!(m1, m2);
                assert_eq!(r1.patient, r2.patient);
                assert_eq!(r1.k, r2.k);
                assert_eq!(r1.filters, r2.filters);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&r1.features), bits(&r2.features));
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn control_messages_round_trip() {
        let versions = vec![
            KeyVersions {
                key: ModelKey::new("chronic").unwrap(),
                model_version: 3,
                kb_version: 7,
            },
            KeyVersions {
                key: ModelKey::new("critique").unwrap(),
                model_version: 1,
                kb_version: 1,
            },
        ];
        for request in [
            Request::ListModels,
            Request::Stats,
            Request::Ping,
            Request::PeerStatus {
                versions: versions.clone(),
            },
            Request::PeerSync {
                model: ModelKey::new("chronic").unwrap(),
                artifact: SyncArtifact::Kb,
            },
            Request::Shutdown,
        ] {
            let frame = encode_request(&request);
            let payload = open_wire_frame(&frame).unwrap();
            assert_eq!(decode_request(payload).unwrap(), request);
        }
        let replicated = StatsReport {
            replica: Some(ReplicaStats {
                peers: 2,
                syncs: 5,
                bytes_shipped: 40_960,
                max_lag: 1,
                versions: versions.clone(),
            }),
            ..StatsReport::default()
        };
        for response in [
            Response::ShuttingDown,
            Response::Error {
                code: ErrorCode::UnknownModel,
                message: "no such shard".into(),
            },
            Response::ListModels(vec![]),
            Response::Stats(StatsReport::default()),
            Response::Stats(replicated),
            Response::Pong,
            Response::PeerStatus { versions },
            Response::PeerSync {
                model: ModelKey::new("chronic").unwrap(),
                artifact: SyncArtifact::Model,
                version: 4,
                container: vec![0xDE, 0xAD, 0xBE, 0xEF],
            },
        ] {
            let frame = encode_response(&response);
            let payload = open_wire_frame(&frame).unwrap();
            assert_eq!(decode_response(payload).unwrap(), response);
        }
    }

    #[test]
    fn foreign_and_future_frames_are_typed_errors() {
        let frame = encode_request(&Request::ListModels);
        // Foreign magic: a DSSD model file is not a wire frame.
        let mut bad = frame.clone();
        bad[..4].copy_from_slice(b"DSSD");
        assert!(matches!(
            open_wire_frame(&bad),
            Err(WireError::Decode(SerdeError::BadMagic))
        ));
        // Future protocol version (one past the traced version, which is
        // the highest this build decodes).
        let mut bad = frame.clone();
        bad[4..6].copy_from_slice(&3u16.to_le_bytes());
        assert!(matches!(
            open_wire_frame(&bad),
            Err(WireError::Decode(SerdeError::UnsupportedVersion {
                found: 3,
                supported: WIRE_VERSION_TRACED,
            }))
        ));
        // Oversized declared payload is rejected before allocation.
        let mut bad = frame.clone();
        bad[6..14].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(matches!(
            open_wire_frame(&bad),
            Err(WireError::Oversized { .. })
        ));
        // Flipped payload bit: CRC catches it.
        let mut bad = frame.clone();
        let payload_byte = FRAME_HEADER_LEN;
        bad[payload_byte] ^= 0x10;
        assert!(matches!(
            open_wire_frame(&bad),
            Err(WireError::Decode(SerdeError::ChecksumMismatch { .. }))
        ));
        // Truncation anywhere is an error, never a panic.
        for cut in 0..frame.len() {
            assert!(open_wire_frame(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_tags_are_corrupt() {
        assert!(matches!(
            decode_request(&[0xEE]),
            Err(SerdeError::Corrupt { .. })
        ));
        assert!(matches!(
            decode_response(&[0xEE]),
            Err(SerdeError::Corrupt { .. })
        ));
        // Trailing bytes after a well-formed body are rejected.
        let mut w = ByteWriter::new();
        w.put_u8(TAG_LIST_MODELS);
        w.put_u8(0);
        assert!(matches!(
            decode_request(w.as_bytes()),
            Err(SerdeError::Corrupt { .. })
        ));
    }

    #[test]
    fn timeouts_are_idle_only_before_the_first_frame_byte() {
        // A reader that yields `prefix` and then times out, like a socket
        // with SO_RCVTIMEO on an idle (or stalled) peer.
        struct StallAfter {
            prefix: Vec<u8>,
            pos: usize,
        }
        impl Read for StallAfter {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.pos < self.prefix.len() {
                    let n = buf.len().min(self.prefix.len() - self.pos);
                    buf[..n].copy_from_slice(&self.prefix[self.pos..self.pos + n]);
                    self.pos += n;
                    Ok(n)
                } else {
                    Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
                }
            }
        }
        // No bytes at all: the connection is idle.
        let mut idle = StallAfter {
            prefix: vec![],
            pos: 0,
        };
        assert!(matches!(read_frame(&mut idle), Err(WireError::IdleTimeout)));
        // A stall mid-frame is a stalled peer, not idleness: typed Timeout.
        let frame = encode_request(&Request::ListModels);
        let mut stalled = StallAfter {
            prefix: frame[..7].to_vec(),
            pos: 0,
        };
        assert!(matches!(read_frame(&mut stalled), Err(WireError::Timeout)));
        // A stall inside the payload (header complete) is a Timeout too.
        let mut stalled = StallAfter {
            prefix: frame[..FRAME_HEADER_LEN + 1].to_vec(),
            pos: 0,
        };
        assert!(matches!(read_frame(&mut stalled), Err(WireError::Timeout)));
        // A stall budget tolerates consecutive expiries mid-frame but still
        // terminates; before the first byte it is always IdleTimeout.
        let mut stalled = StallAfter {
            prefix: frame[..7].to_vec(),
            pos: 0,
        };
        assert!(matches!(
            read_frame_traced(&mut stalled, 5, None),
            Err(WireError::Timeout)
        ));
        let mut idle = StallAfter {
            prefix: vec![],
            pos: 0,
        };
        assert!(matches!(
            read_frame_traced(&mut idle, 5, None),
            Err(WireError::IdleTimeout)
        ));
    }

    #[test]
    fn traced_frames_round_trip_and_untraced_frames_are_bit_identical() {
        let request = sample_request();
        // No trace: the traced encoder is byte-for-byte the v1 encoder.
        assert_eq!(
            encode_request_ref_traced(request.as_request_ref(), None),
            encode_request_ref(request.as_request_ref()),
        );
        let response = Response::Pong;
        assert_eq!(
            encode_response_traced(&response, None),
            encode_response(&response),
        );
        // With a trace: a v2 frame whose payload decodes identically and
        // whose trace ID survives both open paths.
        let traced = encode_request_ref_traced(request.as_request_ref(), Some(0xDEAD_BEEF));
        let (trace, payload) = open_wire_frame_traced(&traced).unwrap();
        assert_eq!(trace, Some(0xDEAD_BEEF));
        assert!(matches!(
            decode_request(payload).unwrap(),
            Request::Suggest { .. }
        ));
        // The trace-discarding entry point still opens the same frame.
        assert_eq!(open_wire_frame(&traced).unwrap(), payload);
        let mut stream = std::io::Cursor::new(traced.clone());
        let (trace, streamed) = read_frame_traced(&mut stream, 1, None).unwrap();
        assert_eq!(trace, Some(0xDEAD_BEEF));
        assert_eq!(streamed, payload);
        // Traced responses too.
        let exemplars = vec![TraceExemplar {
            trace_id: 7,
            model: "chronic".into(),
            op: "suggest".into(),
            total_micros: 1_234,
            stage_micros: [10, 2, 0, 1_200, 22],
        }];
        let frame = encode_response_traced(&Response::TraceDump(exemplars.clone()), Some(7));
        let (trace, payload) = open_wire_frame_traced(&frame).unwrap();
        assert_eq!(trace, Some(7));
        assert_eq!(
            decode_response(payload).unwrap(),
            Response::TraceDump(exemplars)
        );
    }

    #[test]
    fn unknown_extensions_are_skipped_and_torn_blocks_are_typed_errors() {
        let payload_v1 = {
            let frame = encode_request(&Request::ListModels);
            open_wire_frame(&frame).unwrap().to_vec()
        };
        // Three extensions: an unknown type, a trace ID, and an unknown
        // type with a weird length. Only the trace ID is interpreted.
        let mut ext = vec![3u8];
        ext.extend_from_slice(&[0xEE, 2, 0xAA, 0xBB]); // unknown type 0xEE
        ext.push(EXT_TRACE_ID);
        ext.push(8);
        ext.extend_from_slice(&99u64.to_le_bytes());
        ext.extend_from_slice(&[0x7F, 1, 0x00]); // unknown type 0x7F
        ext.extend_from_slice(&payload_v1);
        let frame = seal_frame(WIRE_MAGIC, WIRE_VERSION_TRACED, &ext);
        let (trace, payload) = open_wire_frame_traced(&frame).unwrap();
        assert_eq!(trace, Some(99));
        assert_eq!(decode_request(payload).unwrap(), Request::ListModels);
        // A v2 frame whose extension block runs past the payload is a
        // typed truncation, never a panic.
        let torn = seal_frame(WIRE_MAGIC, WIRE_VERSION_TRACED, &[5u8, EXT_TRACE_ID, 200]);
        assert!(matches!(
            open_wire_frame_traced(&torn),
            Err(WireError::Decode(SerdeError::Truncated { .. }))
        ));
        // A trace extension with the wrong length is skipped, not trusted.
        let mut short = vec![1u8, EXT_TRACE_ID, 4, 1, 2, 3, 4];
        short.extend_from_slice(&payload_v1);
        let frame = seal_frame(WIRE_MAGIC, WIRE_VERSION_TRACED, &short);
        let (trace, payload) = open_wire_frame_traced(&frame).unwrap();
        assert_eq!(trace, None);
        assert_eq!(decode_request(payload).unwrap(), Request::ListModels);
    }

    #[test]
    fn trace_dump_messages_round_trip() {
        let request = Request::TraceDump { limit: 16 };
        let frame = encode_request(&request);
        assert_eq!(
            decode_request(open_wire_frame(&frame).unwrap()).unwrap(),
            request
        );
        let response = Response::TraceDump(vec![
            TraceExemplar {
                trace_id: 1,
                model: "chronic".into(),
                op: "suggest".into(),
                total_micros: 900,
                stage_micros: [1, 2, 3, 890, 4],
            },
            TraceExemplar {
                trace_id: 2,
                model: String::new(),
                op: "stats".into(),
                total_micros: 10,
                stage_micros: [10, 0, 0, 0, 0],
            },
        ]);
        let frame = encode_response(&response);
        assert_eq!(
            decode_response(open_wire_frame(&frame).unwrap()).unwrap(),
            response
        );
    }

    #[test]
    fn borrowed_and_owned_request_encodings_are_identical() {
        let request = sample_request();
        let (model, suggest) = match &request {
            Request::Suggest { model, request } => (model, request),
            other => panic!("sample changed: {other:?}"),
        };
        assert_eq!(
            encode_request(&request),
            encode_request_ref(RequestRef::Suggest {
                model,
                request: suggest
            })
        );
        assert_eq!(
            encode_request(&Request::Stats),
            encode_request_ref(RequestRef::Stats)
        );
    }

    #[test]
    fn streamed_frames_round_trip_through_read_frame() {
        let request = sample_request();
        let frame = encode_request(&request);
        let mut stream = std::io::Cursor::new(frame.clone());
        let payload = read_frame(&mut stream).unwrap();
        assert_eq!(payload, open_wire_frame(&frame).unwrap());
        // A clean EOF between frames is ConnectionClosed ...
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(Vec::<u8>::new())),
            Err(WireError::ConnectionClosed)
        ));
        // ... but EOF inside a frame is a truncation error.
        let mut cut = std::io::Cursor::new(frame[..frame.len() - 2].to_vec());
        assert!(matches!(
            read_frame(&mut cut),
            Err(WireError::Decode(SerdeError::Truncated { .. }))
        ));
    }
}
