//! Typed trace events.
//!
//! Events are small `Copy` records — a timestamp, a kind, and two
//! kind-specific payload words — so pushing one into the ring is a plain
//! store with no allocation and no drop glue. The payload words `a` and
//! `b` are interpreted per [`EventKind`]; see each variant's docs.

/// What happened at an event site.
///
/// Kinds come in three shapes: *span begins* (`*Begin`, `RecvPost`,
/// `CollBegin`), *span ends* (`*Complete`, `CollEnd`), and *instants*
/// (everything else). The exporters pair begins with ends FIFO per
/// `(rank, pair key)` to derive latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A tagged send was handed to the fabric. `a` = match bits,
    /// `b` = payload bytes.
    SendBegin,
    /// The tagged send left the injection path. `a` = match bits.
    SendComplete,
    /// A receive was posted. `a` = match bits.
    RecvPost,
    /// A posted receive completed. `a` = match bits, `b` = bytes.
    RecvComplete,
    /// An RDMA put was issued. `a` = region key, `b` = bytes.
    PutBegin,
    /// The RDMA put's local completion. `a` = region key.
    PutComplete,
    /// An RDMA get was issued. `a` = region key, `b` = bytes.
    GetBegin,
    /// The RDMA get's local completion. `a` = region key.
    GetComplete,
    /// An arriving message matched a posted receive. `a` = match bits,
    /// `b` = posted-queue depth at match time.
    MatchHit,
    /// An arriving message found no posted receive and was queued
    /// unexpected. `a` = match bits, `b` = unexpected-queue depth after
    /// insertion.
    MatchUnexpected,
    /// A posted receive was satisfied from the unexpected queue.
    /// `a` = match bits, `b` = unexpected-queue depth before removal.
    MatchFromUnexpected,
    /// The payload pool leased a buffer. `a` = size class index,
    /// `b` = 1 on a freelist hit, 0 on an allocating miss.
    PoolLease,
    /// The payload pool recycled a returned buffer. `a` = size class
    /// index.
    PoolRecycle,
    /// The reliability engine retransmitted a packet. `a` = destination
    /// endpoint, `b` = retransmit attempt ordinal.
    Retransmit,
    /// A standalone cumulative ACK was sent. `a` = destination endpoint.
    AckSent,
    /// An incoming ACK was processed. `a` = source endpoint.
    AckProcessed,
    /// The receive window dropped a duplicate packet. `a` = source
    /// endpoint.
    DupDropped,
    /// A collective phase began on this rank. `a` = collective op id
    /// (see [`coll_op_name`]).
    CollBegin,
    /// The collective phase ended. `a` = collective op id.
    CollEnd,
    /// A nonblocking-collective schedule phase was issued. `a` =
    /// collective op id (see [`coll_op_name`]), `b` = phase index.
    SchedPhaseBegin,
    /// All vertices of the schedule phase retired. `a` = collective op id,
    /// `b` = phase index.
    SchedPhaseComplete,
    /// One-shot: which kernel tier the process selected at startup, so
    /// benchmark evidence is self-describing. `a` = tier id
    /// (0 scalar, 1 SSE2, 2 AVX2, 3 NEON), `b` = the CRC kernel on
    /// long inputs (0 tables, 1 four-lane carryless-multiply fold, 2 the
    /// fold behind its 512-bit first stage).
    KernelTier,
    /// The reliability layer declared a peer dead: its retry budget ran
    /// out (once per peer). `a` = peer endpoint, `b` = 1 (retry
    /// exhaustion).
    PeerDead,
    /// A communicator was revoked on this rank. `a` = context id,
    /// `b` = 1 when revoked locally by the application, 0 when learned
    /// from a remote revocation notice.
    CommRevoked,
}

impl EventKind {
    /// Stable display name, used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SendBegin | EventKind::SendComplete => "send",
            EventKind::RecvPost | EventKind::RecvComplete => "recv",
            EventKind::PutBegin | EventKind::PutComplete => "rdma_put",
            EventKind::GetBegin | EventKind::GetComplete => "rdma_get",
            EventKind::MatchHit => "match_hit",
            EventKind::MatchUnexpected => "match_unexpected",
            EventKind::MatchFromUnexpected => "match_from_unexpected",
            EventKind::PoolLease => "pool_lease",
            EventKind::PoolRecycle => "pool_recycle",
            EventKind::Retransmit => "retransmit",
            EventKind::AckSent => "ack_sent",
            EventKind::AckProcessed => "ack_processed",
            EventKind::DupDropped => "dup_dropped",
            EventKind::CollBegin | EventKind::CollEnd => "collective",
            EventKind::SchedPhaseBegin | EventKind::SchedPhaseComplete => "sched_phase",
            EventKind::KernelTier => "kernel_tier",
            EventKind::PeerDead => "peer_dead",
            EventKind::CommRevoked => "comm_revoked",
        }
    }

    /// Coarse category, used as the chrome-trace `cat` field and to group
    /// the summary.
    pub fn category(self) -> &'static str {
        match self {
            EventKind::SendBegin
            | EventKind::SendComplete
            | EventKind::RecvPost
            | EventKind::RecvComplete => "pt2pt",
            EventKind::PutBegin
            | EventKind::PutComplete
            | EventKind::GetBegin
            | EventKind::GetComplete => "rma",
            EventKind::MatchHit | EventKind::MatchUnexpected | EventKind::MatchFromUnexpected => {
                "match"
            }
            EventKind::PoolLease | EventKind::PoolRecycle => "pool",
            EventKind::Retransmit
            | EventKind::AckSent
            | EventKind::AckProcessed
            | EventKind::DupDropped => "relia",
            EventKind::CollBegin
            | EventKind::CollEnd
            | EventKind::SchedPhaseBegin
            | EventKind::SchedPhaseComplete => "coll",
            EventKind::KernelTier => "kernel",
            EventKind::PeerDead | EventKind::CommRevoked => "ft",
        }
    }

    /// For a span-end kind, the kind that opened the span; `None` for
    /// begins and instants.
    pub fn begin_of(self) -> Option<EventKind> {
        match self {
            EventKind::SendComplete => Some(EventKind::SendBegin),
            EventKind::RecvComplete => Some(EventKind::RecvPost),
            EventKind::PutComplete => Some(EventKind::PutBegin),
            EventKind::GetComplete => Some(EventKind::GetBegin),
            EventKind::CollEnd => Some(EventKind::CollBegin),
            EventKind::SchedPhaseComplete => Some(EventKind::SchedPhaseBegin),
            _ => None,
        }
    }

    /// True for kinds that open a span.
    pub fn is_begin(self) -> bool {
        matches!(
            self,
            EventKind::SendBegin
                | EventKind::RecvPost
                | EventKind::PutBegin
                | EventKind::GetBegin
                | EventKind::CollBegin
                | EventKind::SchedPhaseBegin
        )
    }
}

/// Collective-op ids carried in `a` by [`EventKind::CollBegin`] /
/// [`EventKind::CollEnd`].
pub mod coll_op {
    /// `MPI_BARRIER`.
    pub const BARRIER: u64 = 1;
    /// `MPI_BCAST`.
    pub const BCAST: u64 = 2;
    /// `MPI_REDUCE`.
    pub const REDUCE: u64 = 3;
    /// `MPI_ALLREDUCE`.
    pub const ALLREDUCE: u64 = 4;
    /// `MPI_GATHER` / `MPI_GATHERV`.
    pub const GATHER: u64 = 5;
    /// `MPI_SCATTER`.
    pub const SCATTER: u64 = 6;
    /// `MPI_ALLGATHER`.
    pub const ALLGATHER: u64 = 7;
    /// `MPI_ALLTOALL`.
    pub const ALLTOALL: u64 = 8;
    /// `MPI_SCAN` / `MPI_EXSCAN`.
    pub const SCAN: u64 = 9;
    /// `MPI_REDUCE_SCATTER_BLOCK`.
    pub const REDUCE_SCATTER: u64 = 10;
    /// `MPI_NEIGHBOR_ALLGATHER`.
    pub const NEIGHBOR_ALLGATHER: u64 = 11;
    /// `MPI_NEIGHBOR_ALLTOALL`.
    pub const NEIGHBOR_ALLTOALL: u64 = 12;
}

/// Human-readable name for a collective-op id.
pub fn coll_op_name(id: u64) -> &'static str {
    match id {
        coll_op::BARRIER => "barrier",
        coll_op::BCAST => "bcast",
        coll_op::REDUCE => "reduce",
        coll_op::ALLREDUCE => "allreduce",
        coll_op::GATHER => "gather",
        coll_op::SCATTER => "scatter",
        coll_op::ALLGATHER => "allgather",
        coll_op::ALLTOALL => "alltoall",
        coll_op::SCAN => "scan",
        coll_op::REDUCE_SCATTER => "reduce_scatter",
        coll_op::NEIGHBOR_ALLGATHER => "neighbor_allgather",
        coll_op::NEIGHBOR_ALLTOALL => "neighbor_alltoall",
        _ => "collective",
    }
}

/// One recorded event: a nanosecond timestamp on the fabric's shared
/// clock plus the kind and its two payload words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the fabric epoch (shared by every rank, so
    /// tracks align in the timeline view).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word; meaning depends on `kind`.
    pub a: u64,
    /// Second payload word; meaning depends on `kind`.
    pub b: u64,
}

impl TraceEvent {
    /// Build an event.
    pub fn new(ts_ns: u64, kind: EventKind, a: u64, b: u64) -> TraceEvent {
        TraceEvent { ts_ns, kind, a, b }
    }
}
