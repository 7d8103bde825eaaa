/**
 * @file
 * Wire protocol of the mission-service daemon (`rosed`).
 *
 * RoSÉ's evaluations are thousands of independent co-simulated
 * missions; the serve layer turns the in-process library into a
 * long-lived service multiple clients can submit missions to. This
 * header defines the request/response message set and its framing.
 *
 * Framing is the bridge packet format's, through the same codec
 * (util/frame.hh): a 1-byte type + 4-byte little-endian length
 * header, with the type byte and length bound validated *before* any
 * payload allocation, and a poisoned-buffer rule — once framing is
 * lost the stream can never be trusted again. The payload bound is
 * larger than the bridge's, but still hard: a corrupt length can
 * neither trigger an unbounded allocation nor an endless NeedMore
 * wait.
 *
 * Request/response pairing (protocol version 5): every request
 * produces exactly one *logical* response on the same connection, in
 * request order — but two response kinds span multiple frames or
 * arrive unsolicited:
 *
 *  - A FetchResult of a terminal job answers with a *result stream*:
 *    zero or more ResultChunk frames (ordered, contiguous segments of
 *    the trajectory's binary records) closed by exactly one ResultEnd
 *    frame that carries the scalar result, the terminal JobState, the
 *    FNV-1a of the record bytes (verified on reassembly) and the
 *    FNV-1a of the canonical trajectory CSV (the golden hash). No
 *    frame for a *different request on the same connection* is
 *    interleaved inside a stream. FetchResult carries a record-aligned
 *    *resume byte offset*: a client whose connection died mid-stream
 *    reconnects and asks for the payload from where its assembler
 *    stopped, instead of restarting. In a resumed stream, chunk seq
 *    restarts at 0 and ResultEnd's chunkCount counts only the chunks
 *    of *this* stream, while payloadBytes is always the total payload
 *    size — the client's prefix plus the resumed tail must add up to
 *    it.
 *
 *  - Progress frames are server-push events for *running* jobs owned
 *    by the connection. They may arrive between any two logical
 *    responses and between the frames of another job's result stream,
 *    but never inside the result stream *of their own job* (a job
 *    only streams after it stopped running).
 *
 * Responses have the high bit of the type byte set.
 */

#ifndef ROSE_SERVE_PROTO_HH
#define ROSE_SERVE_PROTO_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cosim.hh"
#include "core/experiment.hh"
#include "util/frame.hh"
#include "util/hash.hh"
#include "util/serde.hh"

namespace rose::serve {

/**
 * Semantically malformed payload inside a structurally valid frame
 * (truncated fields, out-of-range enum bytes, oversized strings).
 * The server answers such requests with an Error reply and keeps the
 * connection — the framing layer is still intact.
 */
class ProtocolError : public std::runtime_error
{
  public:
    explicit ProtocolError(const std::string &what)
        : std::runtime_error(what) {}
};

/**
 * Serve protocol version. Version 2 replaced the single-frame
 * ResultReply (wire type 0x84, now invalid) with chunked result
 * streams and added Progress push events plus a binary trajectory
 * encoding; FetchResult grew an encoding byte. Version 3 is the
 * crash-safety revision: SubmitMission carries a client-supplied
 * idempotency key (spec codec v2), FetchResult carries a resume byte
 * offset, and the one-shot release-at-stream-open moved to an
 * explicit hash-verified AckResult/AckReply exchange. Version 4
 * added a payload hash to ResultEnd — the FNV-1a of the stream's
 * payload bytes as received. Version 5 makes the binary records the
 * only trajectory payload: FetchResult and ResultEnd lose their
 * encoding byte, AckResult carries the record-payload hash alone, and
 * ResultEnd drops the `completed` flag (`status` is the one outcome
 * field).
 */
constexpr uint8_t kServeProtocolVersion = 5;

/**
 * Version byte leading the SubmitMission payload (and the journal's
 * copy of it). Version 2 added the idempotency-key string between
 * the version byte and the spec fields.
 */
constexpr uint8_t kSpecCodecVersion = 2;

/** Bound on a SubmitMission idempotency key (empty = none). */
constexpr size_t kMaxIdempotencyKeyBytes = 256;

/** Wire identifiers. Requests 0x01..0x7f, responses 0x81..0xff. */
enum class MsgType : uint8_t
{
    // --- requests (client -> server) ---
    SubmitMission = 0x01, ///< enqueue a MissionSpec
    QueryStatus = 0x02,   ///< job lifecycle state
    FetchResult = 0x03,   ///< stream a finished job's result
    CancelMission = 0x04, ///< dequeue a not-yet-running job
    ServerStats = 0x05,   ///< admission / load-shedding counters
    Shutdown = 0x06,      ///< stop the daemon (drain or immediate)
    AckResult = 0x07,     ///< hash-verified release of a fetched result

    // --- responses (server -> client) ---
    SubmitOk = 0x81,     ///< job accepted: id + queue position
    SubmitRejected = 0x82, ///< admission control shed the request
    StatusReply = 0x83,
    // 0x84 was the v1 single-frame ResultReply; retired with the
    // protocol-2 stream frames below and invalid on the wire now.
    CancelReply = 0x85,
    StatsReply = 0x86,
    ShutdownReply = 0x87,
    ResultChunk = 0x88, ///< ordered segment of a result stream
    ResultEnd = 0x89,   ///< closes a result stream: scalars + hash
    Progress = 0x8a,    ///< server-push progress of a running job
    AckReply = 0x8b,    ///< outcome of an AckResult release
    ErrorReply = 0x8f, ///< malformed-but-framed request, unknown job
};

/** True when the raw wire byte names a known MsgType. */
bool isValidMsgType(uint8_t raw);

/** True for the request (client -> server) half of the message set. */
bool isRequest(MsgType t);

/** Human-readable message-type name for logs. */
const char *msgTypeName(MsgType t);

/**
 * Upper bound on a serve frame's payload. Trajectories of arbitrary
 * size travel as ResultChunk frames (each at most
 * kMaxResultChunkBytes), so no single frame ever needs to grow with
 * mission length; this bound only has to cover specs, stats, and the
 * scalar stream frames with a wide margin.
 */
constexpr size_t kMaxServePayloadBytes = 8 * 1024 * 1024;

/**
 * Hard bound on one ResultChunk's segment. Decoders reject larger
 * chunks before allocating; servers slice streams at
 * ServerConfig::resultChunkBytes (default below) which is clamped to
 * this.
 */
constexpr size_t kMaxResultChunkBytes = 1024 * 1024;

/** Default server-side stream slice size. */
constexpr size_t kDefaultResultChunkBytes = 256 * 1024;

/**
 * Reassembly guard: a ResultStreamAssembler refuses to accumulate
 * more than this many payload bytes (a corrupt or hostile stream can
 * not drive an unbounded client allocation). 1 GiB is ~35 hours of
 * mission at the default sample cadence — far past maxSimSeconds'
 * admission ceiling.
 */
constexpr size_t kMaxAssembledTrajectoryBytes = 1ull << 30;

/** One serve-protocol message: type + raw payload bytes. */
struct Message
{
    MsgType type = MsgType::ServerStats;
    std::vector<uint8_t> payload;

    /** Header bytes on the wire: 1 type byte + 4 length bytes. */
    static constexpr size_t kHeaderBytes = kFrameHeaderBytes;

    size_t wireSize() const { return kHeaderBytes + payload.size(); }

    // Frame-codec traits (util/frame.hh).
    using Type = MsgType;
    static constexpr size_t kPayloadBound = kMaxServePayloadBytes;
    static constexpr const char *kKind = "serve message";
    static constexpr const char *kBoundName = "kMaxServePayloadBytes";
    static bool validType(uint8_t raw) { return isValidMsgType(raw); }
    static const char *typeName(MsgType t) { return msgTypeName(t); }
};

/**
 * Receive-side accumulator over the serve framing (util/frame.hh):
 * O(bytes) to drain N messages, poisoned for good once Malformed.
 */
using MessageBuffer = BasicFrameBuffer<Message>;

/** Serialize header + payload onto a byte stream. */
inline void
serializeMessage(const Message &m, std::vector<uint8_t> &out)
{
    serializeFrame(m, out);
}

// --------------------------------------------------------------------
// Typed payload codecs. Decoders read through PayloadReader and throw
// only ProtocolError on bad payloads, byte underrun included.

/** Payload reader of every serve decoder: underrun is ProtocolError. */
using PayloadReader = BasicStateReader<ProtocolError>;

/** Why admission control refused a submission. */
enum class RejectReason : uint8_t
{
    QueueFull = 1,    ///< bounded queue at capacity (load shed)
    ClientCap = 2,    ///< per-client in-flight cap reached
    ShuttingDown = 3, ///< daemon is draining
    BadRequest = 4,   ///< spec failed validation
};

const char *rejectReasonName(RejectReason r);

/** Job lifecycle as observable by clients. */
enum class JobState : uint8_t
{
    Queued = 1,
    Running = 2,
    Done = 3,      ///< mission ran; result available (any outcome)
    Failed = 4,    ///< execution threw; failure reason available
    Cancelled = 5, ///< dequeued before running
    Unknown = 6,   ///< no such job id
};

const char *jobStateName(JobState s);

/**
 * The trajectory wire encoding. Binary records are the only payload;
 * the enum survives solely as the trailing parameter of
 * ServeClient::tryFetchResult, because perfbench/src/main.cc passes
 * TrajectoryEncoding::Binary there and perfbench stays untouched in
 * the revision that removed the CSV encoding. Drop both together with
 * the next change that may edit perfbench.
 */
enum class TrajectoryEncoding : uint8_t
{
    Binary = 2, ///< fixed-width records (kTrajectoryBinaryRecordBytes)
};

/**
 * One fixed-width binary trajectory record: the 10 float columns as
 * canonical f32 (7 before `collisions`, 3 command columns after) and
 * `collisions` as u32, little-endian. 44 bytes vs ~80 bytes/sample
 * measured for real CSV rows (~1.8x smaller). These records are the
 * trajectory payload everywhere in rosed: retained in memory,
 * journaled, and streamed.
 *
 * "Canonical f32" makes the encoding lossless *with respect to the
 * canonical CSV*: each f32 is the value its CSV cell prints (the
 * double strtod reads back from the 6-significant-digit cell, which
 * formatCsvCell yields while writing it), narrowed. An f32 sits within
 * 2^-24 ≈ 6e-8 relative of the decimal value, far inside the 5e-7
 * half-step of the 6-digit decimal grid, so printing the f32 back at
 * precision 6 reproduces the original CSV cell exactly.
 */
constexpr size_t kTrajectoryBinaryRecordBytes = 44;

/**
 * Encode samples as fixed-width binary records: TrajectoryEncoder
 * (below) over the whole trajectory as one run. When @p csvHash is
 * non-null it receives the FNV-1a of the canonical CSV
 * (core::trajectoryCsvString), chained row by row without building the
 * string.
 * @throws ProtocolError when a sample's collision count exceeds u32
 * (the record could no longer round-trip the CSV bit-for-bit). rosed
 * cannot admit such a mission: the count rises at most once per
 * physics substep, ~2.2e6 times in the 3600 s maxSimSeconds cap.
 */
std::vector<uint8_t>
encodeTrajectoryBinary(const std::vector<core::TrajectorySample> &t,
                       uint64_t *csvHash = nullptr);

/**
 * Decode fixed-width binary records.
 * @throws ProtocolError when @p size is not a whole number of records.
 */
std::vector<core::TrajectorySample>
decodeTrajectoryBinary(const uint8_t *data, size_t size);

/** SubmitOk payload. */
struct SubmitOkReply
{
    uint64_t jobId = 0;
    /** Jobs ahead of this one in the queue at admission. */
    uint32_t queuePosition = 0;
};

/** SubmitRejected payload. */
struct RejectedReply
{
    RejectReason reason = RejectReason::QueueFull;
    std::string detail;
};

/** StatusReply payload. */
struct StatusInfo
{
    uint64_t jobId = 0;
    JobState state = JobState::Unknown;
    uint32_t queuePosition = 0; ///< only meaningful when Queued
    double queueWaitMs = 0.0;   ///< admission -> start (so far if Queued)
    double serviceMs = 0.0;     ///< start -> finish (0 until finished)
};

/**
 * A mission result marshalled for the wire. On the server the
 * trajectory lives only as binary records (`trajectoryRecords`,
 * encoded once per sample, mostly while the mission runs) — the bytes
 * a fetch streams and the journal stores. A client's fetch decodes them into `trajectory`;
 * core::trajectoryCsvString over those samples reproduces the
 * canonical CSV whose FNV-1a is `trajectoryHash`, the golden hash.
 */
struct ServedResult
{
    uint8_t status = 0; ///< core::MissionStatus
    std::string failureReason;
    double missionTime = 0.0;
    uint64_t collisions = 0;
    double avgSpeed = 0.0;
    double maxSpeed = 0.0;
    double distanceTravelled = 0.0;
    uint64_t inferences = 0;
    double avgInferenceLatency = 0.0;
    double energyJoules = 0.0;
    double avgPowerWatts = 0.0;
    uint64_t simulatedCycles = 0;
    uint32_t trajectorySamples = 0;
    uint32_t degradedIntervals = 0;
    /** FNV-1a of the canonical trajectory CSV (the hash target of
     *  test_golden.cc). */
    uint64_t trajectoryHash = 0;
    /** Server side: the trajectory as binary records, the stream
     *  payload. Empty on the client. */
    std::vector<uint8_t> trajectoryRecords;
    /** FNV-1a of trajectoryRecords; streams carry it as
     *  ResultEnd.payloadHash and AckResult must match it. */
    uint64_t payloadHash = 0;
    /** Client side: the decoded samples of a fetched stream. */
    std::vector<core::TrajectorySample> trajectory;
    /** Server-side queueing telemetry for this job. */
    double queueWaitMs = 0.0;
    double serviceMs = 0.0;
};

/**
 * The one trajectory record writer, fed one run of samples at a time.
 * For each sample it renders the canonical CSV row once, writes the
 * record the row's printed values narrow to, and advances two FNV-1a
 * chains in the same loop: the canonical CSV (header first, then row
 * by row; the golden hash) and the record bytes (the payload hash).
 * Both are plain byte chains, so encoding a trajectory in pieces gives
 * exactly the bytes and hashes of encoding it whole.
 */
class TrajectoryEncoder
{
  public:
    /** The encoder's state at a sample boundary, to rewind to. */
    struct Mark
    {
        size_t bytes = 0;
        uint64_t csvHash = 0;
        uint64_t payloadHash = 0;
    };

    TrajectoryEncoder();

    void reserve(size_t samples);
    /**
     * Encode @p n samples after those already held.
     * @throws ProtocolError when a sample's collision count exceeds
     * u32; the encoder then holds a partial run, so rewind it.
     */
    void append(const core::TrajectorySample *s, size_t n);
    Mark mark() const { return {records_.size(), csvHash_, payloadHash_}; }
    /** Cut back to a mark this encoder passed through. */
    void rewind(const Mark &m);

    size_t samples() const
    {
        return records_.size() / kTrajectoryBinaryRecordBytes;
    }
    uint64_t csvHash() const { return csvHash_; }
    uint64_t payloadHash() const { return payloadHash_; }
    /** Move the records out; the encoder is then as if new. */
    std::vector<uint8_t> takeRecords();

  private:
    std::vector<uint8_t> records_;
    uint64_t csvHash_;
    uint64_t payloadHash_;
};

/**
 * Marshal a core result: scalars, the binary records and both hashes,
 * in one encoder pass over the samples (no CSV string is built).
 */
ServedResult marshalResult(const core::MissionResult &r);

/** Marshal @p r with @p records, an encoder that holds exactly
 *  r.trajectory. */
ServedResult marshalResult(const core::MissionResult &r,
                           TrajectoryEncoder &&records);

/**
 * The ServedResult scalar fields, from `status` through `serviceMs`,
 * in their one wire order. ResultEnd and the journal's Terminal record
 * both carry exactly this block. The reader bounds failureReason like
 * every other serve string; instantiated for PayloadReader and for
 * the journal's StateReader.
 */
void writeResultScalars(StateWriter &w, const ServedResult &s);
template <class Reader>
void readResultScalars(Reader &r, ServedResult &s);

/** ResultChunk payload: one ordered segment of a result stream. */
struct ResultChunkData
{
    uint64_t jobId = 0;
    /** 0-based stream position; chunks arrive strictly sequential. */
    uint32_t seq = 0;
    std::vector<uint8_t> bytes;
};

/**
 * ResultEnd payload: closes a result stream. Carries everything
 * except the trajectory records themselves — terminal state, stream
 * totals for truncation detection, both hashes, and the scalar result
 * fields.
 */
struct ResultEndData
{
    uint64_t jobId = 0;
    /** Terminal lifecycle state (Done or Failed) of the job. */
    JobState state = JobState::Done;
    uint32_t chunkCount = 0;
    uint64_t payloadBytes = 0;
    /** FNV-1a of the canonical trajectory CSV (the golden hash). */
    uint64_t trajectoryHash = 0;
    /** FNV-1a of the record bytes: the assembler verifies reassembly
     *  against it, with no CSV render inside the fetch. */
    uint64_t payloadHash = 0;
    /** Scalar fields only; the record and sample vectors stay empty. */
    ServedResult result;
};

/** Progress payload: a running job's position in simulated time. */
struct ProgressEvent
{
    uint64_t jobId = 0;
    double simTimeSeconds = 0.0;
    double maxSimSeconds = 0.0;
    uint64_t samples = 0;
};

/** A fully reassembled result (ResultStreamAssembler's output). */
struct ResultData
{
    uint64_t jobId = 0;
    ServedResult result;
    /** Terminal lifecycle state (Done or Failed) of the job. */
    JobState state = JobState::Done;
    /** FNV-1a of the payload bytes the client assembled (verified
     *  against ResultEnd.payloadHash); AckResult carries it back so
     *  the server releases only bytes the client actually holds. */
    uint64_t payloadHash = 0;
};

/**
 * Client-side state machine that reassembles one result stream.
 * Standalone (no socket knowledge) so the whole protocol surface is
 * fuzzable: feed it decoded frames in arrival order and it enforces
 * every stream invariant — matching job id, strictly sequential
 * chunk seq, bounded accumulation, no frame after ResultEnd, totals
 * and chunk count matching, the FNV-1a payload hash over the
 * assembled record bytes, and a whole number of records — then
 * decodes the records into `result.trajectory`.
 */
class ResultStreamAssembler
{
  public:
    explicit ResultStreamAssembler(
        uint64_t job_id,
        size_t max_payload_bytes = kMaxAssembledTrajectoryBytes);

    /**
     * Consume one stream frame (ResultChunk or ResultEnd).
     * @return true once the stream is complete and verified.
     * @throws ProtocolError on any stream violation, including any
     * frame fed after completion and any non-stream message type
     * (Progress frames are connection-level events — dispatch them
     * before the assembler, never into it).
     */
    bool feed(const Message &m);

    bool complete() const { return complete_; }
    uint64_t jobId() const { return jobId_; }
    /** Payload bytes accumulated so far. */
    size_t payloadBytes() const { return payload_.size(); }
    /** The verified result; only valid once complete(). */
    ResultData takeResult();

    /**
     * Prepare to continue after the connection carrying the stream
     * died: keeps the accumulated payload prefix and resets the
     * chunk-sequence expectation to 0, matching the server's numbering
     * of a stream resumed at payloadBytes(). Only valid before
     * completion.
     */
    void rewindForResume();

  private:
    void finish(const ResultEndData &end);

    uint64_t jobId_ = 0;
    size_t maxPayloadBytes_ = 0;
    uint32_t nextSeq_ = 0;
    std::vector<uint8_t> payload_;
    /** FNV-1a of payload_, folded in as each chunk arrives. */
    uint64_t payloadHash_ = kFnv1aOffsetBasis;
    bool complete_ = false;
    ResultData result_;
};

/** What a CancelMission achieved. */
enum class CancelOutcome : uint8_t
{
    Dequeued = 1,    ///< removed from the queue before running
    TooLate = 2,     ///< already running (missions are not preempted)
    AlreadyDone = 3, ///< already finished
    UnknownJob = 4,
};

/** CancelReply payload. */
struct CancelInfo
{
    uint64_t jobId = 0;
    CancelOutcome outcome = CancelOutcome::UnknownJob;
};

/** StatsReply payload: admission + load-shedding counters. */
struct ServerStatsData
{
    uint64_t submitted = 0; ///< SubmitMission requests seen
    uint64_t accepted = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t cancelled = 0;
    uint64_t rejectedQueueFull = 0;
    uint64_t rejectedClientCap = 0;
    uint64_t rejectedShutdown = 0;
    uint64_t malformed = 0; ///< poisoned connections dropped
    uint32_t queued = 0;    ///< jobs waiting right now
    uint32_t running = 0;   ///< jobs executing right now
    uint32_t workers = 0;
    uint32_t queueCapacity = 0;
    uint64_t connectionsAccepted = 0;
    uint32_t connectionsOpen = 0;
    /** Queue-wait / service-time aggregates over finished jobs [ms]. */
    double totalQueueWaitMs = 0.0;
    double maxQueueWaitMs = 0.0;
    double totalServiceMs = 0.0;
    double maxServiceMs = 0.0;
    // Result-stream telemetry (protocol 2).
    uint64_t streamsStarted = 0;
    uint64_t streamsCompleted = 0; ///< ResultEnd enqueued
    uint64_t streamedChunks = 0;
    uint64_t streamedPayloadBytes = 0;
    uint64_t progressEvents = 0;
    /** Bytes currently held by retained terminal results. */
    uint64_t retainedResultBytes = 0;
    uint32_t activeStreams = 0; ///< streams mid-flight right now
    // Durability telemetry (protocol 3).
    uint64_t dedupedSubmits = 0; ///< idempotency-key hits answered
    uint64_t journalReplayedJobs = 0; ///< jobs recovered at boot
    uint64_t warmRestoredJobs = 0; ///< recovered via disk checkpoint
    uint64_t resultsAcked = 0;     ///< hash-verified releases
    uint64_t streamsResumed = 0;   ///< fetches with resumeOffset > 0
};

// Requests.

/** SubmitMission payload: the spec plus an optional idempotency key. */
struct SubmitRequest
{
    core::MissionSpec spec;
    /**
     * Client-chosen retry token. A resubmission carrying a key the
     * server has already journaled answers with the original job id
     * instead of enqueueing a duplicate mission. Empty = none.
     */
    std::string idempotencyKey;
};

Message encodeSubmitMission(const core::MissionSpec &spec,
                            const std::string &idempotency_key = "");
SubmitRequest decodeSubmitRequest(const Message &m);
/** Spec-only view of decodeSubmitRequest (key discarded). */
core::MissionSpec decodeSubmitMission(const Message &m);

Message encodeQueryStatus(uint64_t job_id);
uint64_t decodeQueryStatus(const Message &m);

/** FetchResult payload: job id + resume byte offset. */
struct FetchRequest
{
    uint64_t jobId = 0;
    /**
     * Record bytes the client already holds from an interrupted
     * stream of the same job; the server streams the rest. 0 = full
     * stream. Must be a multiple of kTrajectoryBinaryRecordBytes.
     */
    uint64_t resumeOffset = 0;
};

Message encodeFetchResult(uint64_t job_id, uint64_t resume_offset = 0);
FetchRequest decodeFetchResult(const Message &m);

/** AckResult payload: releases a fetched result after verification. */
struct AckRequest
{
    uint64_t jobId = 0;
    /** FNV-1a of the record bytes the client reassembled. */
    uint64_t payloadHash = 0;
};

Message encodeAckResult(uint64_t job_id, uint64_t payload_hash);
AckRequest decodeAckResult(const Message &m);

Message encodeCancelMission(uint64_t job_id);
uint64_t decodeCancelMission(const Message &m);

Message encodeServerStats();

Message encodeShutdown(bool drain);
bool decodeShutdown(const Message &m);

// Responses.
Message encodeSubmitOk(const SubmitOkReply &r);
SubmitOkReply decodeSubmitOk(const Message &m);

Message encodeRejected(const RejectedReply &r);
RejectedReply decodeRejected(const Message &m);

Message encodeStatusReply(const StatusInfo &s);
StatusInfo decodeStatusReply(const Message &m);

Message encodeResultChunk(const ResultChunkData &c);
ResultChunkData decodeResultChunk(const Message &m);

Message encodeResultEnd(const ResultEndData &e);
ResultEndData decodeResultEnd(const Message &m);

Message encodeProgress(const ProgressEvent &p);
ProgressEvent decodeProgress(const Message &m);

Message encodeCancelReply(const CancelInfo &c);
CancelInfo decodeCancelReply(const Message &m);

/** What an AckResult achieved. */
enum class AckOutcome : uint8_t
{
    Released = 1, ///< hash matched; the server dropped the record
    /**
     * No such retained job — also the reply when a reconnect retried
     * an ack that already landed, so clients treat it as success.
     */
    UnknownJob = 2,
    HashMismatch = 3, ///< client hash ≠ stored hash; record kept
};

const char *ackOutcomeName(AckOutcome o);

/** AckReply payload. */
struct AckInfo
{
    uint64_t jobId = 0;
    AckOutcome outcome = AckOutcome::UnknownJob;
};

Message encodeAckReply(const AckInfo &a);
AckInfo decodeAckReply(const Message &m);

Message encodeStatsReply(const ServerStatsData &s);
ServerStatsData decodeStatsReply(const Message &m);

Message encodeShutdownReply();

Message encodeErrorReply(const std::string &what);
std::string decodeErrorReply(const Message &m);

} // namespace rose::serve

#endif // ROSE_SERVE_PROTO_HH
