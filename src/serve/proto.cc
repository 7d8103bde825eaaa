#include "proto.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

#include "util/hash.hh"
#include "util/logging.hh"

namespace rose::serve {

bool
isValidMsgType(uint8_t raw)
{
    switch (MsgType(raw)) {
      case MsgType::SubmitMission:
      case MsgType::QueryStatus:
      case MsgType::FetchResult:
      case MsgType::CancelMission:
      case MsgType::ServerStats:
      case MsgType::Shutdown:
      case MsgType::AckResult:
      case MsgType::SubmitOk:
      case MsgType::SubmitRejected:
      case MsgType::StatusReply:
      case MsgType::CancelReply:
      case MsgType::StatsReply:
      case MsgType::ShutdownReply:
      case MsgType::ResultChunk:
      case MsgType::ResultEnd:
      case MsgType::Progress:
      case MsgType::AckReply:
      case MsgType::ErrorReply:
        return true;
    }
    return false;
}

bool
isRequest(MsgType t)
{
    return (uint8_t(t) & 0x80) == 0;
}

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::SubmitMission: return "SubmitMission";
      case MsgType::QueryStatus: return "QueryStatus";
      case MsgType::FetchResult: return "FetchResult";
      case MsgType::CancelMission: return "CancelMission";
      case MsgType::ServerStats: return "ServerStats";
      case MsgType::Shutdown: return "Shutdown";
      case MsgType::AckResult: return "AckResult";
      case MsgType::SubmitOk: return "SubmitOk";
      case MsgType::SubmitRejected: return "SubmitRejected";
      case MsgType::StatusReply: return "StatusReply";
      case MsgType::CancelReply: return "CancelReply";
      case MsgType::StatsReply: return "StatsReply";
      case MsgType::ShutdownReply: return "ShutdownReply";
      case MsgType::ResultChunk: return "ResultChunk";
      case MsgType::ResultEnd: return "ResultEnd";
      case MsgType::Progress: return "Progress";
      case MsgType::AckReply: return "AckReply";
      case MsgType::ErrorReply: return "ErrorReply";
    }
    return "unknown";
}

const char *
rejectReasonName(RejectReason r)
{
    switch (r) {
      case RejectReason::QueueFull: return "queue_full";
      case RejectReason::ClientCap: return "client_cap";
      case RejectReason::ShuttingDown: return "shutting_down";
      case RejectReason::BadRequest: return "bad_request";
    }
    return "unknown";
}

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Done: return "done";
      case JobState::Failed: return "failed";
      case JobState::Cancelled: return "cancelled";
      case JobState::Unknown: return "unknown";
    }
    return "unknown";
}

const char *
ackOutcomeName(AckOutcome o)
{
    switch (o) {
      case AckOutcome::Released: return "released";
      case AckOutcome::UnknownJob: return "unknown_job";
      case AckOutcome::HashMismatch: return "hash_mismatch";
    }
    return "unknown";
}

// ------------------------------------------------------------- helpers

namespace {

/** Hard bound on identifier-like strings in specs/replies. */
constexpr size_t kMaxStringBytes = 4096;

void
requireType(const Message &m, MsgType want)
{
    if (m.type != want)
        throw ProtocolError(detail::concat(
            "expected ", msgTypeName(want), ", got ",
            msgTypeName(m.type)));
}

Message
makeJobIdMessage(MsgType t, uint64_t job_id)
{
    StateWriter w;
    w.u64(job_id);
    return Message{t, w.take()};
}

uint64_t
readJobIdMessage(const Message &m, MsgType want)
{
    requireType(m, want);
    PayloadReader r(m.payload);
    return r.u64();
}

JobState
readTerminalState(PayloadReader &r, const char *where)
{
    uint8_t state = r.u8();
    if (state != uint8_t(JobState::Done) &&
        state != uint8_t(JobState::Failed))
        throw ProtocolError(detail::concat(
            "non-terminal job state byte ", unsigned(state), " in ",
            where));
    return JobState(state);
}

} // namespace

// ------------------------------------------------ binary trajectory

namespace {

// A record is written and read as its in-memory image, one copy per
// sample: on a little-endian host the unpadded struct's bytes are
// exactly the per-field f32/u32 little-endian fields of the layout.
struct TrajectoryRecord
{
    float cells[7]; ///< t, x, y, z, yaw, speed, offset
    uint32_t collisions;
    float commands[3]; ///< cmd_fwd, cmd_lat, cmd_yaw
};
static_assert(std::endian::native == std::endian::little,
              "trajectory records assume a little-endian host");
static_assert(sizeof(TrajectoryRecord) == kTrajectoryBinaryRecordBytes,
              "TrajectoryRecord must be the unpadded record layout");
static_assert(std::is_trivially_copyable_v<TrajectoryRecord>);

} // namespace

TrajectoryEncoder::TrajectoryEncoder()
    : csvHash_(fnv1a(core::trajectoryCsvHeader())),
      payloadHash_(kFnv1aOffsetBasis)
{
}

void
TrajectoryEncoder::reserve(size_t samples)
{
    records_.reserve(samples * kTrajectoryBinaryRecordBytes);
}

void
TrajectoryEncoder::append(const core::TrajectorySample *s, size_t n)
{
    size_t at = records_.size();
    records_.resize(at + n * kTrajectoryBinaryRecordBytes);
    char row[core::kTrajectoryCsvRowMaxChars];
    double printed[core::kTrajectoryCsvFloatCells] = {};
    TrajectoryRecord rec{};
    const auto *bytes = reinterpret_cast<const uint8_t *>(&rec);
    uint64_t hc = csvHash_;
    uint64_t hp = payloadHash_;
    for (const core::TrajectorySample *end_s = s + n; s != end_s; ++s) {
        if (s->collisions > UINT32_MAX)
            throw ProtocolError(detail::concat(
                "collision count ", s->collisions,
                " exceeds the u32 binary-record field"));
        // The row's cells and the values they print are one formatting
        // pass; the record narrows the printed values (canonical f32).
        const char *end = core::renderTrajectoryCsvRow(row, *s, printed);
        const size_t len = size_t(end - row);
        for (size_t i = 0; i < 7; ++i)
            rec.cells[i] = float(printed[i]);
        rec.collisions = uint32_t(s->collisions);
        for (size_t i = 0; i < 3; ++i)
            rec.commands[i] = float(printed[7 + i]);
        std::memcpy(records_.data() + at, &rec, sizeof(rec));
        at += sizeof(rec);
        // The two chains are independent, so stepping them in one loop
        // overlaps their multiply latencies.
        const size_t both = std::min(len, sizeof(rec));
        for (size_t i = 0; i < both; ++i) {
            hc = (hc ^ uint8_t(row[i])) * kFnv1aPrime;
            hp = (hp ^ bytes[i]) * kFnv1aPrime;
        }
        for (size_t i = both; i < len; ++i)
            hc = (hc ^ uint8_t(row[i])) * kFnv1aPrime;
        for (size_t i = both; i < sizeof(rec); ++i)
            hp = (hp ^ bytes[i]) * kFnv1aPrime;
    }
    csvHash_ = hc;
    payloadHash_ = hp;
}

void
TrajectoryEncoder::rewind(const Mark &m)
{
    rose_assert(m.bytes <= records_.size() &&
                    m.bytes % kTrajectoryBinaryRecordBytes == 0,
                "rewind past the encoded records");
    records_.resize(m.bytes);
    csvHash_ = m.csvHash;
    payloadHash_ = m.payloadHash;
}

std::vector<uint8_t>
TrajectoryEncoder::takeRecords()
{
    std::vector<uint8_t> out = std::move(records_);
    *this = TrajectoryEncoder();
    return out;
}

std::vector<uint8_t>
encodeTrajectoryBinary(const std::vector<core::TrajectorySample> &t,
                       uint64_t *csvHash)
{
    TrajectoryEncoder e;
    e.reserve(t.size());
    e.append(t.data(), t.size());
    if (csvHash)
        *csvHash = e.csvHash();
    return e.takeRecords();
}

std::vector<core::TrajectorySample>
decodeTrajectoryBinary(const uint8_t *data, size_t size)
{
    if (size % kTrajectoryBinaryRecordBytes != 0)
        throw ProtocolError(detail::concat(
            "binary trajectory payload of ", size,
            " bytes is not a whole number of ",
            kTrajectoryBinaryRecordBytes, "-byte records"));
    std::vector<core::TrajectorySample> t(size /
                                          kTrajectoryBinaryRecordBytes);
    // Each record is the TrajectoryRecord image the encoder wrote.
    TrajectoryRecord rec;
    for (core::TrajectorySample &s : t) {
        std::memcpy(&rec, data, sizeof(rec));
        data += sizeof(rec);
        s.time = rec.cells[0];
        s.position.x = rec.cells[1];
        s.position.y = rec.cells[2];
        s.position.z = rec.cells[3];
        s.yaw = rec.cells[4];
        s.speed = rec.cells[5];
        s.lateralOffset = rec.cells[6];
        s.collisions = rec.collisions;
        s.cmdForward = rec.commands[0];
        s.cmdLateral = rec.commands[1];
        s.cmdYawRate = rec.commands[2];
    }
    return t;
}

// ------------------------------------------------------------ requests

Message
encodeSubmitMission(const core::MissionSpec &spec,
                    const std::string &idempotency_key)
{
    StateWriter w;
    w.u8(kSpecCodecVersion);
    w.str(idempotency_key);
    w.str(spec.world);
    w.str(spec.vehicle);
    w.str(spec.socName);
    w.u32(uint32_t(spec.modelDepth));
    w.f64(spec.velocity);
    w.f64(spec.initialYawDeg);
    w.u64(spec.syncGranularity);
    w.u8(uint8_t(spec.mode));
    w.u64(spec.seed);
    w.f64(spec.maxSimSeconds);
    w.u8(spec.degradedMode ? 1 : 0);
    const bridge::FaultConfig &f = spec.faults;
    w.u8(f.enabled ? 1 : 0);
    w.f64(f.dropProb);
    w.f64(f.corruptProb);
    w.f64(f.reorderProb);
    w.f64(f.delayProb);
    w.u64(f.delayOpsMin);
    w.u64(f.delayOpsMax);
    w.u8(f.protectSyncPackets ? 1 : 0);
    w.u64(f.seed);
    return Message{MsgType::SubmitMission, w.take()};
}

SubmitRequest
decodeSubmitRequest(const Message &m)
{
    requireType(m, MsgType::SubmitMission);
    PayloadReader r(m.payload);
    uint8_t version = r.u8();
    // Version 1 predates the idempotency key; still accepted (the
    // journal replays v1-era records through this same decoder).
    if (version < 1 || version > kSpecCodecVersion)
        throw ProtocolError(detail::concat(
            "unsupported mission-spec codec version ",
            unsigned(version)));
    SubmitRequest req;
    if (version >= 2)
        req.idempotencyKey = r.str(kMaxIdempotencyKeyBytes);
    core::MissionSpec &spec = req.spec;
    spec.world = r.str(kMaxStringBytes);
    spec.vehicle = r.str(kMaxStringBytes);
    spec.socName = r.str(kMaxStringBytes);
    spec.modelDepth = int(r.u32());
    spec.velocity = r.f64();
    spec.initialYawDeg = r.f64();
    spec.syncGranularity = r.u64();
    uint8_t mode = r.u8();
    if (mode > uint8_t(runtime::RuntimeMode::Dynamic))
        throw ProtocolError(detail::concat(
            "invalid runtime mode byte ", unsigned(mode)));
    spec.mode = runtime::RuntimeMode(mode);
    spec.seed = r.u64();
    spec.maxSimSeconds = r.f64();
    spec.degradedMode = r.u8() != 0;
    bridge::FaultConfig &f = spec.faults;
    f.enabled = r.u8() != 0;
    f.dropProb = r.f64();
    f.corruptProb = r.f64();
    f.reorderProb = r.f64();
    f.delayProb = r.f64();
    f.delayOpsMin = r.u64();
    f.delayOpsMax = r.u64();
    f.protectSyncPackets = r.u8() != 0;
    f.seed = r.u64();
    return req;
}

core::MissionSpec
decodeSubmitMission(const Message &m)
{
    return decodeSubmitRequest(m).spec;
}

Message
encodeQueryStatus(uint64_t job_id)
{
    return makeJobIdMessage(MsgType::QueryStatus, job_id);
}

uint64_t
decodeQueryStatus(const Message &m)
{
    return readJobIdMessage(m, MsgType::QueryStatus);
}

Message
encodeFetchResult(uint64_t job_id, uint64_t resume_offset)
{
    StateWriter w;
    w.u64(job_id);
    w.u64(resume_offset);
    return Message{MsgType::FetchResult, w.take()};
}

FetchRequest
decodeFetchResult(const Message &m)
{
    requireType(m, MsgType::FetchResult);
    PayloadReader r(m.payload);
    FetchRequest req;
    req.jobId = r.u64();
    req.resumeOffset = r.u64();
    return req;
}

Message
encodeAckResult(uint64_t job_id, uint64_t payload_hash)
{
    StateWriter w;
    w.u64(job_id);
    w.u64(payload_hash);
    return Message{MsgType::AckResult, w.take()};
}

AckRequest
decodeAckResult(const Message &m)
{
    requireType(m, MsgType::AckResult);
    PayloadReader r(m.payload);
    AckRequest a;
    a.jobId = r.u64();
    a.payloadHash = r.u64();
    return a;
}

Message
encodeCancelMission(uint64_t job_id)
{
    return makeJobIdMessage(MsgType::CancelMission, job_id);
}

uint64_t
decodeCancelMission(const Message &m)
{
    return readJobIdMessage(m, MsgType::CancelMission);
}

Message
encodeServerStats()
{
    return Message{MsgType::ServerStats, {}};
}

Message
encodeShutdown(bool drain)
{
    StateWriter w;
    w.u8(drain ? 1 : 0);
    return Message{MsgType::Shutdown, w.take()};
}

bool
decodeShutdown(const Message &m)
{
    requireType(m, MsgType::Shutdown);
    PayloadReader r(m.payload);
    return r.u8() != 0;
}

// ----------------------------------------------------------- responses

Message
encodeSubmitOk(const SubmitOkReply &reply)
{
    StateWriter w;
    w.u64(reply.jobId);
    w.u32(reply.queuePosition);
    return Message{MsgType::SubmitOk, w.take()};
}

SubmitOkReply
decodeSubmitOk(const Message &m)
{
    requireType(m, MsgType::SubmitOk);
    PayloadReader r(m.payload);
    SubmitOkReply reply;
    reply.jobId = r.u64();
    reply.queuePosition = r.u32();
    return reply;
}

Message
encodeRejected(const RejectedReply &reply)
{
    StateWriter w;
    w.u8(uint8_t(reply.reason));
    w.str(reply.detail);
    return Message{MsgType::SubmitRejected, w.take()};
}

RejectedReply
decodeRejected(const Message &m)
{
    requireType(m, MsgType::SubmitRejected);
    PayloadReader r(m.payload);
    RejectedReply reply;
    uint8_t reason = r.u8();
    if (reason < uint8_t(RejectReason::QueueFull) ||
        reason > uint8_t(RejectReason::BadRequest))
        throw ProtocolError(detail::concat(
            "invalid reject reason byte ", unsigned(reason)));
    reply.reason = RejectReason(reason);
    reply.detail = r.str(kMaxStringBytes);
    return reply;
}

Message
encodeStatusReply(const StatusInfo &s)
{
    StateWriter w;
    w.u64(s.jobId);
    w.u8(uint8_t(s.state));
    w.u32(s.queuePosition);
    w.f64(s.queueWaitMs);
    w.f64(s.serviceMs);
    return Message{MsgType::StatusReply, w.take()};
}

StatusInfo
decodeStatusReply(const Message &m)
{
    requireType(m, MsgType::StatusReply);
    PayloadReader r(m.payload);
    StatusInfo s;
    s.jobId = r.u64();
    uint8_t state = r.u8();
    if (state < uint8_t(JobState::Queued) ||
        state > uint8_t(JobState::Unknown))
        throw ProtocolError(detail::concat(
            "invalid job state byte ", unsigned(state)));
    s.state = JobState(state);
    s.queuePosition = r.u32();
    s.queueWaitMs = r.f64();
    s.serviceMs = r.f64();
    return s;
}

ServedResult
marshalResult(const core::MissionResult &r, TrajectoryEncoder &&records)
{
    ServedResult s;
    s.status = uint8_t(r.status);
    s.failureReason = r.failureReason;
    s.missionTime = r.missionTime;
    s.collisions = r.collisions;
    s.avgSpeed = r.avgSpeed;
    s.maxSpeed = r.maxSpeed;
    s.distanceTravelled = r.distanceTravelled;
    s.inferences = r.inferences;
    s.avgInferenceLatency = r.avgInferenceLatency;
    s.energyJoules = r.energyJoules;
    s.avgPowerWatts = r.avgPowerWatts;
    s.simulatedCycles = r.simulatedCycles;
    s.trajectorySamples = uint32_t(r.trajectory.size());
    s.degradedIntervals = uint32_t(r.degradedIntervals.size());
    // The records are the one retained, journaled and streamed copy,
    // and the canonical CSV they re-render to is only hashed row by
    // row (the golden hash rides every ResultEnd).
    rose_assert(records.samples() == r.trajectory.size(),
                "encoder does not hold the result's trajectory");
    s.trajectoryHash = records.csvHash();
    s.payloadHash = records.payloadHash();
    s.trajectoryRecords = records.takeRecords();
    return s;
}

ServedResult
marshalResult(const core::MissionResult &r)
{
    TrajectoryEncoder e;
    e.reserve(r.trajectory.size());
    e.append(r.trajectory.data(), r.trajectory.size());
    return marshalResult(r, std::move(e));
}

void
writeResultScalars(StateWriter &w, const ServedResult &s)
{
    w.u8(s.status);
    // Clipped to the bound its reader enforces, like encodeErrorReply.
    w.str(std::string_view(s.failureReason).substr(0, kMaxStringBytes));
    w.f64(s.missionTime);
    w.u64(s.collisions);
    w.f64(s.avgSpeed);
    w.f64(s.maxSpeed);
    w.f64(s.distanceTravelled);
    w.u64(s.inferences);
    w.f64(s.avgInferenceLatency);
    w.f64(s.energyJoules);
    w.f64(s.avgPowerWatts);
    w.u64(s.simulatedCycles);
    w.u32(s.trajectorySamples);
    w.u32(s.degradedIntervals);
    w.f64(s.queueWaitMs);
    w.f64(s.serviceMs);
}

template <class Reader>
void
readResultScalars(Reader &r, ServedResult &s)
{
    s.status = r.u8();
    s.failureReason = r.str(kMaxStringBytes);
    s.missionTime = r.f64();
    s.collisions = r.u64();
    s.avgSpeed = r.f64();
    s.maxSpeed = r.f64();
    s.distanceTravelled = r.f64();
    s.inferences = r.u64();
    s.avgInferenceLatency = r.f64();
    s.energyJoules = r.f64();
    s.avgPowerWatts = r.f64();
    s.simulatedCycles = r.u64();
    s.trajectorySamples = r.u32();
    s.degradedIntervals = r.u32();
    s.queueWaitMs = r.f64();
    s.serviceMs = r.f64();
}

template void readResultScalars(PayloadReader &, ServedResult &);
template void readResultScalars(StateReader &, ServedResult &);

Message
encodeResultChunk(const ResultChunkData &c)
{
    rose_assert(c.bytes.size() <= kMaxResultChunkBytes,
                "result chunk exceeds the chunk bound");
    StateWriter w;
    w.reserve(16 + c.bytes.size());
    w.u64(c.jobId);
    w.u32(c.seq);
    w.u32(uint32_t(c.bytes.size()));
    w.bytes(c.bytes.data(), c.bytes.size());
    return Message{MsgType::ResultChunk, w.take()};
}

ResultChunkData
decodeResultChunk(const Message &m)
{
    requireType(m, MsgType::ResultChunk);
    PayloadReader r(m.payload);
    ResultChunkData c;
    c.jobId = r.u64();
    c.seq = r.u32();
    uint32_t n = r.u32();
    if (n > kMaxResultChunkBytes)
        throw ProtocolError(detail::concat(
            "result chunk length ", n, " exceeds bound ",
            kMaxResultChunkBytes));
    r.bytes(c.bytes, n);
    return c;
}

Message
encodeResultEnd(const ResultEndData &e)
{
    StateWriter w;
    w.u64(e.jobId);
    w.u8(uint8_t(e.state));
    w.u32(e.chunkCount);
    w.u64(e.payloadBytes);
    w.u64(e.trajectoryHash);
    w.u64(e.payloadHash);
    writeResultScalars(w, e.result);
    return Message{MsgType::ResultEnd, w.take()};
}

ResultEndData
decodeResultEnd(const Message &m)
{
    requireType(m, MsgType::ResultEnd);
    PayloadReader r(m.payload);
    ResultEndData e;
    e.jobId = r.u64();
    e.state = readTerminalState(r, "ResultEnd");
    e.chunkCount = r.u32();
    e.payloadBytes = r.u64();
    e.trajectoryHash = r.u64();
    e.payloadHash = r.u64();
    readResultScalars(r, e.result);
    e.result.trajectoryHash = e.trajectoryHash;
    return e;
}

Message
encodeProgress(const ProgressEvent &p)
{
    StateWriter w;
    w.u64(p.jobId);
    w.f64(p.simTimeSeconds);
    w.f64(p.maxSimSeconds);
    w.u64(p.samples);
    return Message{MsgType::Progress, w.take()};
}

ProgressEvent
decodeProgress(const Message &m)
{
    requireType(m, MsgType::Progress);
    PayloadReader r(m.payload);
    ProgressEvent p;
    p.jobId = r.u64();
    p.simTimeSeconds = r.f64();
    p.maxSimSeconds = r.f64();
    p.samples = r.u64();
    return p;
}

// --------------------------------------------------- stream assembly

ResultStreamAssembler::ResultStreamAssembler(uint64_t job_id,
                                             size_t max_payload_bytes)
    : jobId_(job_id), maxPayloadBytes_(max_payload_bytes)
{
}

bool
ResultStreamAssembler::feed(const Message &m)
{
    if (complete_)
        throw ProtocolError(detail::concat(
            msgTypeName(m.type), " frame after ResultEnd closed the "
            "stream for job ", jobId_));
    switch (m.type) {
      case MsgType::ResultChunk: {
        ResultChunkData c = decodeResultChunk(m);
        if (c.jobId != jobId_)
            throw ProtocolError(detail::concat(
                "ResultChunk for job ", c.jobId,
                " inside the stream of job ", jobId_));
        if (c.seq != nextSeq_)
            throw ProtocolError(detail::concat(
                "result stream out of order: expected chunk ",
                nextSeq_, ", got ", c.seq));
        if (c.bytes.size() > maxPayloadBytes_ - payload_.size())
            throw ProtocolError(detail::concat(
                "result stream exceeds the ", maxPayloadBytes_,
                "-byte reassembly bound"));
        payload_.insert(payload_.end(), c.bytes.begin(),
                        c.bytes.end());
        payloadHash_ = fnv1a(c.bytes.data(), c.bytes.size(),
                             payloadHash_);
        nextSeq_++;
        return false;
      }
      case MsgType::ResultEnd:
        finish(decodeResultEnd(m));
        return true;
      default:
        throw ProtocolError(detail::concat(
            "unexpected ", msgTypeName(m.type),
            " frame inside a result stream"));
    }
}

void
ResultStreamAssembler::finish(const ResultEndData &end)
{
    if (end.jobId != jobId_)
        throw ProtocolError(detail::concat(
            "ResultEnd for job ", end.jobId,
            " inside the stream of job ", jobId_));
    if (end.chunkCount != nextSeq_)
        throw ProtocolError(detail::concat(
            "result stream truncated: ResultEnd declares ",
            end.chunkCount, " chunks, received ", nextSeq_));
    if (end.payloadBytes != payload_.size())
        throw ProtocolError(detail::concat(
            "result stream truncated: ResultEnd declares ",
            end.payloadBytes, " payload bytes, received ",
            payload_.size()));

    // Integrity is checked over the record bytes as received, hashed
    // chunk by chunk on arrival — no decoding (and no CSV re-render)
    // sits between the wire and the hash, so a corrupt stream is
    // caught before any decode runs.
    if (payloadHash_ != end.payloadHash)
        throw ProtocolError(detail::concat(
            "payload hash mismatch after reassembly of job ",
            jobId_, " (", payload_.size(), " payload bytes)"));

    ResultData d;
    d.jobId = end.jobId;
    d.state = end.state;
    d.result = end.result;
    d.payloadHash = payloadHash_;
    // The records quantize every cell to its printed decimal, so
    // core::trajectoryCsvString over these samples reproduces the
    // server-side canonical CSV bit-for-bit (test_serve pins this);
    // callers render it on demand instead of inside every fetch.
    d.result.trajectory =
        decodeTrajectoryBinary(payload_.data(), payload_.size());
    payload_.clear();
    payload_.shrink_to_fit();
    result_ = std::move(d);
    complete_ = true;
}

ResultData
ResultStreamAssembler::takeResult()
{
    rose_assert(complete_,
                "takeResult() before the stream completed");
    return std::move(result_);
}

void
ResultStreamAssembler::rewindForResume()
{
    rose_assert(!complete_,
                "rewindForResume() after the stream completed");
    // The accumulated prefix (and its running hash) is kept: a
    // resumed stream restarts its chunk numbering at 0 and ResultEnd's
    // totals still check out — chunkCount counts the resumed stream's
    // chunks and payloadBytes is the whole payload, prefix included.
    nextSeq_ = 0;
}

Message
encodeCancelReply(const CancelInfo &c)
{
    StateWriter w;
    w.u64(c.jobId);
    w.u8(uint8_t(c.outcome));
    return Message{MsgType::CancelReply, w.take()};
}

CancelInfo
decodeCancelReply(const Message &m)
{
    requireType(m, MsgType::CancelReply);
    PayloadReader r(m.payload);
    CancelInfo c;
    c.jobId = r.u64();
    uint8_t outcome = r.u8();
    if (outcome < uint8_t(CancelOutcome::Dequeued) ||
        outcome > uint8_t(CancelOutcome::UnknownJob))
        throw ProtocolError(detail::concat(
            "invalid cancel outcome byte ", unsigned(outcome)));
    c.outcome = CancelOutcome(outcome);
    return c;
}

Message
encodeAckReply(const AckInfo &a)
{
    StateWriter w;
    w.u64(a.jobId);
    w.u8(uint8_t(a.outcome));
    return Message{MsgType::AckReply, w.take()};
}

AckInfo
decodeAckReply(const Message &m)
{
    requireType(m, MsgType::AckReply);
    PayloadReader r(m.payload);
    AckInfo a;
    a.jobId = r.u64();
    uint8_t outcome = r.u8();
    if (outcome < uint8_t(AckOutcome::Released) ||
        outcome > uint8_t(AckOutcome::HashMismatch))
        throw ProtocolError(detail::concat(
            "invalid ack outcome byte ", unsigned(outcome)));
    a.outcome = AckOutcome(outcome);
    return a;
}

Message
encodeStatsReply(const ServerStatsData &s)
{
    StateWriter w;
    w.u64(s.submitted);
    w.u64(s.accepted);
    w.u64(s.completed);
    w.u64(s.failed);
    w.u64(s.cancelled);
    w.u64(s.rejectedQueueFull);
    w.u64(s.rejectedClientCap);
    w.u64(s.rejectedShutdown);
    w.u64(s.malformed);
    w.u32(s.queued);
    w.u32(s.running);
    w.u32(s.workers);
    w.u32(s.queueCapacity);
    w.u64(s.connectionsAccepted);
    w.u32(s.connectionsOpen);
    w.f64(s.totalQueueWaitMs);
    w.f64(s.maxQueueWaitMs);
    w.f64(s.totalServiceMs);
    w.f64(s.maxServiceMs);
    w.u64(s.streamsStarted);
    w.u64(s.streamsCompleted);
    w.u64(s.streamedChunks);
    w.u64(s.streamedPayloadBytes);
    w.u64(s.progressEvents);
    w.u64(s.retainedResultBytes);
    w.u32(s.activeStreams);
    w.u64(s.dedupedSubmits);
    w.u64(s.journalReplayedJobs);
    w.u64(s.warmRestoredJobs);
    w.u64(s.resultsAcked);
    w.u64(s.streamsResumed);
    return Message{MsgType::StatsReply, w.take()};
}

ServerStatsData
decodeStatsReply(const Message &m)
{
    requireType(m, MsgType::StatsReply);
    PayloadReader r(m.payload);
    ServerStatsData s;
    s.submitted = r.u64();
    s.accepted = r.u64();
    s.completed = r.u64();
    s.failed = r.u64();
    s.cancelled = r.u64();
    s.rejectedQueueFull = r.u64();
    s.rejectedClientCap = r.u64();
    s.rejectedShutdown = r.u64();
    s.malformed = r.u64();
    s.queued = r.u32();
    s.running = r.u32();
    s.workers = r.u32();
    s.queueCapacity = r.u32();
    s.connectionsAccepted = r.u64();
    s.connectionsOpen = r.u32();
    s.totalQueueWaitMs = r.f64();
    s.maxQueueWaitMs = r.f64();
    s.totalServiceMs = r.f64();
    s.maxServiceMs = r.f64();
    s.streamsStarted = r.u64();
    s.streamsCompleted = r.u64();
    s.streamedChunks = r.u64();
    s.streamedPayloadBytes = r.u64();
    s.progressEvents = r.u64();
    s.retainedResultBytes = r.u64();
    s.activeStreams = r.u32();
    s.dedupedSubmits = r.u64();
    s.journalReplayedJobs = r.u64();
    s.warmRestoredJobs = r.u64();
    s.resultsAcked = r.u64();
    s.streamsResumed = r.u64();
    return s;
}

Message
encodeShutdownReply()
{
    return Message{MsgType::ShutdownReply, {}};
}

Message
encodeErrorReply(const std::string &what)
{
    StateWriter w;
    w.str(std::string_view(what).substr(0, kMaxStringBytes));
    return Message{MsgType::ErrorReply, w.take()};
}

std::string
decodeErrorReply(const Message &m)
{
    requireType(m, MsgType::ErrorReply);
    PayloadReader r(m.payload);
    return r.str(kMaxStringBytes);
}

} // namespace rose::serve
