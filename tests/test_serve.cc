/**
 * @file
 * Tests of the mission-service daemon (src/serve/).
 *
 * Five layers:
 *  - protocol codecs: every request/response round-trips byte-exactly,
 *    including the result-stream frames (ResultChunk / ResultEnd /
 *    Progress) and the fixed-width binary trajectory records with
 *    their canonical-f32 CSV print-parity invariant, and seeded
 *    truncations and bit flips of the stream-control payloads throw
 *    cleanly;
 *  - framing: seeded fuzz of MessageBuffer (mirrors the bridge's
 *    test_framing_fuzz harness) — arbitrary bytes never crash, hang,
 *    or allocate past the payload bound, and poison sticks;
 *  - stream reassembly: ResultStreamAssembler state machine under
 *    seeded fuzz — random chunk splits, truncation, frames after
 *    ResultEnd, corrupted hashes — every violation is a clean
 *    ProtocolError, never a crash or a silent wrong result;
 *  - served-result determinism: a mission submitted over TCP returns
 *    samples whose rendered CSV hashes (FNV-1a) bit-identically to
 *    the same spec run locally via runMission(), including under 4
 *    concurrent clients and for multi-megabyte trajectories streamed
 *    across many chunks (the golden-trace acceptance criterion);
 *  - admission control & lifecycle: queue-full and per-client-cap
 *    shedding, cancellation, stalled readers and disconnects
 *    mid-stream, byte-bounded result retention, and clean shutdown
 *    with in-flight jobs;
 *  - durability & crash recovery (ServeDurability): the write-ahead
 *    job journal replayed across a daemon restart (terminal results
 *    fetchable bit-identically, interrupted jobs re-queued and
 *    warm-restored from their persisted checkpoint, idempotency keys
 *    deduplicated, replayed results resumable), hash-verified
 *    AckResult release, record-aligned resume offsets, the retained
 *    bytes per result, and reconnect-enabled clients surviving severed
 *    connections (ci/chaos_smoke.sh adds the real SIGKILL
 *    dimension).
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bridge/transport.hh"

#include "core/batch.hh"
#include "core/experiment.hh"
#include "core/supervisor.hh"
#include "format_probes.hh"
#include "serve/client.hh"
#include "serve/encoder_thread.hh"
#include "serve/journal.hh"
#include "serve/server.hh"
#include "util/csv.hh"
#include "util/hash.hh"
#include "util/rng.hh"

using namespace rose;
using namespace rose::serve;

namespace {

/** The golden canonical mission (mirrors test_golden.cc). */
core::MissionSpec
canonicalSpec(const std::string &soc, double sim_seconds = 10.0)
{
    core::MissionSpec spec;
    spec.world = "tunnel";
    spec.socName = soc;
    spec.modelDepth = 14;
    spec.velocity = 3.0;
    spec.initialYawDeg = 20.0;
    spec.seed = 1;
    spec.maxSimSeconds = sim_seconds;
    return spec;
}

/** A cheap mission for lifecycle tests (~0.1 s of wall time). */
core::MissionSpec
quickSpec(uint64_t seed = 1)
{
    core::MissionSpec spec = canonicalSpec("A", 2.0);
    spec.seed = seed;
    return spec;
}

uint64_t
localTrajectoryHash(const core::MissionSpec &spec)
{
    core::MissionResult r = core::runMission(spec);
    return fnv1a(core::trajectoryCsvString(r));
}

/** FNV-1a of the canonical CSV rendered from a fetched result. */
uint64_t
servedHash(const ServedResult &r)
{
    return fnv1a(core::trajectoryCsvString(r.trajectory));
}

/** Poll a predicate over server stats until it holds or we time out. */
template <typename Pred>
bool
eventually(MissionServer &server, Pred pred, int timeout_ms = 10000)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    for (;;) {
        if (pred(server.stats()))
            return true;
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

} // namespace

// ===================================================== protocol codecs

TEST(ServeProto, SpecCodecRoundTripsEveryField)
{
    core::MissionSpec spec;
    spec.world = "s-shape";
    spec.vehicle = "rover";
    spec.socName = "C";
    spec.modelDepth = 26;
    spec.velocity = 7.25;
    spec.initialYawDeg = -15.5;
    spec.syncGranularity = 12345678;
    spec.mode = runtime::RuntimeMode::Dynamic;
    spec.seed = 0xdeadbeefcafeULL;
    spec.maxSimSeconds = 42.5;
    spec.degradedMode = true;
    spec.faults.enabled = true;
    spec.faults.dropProb = 0.125;
    spec.faults.corruptProb = 0.0625;
    spec.faults.reorderProb = 0.5;
    spec.faults.delayProb = 0.25;
    spec.faults.delayOpsMin = 3;
    spec.faults.delayOpsMax = 17;
    spec.faults.protectSyncPackets = false;
    spec.faults.seed = 0x1234;

    core::MissionSpec back =
        decodeSubmitMission(encodeSubmitMission(spec));
    EXPECT_EQ(back.world, spec.world);
    EXPECT_EQ(back.vehicle, spec.vehicle);
    EXPECT_EQ(back.socName, spec.socName);
    EXPECT_EQ(back.modelDepth, spec.modelDepth);
    EXPECT_EQ(back.velocity, spec.velocity);
    EXPECT_EQ(back.initialYawDeg, spec.initialYawDeg);
    EXPECT_EQ(back.syncGranularity, spec.syncGranularity);
    EXPECT_EQ(back.mode, spec.mode);
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.maxSimSeconds, spec.maxSimSeconds);
    EXPECT_EQ(back.degradedMode, spec.degradedMode);
    EXPECT_EQ(back.faults.enabled, spec.faults.enabled);
    EXPECT_EQ(back.faults.dropProb, spec.faults.dropProb);
    EXPECT_EQ(back.faults.corruptProb, spec.faults.corruptProb);
    EXPECT_EQ(back.faults.reorderProb, spec.faults.reorderProb);
    EXPECT_EQ(back.faults.delayProb, spec.faults.delayProb);
    EXPECT_EQ(back.faults.delayOpsMin, spec.faults.delayOpsMin);
    EXPECT_EQ(back.faults.delayOpsMax, spec.faults.delayOpsMax);
    EXPECT_EQ(back.faults.protectSyncPackets,
              spec.faults.protectSyncPackets);
    EXPECT_EQ(back.faults.seed, spec.faults.seed);
}

TEST(ServeProto, ReplyCodecsRoundTrip)
{
    SubmitOkReply ok{42, 7};
    SubmitOkReply ok2 = decodeSubmitOk(encodeSubmitOk(ok));
    EXPECT_EQ(ok2.jobId, 42u);
    EXPECT_EQ(ok2.queuePosition, 7u);

    RejectedReply rej{RejectReason::QueueFull, "queue depth reached"};
    RejectedReply rej2 = decodeRejected(encodeRejected(rej));
    EXPECT_EQ(rej2.reason, RejectReason::QueueFull);
    EXPECT_EQ(rej2.detail, rej.detail);

    StatusInfo st;
    st.jobId = 9;
    st.state = JobState::Running;
    st.queuePosition = 3;
    st.queueWaitMs = 12.5;
    st.serviceMs = 99.25;
    StatusInfo st2 = decodeStatusReply(encodeStatusReply(st));
    EXPECT_EQ(st2.jobId, 9u);
    EXPECT_EQ(st2.state, JobState::Running);
    EXPECT_EQ(st2.queuePosition, 3u);
    EXPECT_EQ(st2.queueWaitMs, 12.5);
    EXPECT_EQ(st2.serviceMs, 99.25);

    CancelInfo c{11, CancelOutcome::TooLate};
    CancelInfo c2 = decodeCancelReply(encodeCancelReply(c));
    EXPECT_EQ(c2.jobId, 11u);
    EXPECT_EQ(c2.outcome, CancelOutcome::TooLate);

    ServerStatsData s;
    s.submitted = 100;
    s.accepted = 90;
    s.completed = 80;
    s.failed = 5;
    s.cancelled = 5;
    s.rejectedQueueFull = 7;
    s.rejectedClientCap = 2;
    s.rejectedShutdown = 1;
    s.malformed = 3;
    s.queued = 4;
    s.running = 2;
    s.workers = 8;
    s.queueCapacity = 16;
    s.connectionsAccepted = 12;
    s.connectionsOpen = 6;
    s.totalQueueWaitMs = 1234.5;
    s.maxQueueWaitMs = 250.25;
    s.totalServiceMs = 9876.5;
    s.maxServiceMs = 500.125;
    s.streamsStarted = 17;
    s.streamsCompleted = 15;
    s.streamedChunks = 1234;
    s.streamedPayloadBytes = 987654321;
    s.progressEvents = 4321;
    s.retainedResultBytes = 55555;
    s.activeStreams = 2;
    s.dedupedSubmits = 9;
    s.journalReplayedJobs = 3;
    s.warmRestoredJobs = 2;
    s.resultsAcked = 77;
    s.streamsResumed = 6;
    ServerStatsData s2 = decodeStatsReply(encodeStatsReply(s));
    EXPECT_EQ(s2.submitted, s.submitted);
    EXPECT_EQ(s2.rejectedQueueFull, s.rejectedQueueFull);
    EXPECT_EQ(s2.rejectedClientCap, s.rejectedClientCap);
    EXPECT_EQ(s2.malformed, s.malformed);
    EXPECT_EQ(s2.queued, s.queued);
    EXPECT_EQ(s2.connectionsAccepted, s.connectionsAccepted);
    EXPECT_EQ(s2.totalQueueWaitMs, s.totalQueueWaitMs);
    EXPECT_EQ(s2.maxServiceMs, s.maxServiceMs);
    EXPECT_EQ(s2.streamsStarted, s.streamsStarted);
    EXPECT_EQ(s2.streamsCompleted, s.streamsCompleted);
    EXPECT_EQ(s2.streamedChunks, s.streamedChunks);
    EXPECT_EQ(s2.streamedPayloadBytes, s.streamedPayloadBytes);
    EXPECT_EQ(s2.progressEvents, s.progressEvents);
    EXPECT_EQ(s2.retainedResultBytes, s.retainedResultBytes);
    EXPECT_EQ(s2.activeStreams, s.activeStreams);
    EXPECT_EQ(s2.dedupedSubmits, s.dedupedSubmits);
    EXPECT_EQ(s2.journalReplayedJobs, s.journalReplayedJobs);
    EXPECT_EQ(s2.warmRestoredJobs, s.warmRestoredJobs);
    EXPECT_EQ(s2.resultsAcked, s.resultsAcked);
    EXPECT_EQ(s2.streamsResumed, s.streamsResumed);

    EXPECT_EQ(decodeQueryStatus(encodeQueryStatus(77)), 77u);
    FetchRequest fr = decodeFetchResult(encodeFetchResult(78));
    EXPECT_EQ(fr.jobId, 78u);
    EXPECT_EQ(fr.resumeOffset, 0u);
    fr = decodeFetchResult(encodeFetchResult(80, 0x1234567890abcdefULL));
    EXPECT_EQ(fr.jobId, 80u);
    EXPECT_EQ(fr.resumeOffset, 0x1234567890abcdefULL);
    // Protocol 5: job id + resume offset, no encoding byte.
    EXPECT_EQ(encodeFetchResult(80).payload.size(), 16u);

    // v3 additions: the idempotency key rides the submit payload, and
    // AckResult/AckReply close the fetch-verify-release handshake.
    core::MissionSpec keyedSpec;
    keyedSpec.seed = 99;
    SubmitRequest sr = decodeSubmitRequest(
        encodeSubmitMission(keyedSpec, "retry-key-1"));
    EXPECT_EQ(sr.spec.seed, 99u);
    EXPECT_EQ(sr.idempotencyKey, "retry-key-1");
    AckRequest ar =
        decodeAckResult(encodeAckResult(55, 0xfeedfacecafef00dULL));
    EXPECT_EQ(ar.jobId, 55u);
    EXPECT_EQ(ar.payloadHash, 0xfeedfacecafef00dULL);
    AckInfo ai{55, AckOutcome::HashMismatch};
    AckInfo ai2 = decodeAckReply(encodeAckReply(ai));
    EXPECT_EQ(ai2.jobId, 55u);
    EXPECT_EQ(ai2.outcome, AckOutcome::HashMismatch);
    EXPECT_EQ(decodeCancelMission(encodeCancelMission(79)), 79u);
    EXPECT_TRUE(decodeShutdown(encodeShutdown(true)));
    EXPECT_FALSE(decodeShutdown(encodeShutdown(false)));
    EXPECT_EQ(decodeErrorReply(encodeErrorReply("boom")), "boom");
}

namespace {

/** A scalar-only ServedResult with every field populated. */
ServedResult
denseScalarResult()
{
    ServedResult r;
    r.status = uint8_t(core::MissionStatus::Degraded);
    r.missionTime = 9.99;
    r.collisions = 3;
    r.avgSpeed = 2.5;
    r.maxSpeed = 3.75;
    r.distanceTravelled = 25.0;
    r.inferences = 500;
    r.avgInferenceLatency = 0.015;
    r.energyJoules = 1.25;
    r.avgPowerWatts = 0.125;
    r.simulatedCycles = 10'000'000'000ULL;
    r.trajectorySamples = 2;
    r.degradedIntervals = 1;
    r.queueWaitMs = 5.5;
    r.serviceMs = 300.25;
    return r;
}

/** Plausible-physics random samples (magnitudes the canonical-f32
 *  quantization is specified for: no f32 overflow or subnormals). */
std::vector<core::TrajectorySample>
randomSamples(Rng &rng, size_t n)
{
    std::vector<core::TrajectorySample> v(n);
    for (size_t i = 0; i < n; ++i) {
        core::TrajectorySample &s = v[i];
        s.time = double(i) * 0.01 + rng.uniform(0.0, 0.001);
        s.position = {rng.uniform(-500.0, 500.0),
                      rng.uniform(-500.0, 500.0),
                      rng.uniform(-50.0, 50.0)};
        s.yaw = rng.uniform(-3.2, 3.2);
        s.speed = rng.uniform(0.0, 30.0);
        s.lateralOffset = rng.uniform(-5.0, 5.0);
        s.collisions = rng.uniformInt(100);
        s.cmdForward = rng.uniform(-1.0, 1.0);
        s.cmdLateral = rng.uniform(-1.0, 1.0);
        s.cmdYawRate = rng.uniform(-2.0, 2.0);
        if (i % 7 == 0) {
            s.speed = 0.0; // exact zeros must survive quantization
            s.cmdLateral = 0.0;
        }
    }
    return v;
}

/** Slice @p payload into ResultChunk frames closed by @p end (whose
 *  chunkCount, payloadBytes and payloadHash are filled in here),
 *  exactly as the server's stream pump does. */
std::vector<Message>
sliceStream(const std::vector<uint8_t> &payload, size_t chunk_bytes,
            ResultEndData end)
{
    std::vector<Message> frames;
    uint32_t seq = 0;
    for (size_t off = 0; off < payload.size(); off += chunk_bytes) {
        ResultChunkData c;
        c.jobId = end.jobId;
        c.seq = seq++;
        size_t n = std::min(chunk_bytes, payload.size() - off);
        c.bytes.assign(payload.begin() + std::ptrdiff_t(off),
                       payload.begin() + std::ptrdiff_t(off + n));
        frames.push_back(encodeResultChunk(c));
    }
    end.chunkCount = seq;
    end.payloadBytes = payload.size();
    end.payloadHash = fnv1a(payload.data(), payload.size());
    frames.push_back(encodeResultEnd(end));
    return frames;
}

/** The full result stream of @p samples as binary records. */
std::vector<Message>
buildStream(uint64_t job_id,
            const std::vector<core::TrajectorySample> &samples,
            size_t chunk_bytes, const ServedResult &scalars,
            JobState state = JobState::Done)
{
    ResultEndData end;
    end.jobId = job_id;
    end.state = state;
    end.trajectoryHash = fnv1a(core::trajectoryCsvString(samples));
    end.result = scalars;
    return sliceStream(encodeTrajectoryBinary(samples), chunk_bytes,
                       end);
}

} // namespace

TEST(ServeProto, ResultChunkAndEndRoundTrip)
{
    ResultChunkData c;
    c.jobId = 21;
    c.seq = 7;
    c.bytes = {1, 2, 3, 250, 0, 99};
    ResultChunkData c2 = decodeResultChunk(encodeResultChunk(c));
    EXPECT_EQ(c2.jobId, 21u);
    EXPECT_EQ(c2.seq, 7u);
    EXPECT_EQ(c2.bytes, c.bytes);

    ResultEndData e;
    e.jobId = 21;
    e.state = JobState::Failed;
    e.chunkCount = 13;
    e.payloadBytes = 123456789;
    e.trajectoryHash = 0xabcdef0123456789ULL;
    e.payloadHash = 0x1122334455667788ULL;
    e.result = denseScalarResult();
    e.result.failureReason = "mission threw";
    ResultEndData e2 = decodeResultEnd(encodeResultEnd(e));
    EXPECT_EQ(e2.jobId, 21u);
    EXPECT_EQ(e2.state, JobState::Failed);
    EXPECT_EQ(e2.chunkCount, 13u);
    EXPECT_EQ(e2.payloadBytes, 123456789u);
    EXPECT_EQ(e2.trajectoryHash, e.trajectoryHash);
    EXPECT_EQ(e2.payloadHash, e.payloadHash);
    EXPECT_EQ(e2.result.failureReason, "mission threw");
    EXPECT_EQ(e2.result.status, e.result.status);
    EXPECT_EQ(e2.result.collisions, e.result.collisions);
    EXPECT_EQ(e2.result.simulatedCycles, e.result.simulatedCycles);
    EXPECT_EQ(e2.result.queueWaitMs, e.result.queueWaitMs);
    EXPECT_EQ(e2.result.serviceMs, e.result.serviceMs);
    // The decoder surfaces the verification hash on the result too.
    EXPECT_EQ(e2.result.trajectoryHash, e.trajectoryHash);

    // Non-terminal state bytes are rejected, not trusted.
    Message m = encodeResultEnd(e);
    m.payload[8] = uint8_t(JobState::Running);
    EXPECT_THROW(decodeResultEnd(m), ProtocolError);

    // An over-long failureReason is clipped to the string bound its
    // decoder enforces, so the stream (and the journal) stays readable.
    e.result.failureReason = std::string(5000, 'x');
    EXPECT_EQ(decodeResultEnd(encodeResultEnd(e)).result.failureReason,
              std::string(4096, 'x'));

    ProgressEvent p;
    p.jobId = 44;
    p.simTimeSeconds = 1.25;
    p.maxSimSeconds = 10.0;
    p.samples = 125;
    ProgressEvent p2 = decodeProgress(encodeProgress(p));
    EXPECT_EQ(p2.jobId, 44u);
    EXPECT_EQ(p2.simTimeSeconds, 1.25);
    EXPECT_EQ(p2.maxSimSeconds, 10.0);
    EXPECT_EQ(p2.samples, 125u);
}

namespace {

/** A record's canonical f32 of @p v: the value its CSV cell prints
 *  (formatCsvCell's printed value), narrowed. */
float
canonicalF32(double v)
{
    char cell[kCsvCellMaxChars];
    double printed = 0.0;
    formatCsvCell(cell, v, &printed);
    return float(printed);
}

} // namespace

TEST(ServeProto, CanonicalF32PreservesCsvCells)
{
    // The binary encoding's whole correctness argument: quantizing a
    // double to its canonical f32 must not change how the value
    // prints at the CSV's 6-significant-digit precision. (An f32 is
    // within 2^-24 relative of the printed decimal, far inside the
    // 5e-7 half-step of the 6-digit grid, so the nearest 6-digit
    // decimal to the f32 is the original cell.)
    Rng rng(0xf32f32);
    for (int i = 0; i < 20000; ++i) {
        double mag = std::pow(10.0, rng.uniform(-6.0, 9.0));
        double v = rng.uniform(-1.0, 1.0) * mag;
        if (i % 13 == 0)
            v = 0.0;
        std::ostringstream a;
        a << v;
        std::ostringstream b;
        b << double(canonicalF32(v));
        ASSERT_EQ(a.str(), b.str()) << "value " << v;
    }
}

TEST(ServeProto, CanonicalF32MatchesPrintfStrtod)
{
    // The canonical f32 (the printed value formatCsvCell yields) must
    // be the very f32 the printf("%.6g") + strtod form gives, bit for
    // bit: binary records and their payload hashes are built from it.
    auto check = [](double v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        float want = float(std::strtod(buf, nullptr));
        float got = canonicalF32(v);
        uint32_t want_bits = 0, got_bits = 0;
        std::memcpy(&want_bits, &want, sizeof(want));
        std::memcpy(&got_bits, &got, sizeof(got));
        ASSERT_EQ(got_bits, want_bits) << "value " << v << " (" << buf
                                       << ")";
    };
    for (double v : test::formatEdgeCases())
        check(v);
    Rng rng(0xcf32);
    for (int i = 0; i < 100000; ++i)
        check(test::formatProbe(rng, i));
}

TEST(ServeProto, BinaryTrajectoryCodecPreservesCsvBytes)
{
    Rng rng(0xb17a57);
    for (int round = 0; round < 20; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        std::vector<core::TrajectorySample> samples =
            randomSamples(rng, rng.uniformInt(300));
        std::vector<uint8_t> wire = encodeTrajectoryBinary(samples);
        ASSERT_EQ(wire.size(),
                  samples.size() * kTrajectoryBinaryRecordBytes);
        std::vector<core::TrajectorySample> back =
            decodeTrajectoryBinary(wire.data(), wire.size());
        ASSERT_EQ(back.size(), samples.size());
        // The decoded samples re-render to the exact CSV bytes of the
        // originals — the invariant the streamed hash check rests on.
        EXPECT_EQ(core::trajectoryCsvString(back),
                  core::trajectoryCsvString(samples));
        for (size_t i = 0; i < back.size(); ++i)
            ASSERT_EQ(back[i].collisions, samples[i].collisions);
    }

    // Truncated / misaligned binary payloads are rejected cleanly.
    std::vector<uint8_t> wire =
        encodeTrajectoryBinary(randomSamples(rng, 3));
    EXPECT_THROW(decodeTrajectoryBinary(wire.data(), wire.size() - 1),
                 ProtocolError);
    // A collision count that cannot ride the u32 record field throws
    // at encode time instead of truncating silently.
    std::vector<core::TrajectorySample> overflow = randomSamples(rng, 1);
    overflow[0].collisions = uint64_t(UINT32_MAX) + 1;
    EXPECT_THROW(encodeTrajectoryBinary(overflow), ProtocolError);
}

TEST(ServeProto, MarshalledRecordsArePinned)
{
    // test_golden's 0.2 s, 20 k-cycle-sync row of golden A, the shape
    // of a perfbench serve_long request: 10,000 samples, many of them
    // zero command cells and tiny offsets. Both hashes a served result
    // carries are pinned: the canonical CSV's (the golden) and the
    // record bytes' (what a fetch streams and an ack must match).
    core::MissionSpec spec = canonicalSpec("A", 0.2);
    spec.syncGranularity = 20000;
    ServedResult s = marshalResult(core::runMission(spec));
    EXPECT_EQ(s.trajectorySamples, 10000u);
    EXPECT_EQ(s.trajectoryHash, 0xdd1cdc85dbc18acfULL);
    EXPECT_EQ(s.trajectoryRecords.size(),
              10000 * kTrajectoryBinaryRecordBytes);
    EXPECT_EQ(s.payloadHash, 0xf9db173143998d4eULL);
}

TEST(ServeProto, EncoderInPiecesEqualsOneShot)
{
    // The trajectory encoder fed in runs of any length, and rewound to
    // any mark it passed, gives the one-shot records and both hashes:
    // the payload hash it chains in the same loop equals FNV-1a over
    // the records, and the CSV hash equals the rendered CSV's.
    Rng rng(0x91ec0de);
    for (int round = 0; round < 20; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        std::vector<core::TrajectorySample> samples =
            randomSamples(rng, rng.uniformInt(400));
        uint64_t csv = 0;
        std::vector<uint8_t> whole = encodeTrajectoryBinary(samples, &csv);
        EXPECT_EQ(csv, fnv1a(core::trajectoryCsvString(samples)));

        TrajectoryEncoder e;
        std::vector<TrajectoryEncoder::Mark> marks{e.mark()};
        size_t at = 0;
        while (at < samples.size()) {
            size_t n = std::min(samples.size() - at,
                                size_t(rng.uniformInt(60)));
            e.append(samples.data() + at, n);
            at += n;
            marks.push_back(e.mark());
        }
        // Rewind to a random mark and encode the rest again.
        const TrajectoryEncoder::Mark m =
            marks[rng.uniformInt(marks.size())];
        e.rewind(m);
        size_t from = m.bytes / kTrajectoryBinaryRecordBytes;
        ASSERT_EQ(e.samples(), from);
        e.append(samples.data() + from, samples.size() - from);

        EXPECT_EQ(e.csvHash(), csv);
        EXPECT_EQ(e.payloadHash(), fnv1a(whole.data(), whole.size()));
        EXPECT_EQ(e.takeRecords(), whole);
        EXPECT_EQ(e.samples(), 0u);
    }
}

TEST(ServeProto, AssemblerReassemblesMultiChunkStream)
{
    // Records sliced at an awkward chunk size (not a multiple of the
    // record size): the assembler verifies the record bytes, decodes
    // them, and rendering the samples reproduces the canonical CSV
    // the stream's trajectoryHash names — no CSV inside the fetch.
    std::vector<core::TrajectorySample> samples;
    {
        Rng rng(0x5eed);
        samples = randomSamples(rng, 200);
    }
    std::string csv = core::trajectoryCsvString(samples);
    std::vector<uint8_t> records = encodeTrajectoryBinary(samples);
    ServedResult scalars = denseScalarResult();
    scalars.failureReason.clear();
    std::vector<Message> frames = buildStream(9, samples, 777, scalars);
    ASSERT_GT(frames.size(), 3u);

    ResultStreamAssembler assembler(9);
    for (size_t i = 0; i < frames.size(); ++i) {
        EXPECT_EQ(assembler.feed(frames[i]), i + 1 == frames.size());
        EXPECT_EQ(assembler.complete(), i + 1 == frames.size());
    }
    ResultData d = assembler.takeResult();
    EXPECT_EQ(d.jobId, 9u);
    EXPECT_EQ(d.state, JobState::Done);
    EXPECT_EQ(d.result.collisions, scalars.collisions);
    EXPECT_EQ(d.payloadHash, fnv1a(records.data(), records.size()));
    EXPECT_EQ(d.result.trajectoryHash, fnv1a(csv));
    EXPECT_EQ(core::trajectoryCsvString(d.result.trajectory), csv);

    ResultEndData end = decodeResultEnd(frames.back());
    // A corrupted record byte is caught by the payload hash before
    // any decode runs.
    {
        std::vector<uint8_t> evil = records;
        evil[evil.size() / 2] ^= 0x40;
        std::vector<Message> evilFrames = sliceStream(evil, 777, end);
        evilFrames.back() = frames.back(); // the good bytes' hash
        ResultStreamAssembler a(9);
        EXPECT_THROW(
            {
                for (const Message &f : evilFrames)
                    a.feed(f);
            },
            ProtocolError);
    }
    // A payload that is not a whole number of records is refused even
    // when its hash is consistent.
    {
        std::vector<uint8_t> ragged(records.begin(), records.end() - 1);
        std::vector<Message> raggedFrames = sliceStream(ragged, 777, end);
        ResultStreamAssembler a(9);
        EXPECT_THROW(
            {
                for (const Message &f : raggedFrames)
                    a.feed(f);
            },
            ProtocolError);
    }
}

TEST(ServeProto, AssemblerResumesAfterRewind)
{
    // The client half of reconnect-resume: after the connection dies
    // mid-stream, rewindForResume() keeps the payload prefix and
    // expects the resumed stream's chunk numbering to restart at 0 —
    // exactly how the server numbers a stream resumed at
    // payloadBytes(). The reassembled records must equal the
    // uninterrupted stream's, verified by the same full-payload hash.
    std::vector<core::TrajectorySample> samples;
    {
        Rng rng(0x7e5e7);
        samples = randomSamples(rng, 150);
    }
    std::vector<uint8_t> records = encodeTrajectoryBinary(samples);
    ResultEndData end;
    end.jobId = 12;
    end.result = denseScalarResult();
    end.result.failureReason.clear();
    // Server chunks are whole records, so every boundary is a valid
    // resume offset.
    const size_t chunk = 12 * kTrajectoryBinaryRecordBytes;
    std::vector<Message> first = sliceStream(records, chunk, end);
    ASSERT_GT(first.size(), 5u);

    ResultStreamAssembler a(12);
    // Feed a few chunks, then "lose the connection".
    for (size_t i = 0; i < 3; ++i)
        a.feed(first[i]);
    size_t resumeAt = a.payloadBytes();
    ASSERT_EQ(resumeAt, 3u * chunk);
    a.rewindForResume();
    EXPECT_EQ(a.payloadBytes(), resumeAt); // prefix kept

    // The resumed stream: the byte suffix sliced fresh, seq from 0,
    // chunkCount covering only this stream's chunks, but payloadBytes
    // and the hash always describing the TOTAL payload.
    std::vector<uint8_t> rest(records.begin() + std::ptrdiff_t(resumeAt),
                              records.end());
    std::vector<Message> resumed = sliceStream(rest, chunk, end);
    ResultEndData rend = decodeResultEnd(resumed.back());
    rend.payloadBytes = records.size();
    rend.payloadHash = fnv1a(records.data(), records.size());
    resumed.back() = encodeResultEnd(rend);
    for (const Message &f : resumed)
        a.feed(f);
    ASSERT_TRUE(a.complete());
    EXPECT_EQ(core::trajectoryCsvString(a.takeResult().result.trajectory),
              core::trajectoryCsvString(samples));
}

TEST(ServeProto, AssemblerRejectsProtocolViolations)
{
    std::vector<core::TrajectorySample> samples;
    {
        Rng rng(0xbad5);
        samples = randomSamples(rng, 3);
    }
    ServedResult scalars;
    auto frames = [&] { return buildStream(5, samples, 8, scalars); };

    { // chunk for the wrong job
        ResultStreamAssembler a(5);
        Message alien = encodeResultChunk({6, 0, {1, 2, 3}});
        EXPECT_THROW(a.feed(alien), ProtocolError);
    }
    { // out-of-order sequence number
        ResultStreamAssembler a(5);
        std::vector<Message> fs = frames();
        ASSERT_TRUE(a.feed(fs[0]) == false);
        EXPECT_THROW(a.feed(fs[0]), ProtocolError); // seq 0 repeated
    }
    { // frames after ResultEnd
        ResultStreamAssembler a(5);
        for (const Message &f : frames())
            a.feed(f);
        ASSERT_TRUE(a.complete());
        EXPECT_THROW(a.feed(encodeResultChunk({5, 99, {1}})),
                     ProtocolError);
    }
    { // truncated: end frame claims more chunks than were fed
        ResultStreamAssembler a(5);
        std::vector<Message> fs = frames();
        a.feed(fs[0]);
        EXPECT_THROW(a.feed(fs.back()), ProtocolError);
        EXPECT_FALSE(a.complete());
    }
    { // corrupted verification hash (the canonical-CSV hash is the
      // caller's check: render the samples and compare)
        ResultStreamAssembler a(5);
        std::vector<Message> fs = frames();
        ResultEndData end = decodeResultEnd(fs.back());
        end.payloadHash ^= 1;
        fs.back() = encodeResultEnd(end);
        for (size_t i = 0; i + 1 < fs.size(); ++i)
            a.feed(fs[i]);
        EXPECT_THROW(a.feed(fs.back()), ProtocolError);
    }
    { // a Progress frame must never reach the assembler
        ResultStreamAssembler a(5);
        EXPECT_THROW(a.feed(encodeProgress({5, 0.5, 1.0, 10})),
                     ProtocolError);
    }
    { // truncated ResultChunk and ResultEnd payloads: the byte
      // underrun is a ProtocolError like every other stream violation
        std::vector<Message> fs = frames();
        Message chunk = fs[0];
        chunk.payload.resize(10); // inside the seq field
        ResultStreamAssembler a(5);
        EXPECT_THROW(a.feed(chunk), ProtocolError);
        Message end = fs.back();
        end.payload.resize(end.payload.size() - 1);
        ResultStreamAssembler b(5);
        for (size_t i = 0; i + 1 < fs.size(); ++i)
            b.feed(fs[i]);
        EXPECT_THROW(b.feed(end), ProtocolError);
    }
    { // per-stream memory bound: oversized payload rejected
        ResultStreamAssembler a(5, 16);
        std::vector<Message> fs = frames();
        a.feed(fs[0]);
        a.feed(fs[1]);
        EXPECT_THROW(a.feed(fs[2]), ProtocolError);
    }
}

TEST(ServeProto, StreamFuzzReassemblyNeverCrashes)
{
    // Seeded adversarial streams: random chunk sizes, random framing
    // splits, and per-seed mutations (truncation, frames after end,
    // interleaved Progress, hash corruption). Every outcome must be
    // either a verified result or a clean ProtocolError — no crash,
    // no hang, no silently wrong bytes (ASan/UBSan presets make the
    // "no corruption" half observable).
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 2654435761u);

        std::vector<core::TrajectorySample> samples =
            randomSamples(rng, rng.uniformInt(120));
        std::string csv = core::trajectoryCsvString(samples);
        uint64_t jobId = 1 + rng.uniformInt(1000);
        size_t chunkBytes = 1 + rng.uniformInt(
                                    samples.size() *
                                        kTrajectoryBinaryRecordBytes +
                                    64);
        std::vector<Message> frames =
            buildStream(jobId, samples, chunkBytes, ServedResult{});

        // Interleave Progress frames (legal anywhere in the byte
        // stream; the dispatch layer keeps them out of the
        // assembler).
        std::vector<Message> stream;
        for (const Message &f : frames) {
            if (rng.uniformInt(3) == 0)
                stream.push_back(encodeProgress(
                    {jobId + 1, rng.uniform(0.0, 5.0), 5.0,
                     uint64_t(rng.uniformInt(1000))}));
            stream.push_back(f);
        }

        int mutation = int(seed % 4);
        bool expectOk = mutation == 0;
        if (mutation == 1 && stream.size() > 1) {
            // Truncate: drop a suffix (stream never completes).
            stream.resize(1 + rng.uniformInt(stream.size() - 1));
        } else if (mutation == 2) {
            // Frames after ResultEnd.
            stream.push_back(
                encodeResultChunk({jobId, 0, {0x41, 0x42}}));
        } else if (mutation == 3) {
            // Corrupt one frame: flip the end-frame payload hash.
            ResultEndData end = decodeResultEnd(stream.back());
            end.payloadHash ^= (1ULL << rng.uniformInt(64));
            stream.back() = encodeResultEnd(end);
        }

        // Serialize everything and push through a MessageBuffer in
        // random fragments — chunk boundaries never align with frame
        // boundaries.
        std::vector<uint8_t> wire;
        for (const Message &m : stream)
            serializeMessage(m, wire);
        MessageBuffer mb;
        ResultStreamAssembler assembler(jobId);
        bool violated = false;
        size_t pos = 0;
        while (pos < wire.size()) {
            size_t n = 1 + rng.uniformInt(4096);
            n = std::min(n, wire.size() - pos);
            mb.append(wire.data() + pos, n);
            pos += n;
            for (;;) {
                Message m;
                std::string err;
                FrameStatus st = mb.next(m, &err);
                if (st != FrameStatus::Ok)
                    break;
                if (m.type == MsgType::Progress)
                    continue; // dispatched, never assembled
                if (violated || assembler.complete()) {
                    // A real client dropped the connection already;
                    // later frames go unread.
                    continue;
                }
                try {
                    assembler.feed(m);
                } catch (const ProtocolError &) {
                    violated = true;
                }
            }
        }
        if (expectOk) {
            ASSERT_FALSE(violated);
            ASSERT_TRUE(assembler.complete());
            EXPECT_EQ(core::trajectoryCsvString(
                          assembler.takeResult().result.trajectory),
                      csv);
        } else if (mutation == 1) {
            // Truncation drops the ResultEnd: the stream must be
            // visibly incomplete, never a silently short result.
            EXPECT_FALSE(assembler.complete());
        } else {
            // Mutations 2 and 3 must be detected, not absorbed:
            // either a ProtocolError fired or (mutation 2) the
            // stream completed validly before the trailing garbage,
            // which the connection-level dispatch would then reject.
            EXPECT_TRUE(violated || assembler.complete());
        }
    }
}

TEST(ServeProto, MalformedPayloadsThrowNotCrash)
{
    // Truncated SubmitMission payload.
    Message m = encodeSubmitMission(core::MissionSpec{});
    m.payload.resize(m.payload.size() / 2);
    EXPECT_THROW(decodeSubmitMission(m), ProtocolError);

    // Wrong type for a decoder.
    EXPECT_THROW(decodeQueryStatus(encodeServerStats()),
                 ProtocolError);

    // Out-of-range enum byte.
    Message rej = encodeRejected({RejectReason::QueueFull, ""});
    rej.payload[0] = 0x7f;
    EXPECT_THROW(decodeRejected(rej), ProtocolError);

    // Oversized string length field.
    Message err = encodeErrorReply("x");
    err.payload[0] = 0xff;
    err.payload[1] = 0xff;
    err.payload[2] = 0xff;
    err.payload[3] = 0x7f;
    EXPECT_THROW(decodeErrorReply(err), ProtocolError);

    // Seeded damage to the stream-control payloads: a truncated one
    // always throws ProtocolError (every field is read, and a byte
    // underrun is a ProtocolError too), a bit-flipped one either
    // decodes or throws ProtocolError — never a crash or an over-read
    // (the ASan preset makes over-reads fatal).
    ResultEndData end;
    end.jobId = 7;
    end.chunkCount = 3;
    end.payloadBytes = 3 * kTrajectoryBinaryRecordBytes;
    end.trajectoryHash = 0x0123456789abcdefULL;
    end.payloadHash = 0xfedcba9876543210ULL;
    end.result = denseScalarResult();
    end.result.failureReason = "simulated-time limit reached";
    const Message valid[] = {
        encodeFetchResult(7, 2 * kTrajectoryBinaryRecordBytes),
        encodeResultEnd(end), encodeAckResult(7, end.payloadHash)};
    auto decode = [](const Message &d) {
        switch (d.type) {
          case MsgType::FetchResult:
            decodeFetchResult(d);
            break;
          case MsgType::ResultEnd:
            decodeResultEnd(d);
            break;
          default:
            decodeAckResult(d);
            break;
        }
    };
    for (uint64_t seed = 1; seed <= 600; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 0x9e3779b97f4a7c15ULL);
        Message d = valid[seed % 3];
        if (rng.uniformInt(2) == 0) {
            d.payload.resize(rng.uniformInt(d.payload.size()));
            EXPECT_THROW(decode(d), ProtocolError);
        } else {
            d.payload[rng.uniformInt(d.payload.size())] ^=
                uint8_t(1u << rng.uniformInt(8));
            try {
                decode(d);
            } catch (const ProtocolError &) {
            }
        }
    }
}

TEST(ServeProto, SeededDamageToEveryDecoderThrowsOnlyProtocolError)
{
    // One valid message per decoder in serve/proto.hh, then 300 seeded
    // truncations, bit flips, trailing bytes and retyped headers of
    // each. A damaged payload either decodes or throws ProtocolError:
    // never another exception, a crash or an over-read (the ASan
    // preset runs this test too).
    core::MissionSpec spec;
    spec.world = "s-shape";
    spec.vehicle = "rover";
    spec.socName = "B";
    spec.velocity = 4.5;
    spec.initialYawDeg = -12.0;
    spec.seed = 1234;
    spec.maxSimSeconds = 7.5;
    spec.degradedMode = true;
    StatusInfo status;
    status.jobId = 9;
    status.state = JobState::Running;
    status.queuePosition = 3;
    status.queueWaitMs = 12.5;
    status.serviceMs = 99.25;
    ResultChunkData chunk;
    chunk.jobId = 21;
    chunk.seq = 7;
    chunk.bytes = {1, 2, 3, 250, 0, 99};
    ResultEndData end;
    end.jobId = 21;
    end.state = JobState::Failed;
    end.chunkCount = 13;
    end.payloadBytes = 13 * kTrajectoryBinaryRecordBytes;
    end.trajectoryHash = 0xabcdef0123456789ULL;
    end.payloadHash = 0x1122334455667788ULL;
    end.result = denseScalarResult();
    end.result.failureReason = "mission threw";
    ServerStatsData stats;
    stats.submitted = 100;
    stats.totalQueueWaitMs = 1234.5;
    stats.streamsResumed = 6;

    struct Case
    {
        const char *name;
        Message valid;
        void (*decode)(const Message &);
    };
    const Case cases[] = {
        {"SubmitRequest", encodeSubmitMission(spec, "retry-key-1"),
         [](const Message &m) { decodeSubmitRequest(m); }},
        {"SubmitMission", encodeSubmitMission(spec),
         [](const Message &m) { decodeSubmitMission(m); }},
        {"QueryStatus", encodeQueryStatus(77),
         [](const Message &m) { decodeQueryStatus(m); }},
        {"FetchResult", encodeFetchResult(80, 2 * kTrajectoryBinaryRecordBytes),
         [](const Message &m) { decodeFetchResult(m); }},
        {"AckResult", encodeAckResult(55, 0xfeedfacecafef00dULL),
         [](const Message &m) { decodeAckResult(m); }},
        {"CancelMission", encodeCancelMission(79),
         [](const Message &m) { decodeCancelMission(m); }},
        {"Shutdown", encodeShutdown(true),
         [](const Message &m) { decodeShutdown(m); }},
        {"SubmitOk", encodeSubmitOk({42, 7}),
         [](const Message &m) { decodeSubmitOk(m); }},
        {"Rejected",
         encodeRejected({RejectReason::QueueFull, "queue depth reached"}),
         [](const Message &m) { decodeRejected(m); }},
        {"StatusReply", encodeStatusReply(status),
         [](const Message &m) { decodeStatusReply(m); }},
        {"ResultChunk", encodeResultChunk(chunk),
         [](const Message &m) { decodeResultChunk(m); }},
        {"ResultEnd", encodeResultEnd(end),
         [](const Message &m) { decodeResultEnd(m); }},
        {"Progress", encodeProgress({21, 1.5, 10.0, 150}),
         [](const Message &m) { decodeProgress(m); }},
        {"CancelReply", encodeCancelReply({11, CancelOutcome::TooLate}),
         [](const Message &m) { decodeCancelReply(m); }},
        {"AckReply", encodeAckReply({55, AckOutcome::HashMismatch}),
         [](const Message &m) { decodeAckReply(m); }},
        {"StatsReply", encodeStatsReply(stats),
         [](const Message &m) { decodeStatsReply(m); }},
        {"ErrorReply", encodeErrorReply("boom"),
         [](const Message &m) { decodeErrorReply(m); }},
    };
    // The binary trajectory records travel inside ResultChunk bytes.
    Rng sampleRng(0x5a);
    Message records;
    records.payload = encodeTrajectoryBinary(randomSamples(sampleRng, 3));

    auto expectOnlyProtocolError = [](const Case &c, const Message &m) {
        try {
            c.decode(m);
        } catch (const ProtocolError &) {
        } catch (const std::exception &e) {
            ADD_FAILURE() << c.name << " threw a non-ProtocolError: "
                          << e.what();
        }
    };
    const Case recordCase{"TrajectoryBinary", records,
                          [](const Message &m) {
                              decodeTrajectoryBinary(m.payload.data(),
                                                     m.payload.size());
                          }};
    std::vector<const Case *> all;
    for (const Case &c : cases)
        all.push_back(&c);
    all.push_back(&recordCase);

    for (const Case *c : all) {
        SCOPED_TRACE(c->name);
        // Every valid message decodes.
        EXPECT_NO_THROW(c->decode(c->valid));
        for (uint64_t seed = 1; seed <= 300; ++seed) {
            SCOPED_TRACE("seed " + std::to_string(seed));
            Rng rng(seed * 0x9e3779b97f4a7c15ULL + c->valid.payload.size());
            Message d = c->valid;
            switch (rng.uniformInt(4)) {
              case 0:
                d.payload.resize(rng.uniformInt(d.payload.size() + 1));
                break;
              case 1:
                for (uint64_t n = 1 + rng.uniformInt(3); n > 0; --n) {
                    if (d.payload.empty())
                        break;
                    d.payload[rng.uniformInt(d.payload.size())] ^=
                        uint8_t(1u << rng.uniformInt(8));
                }
                break;
              case 2:
                for (uint64_t n = 1 + rng.uniformInt(16); n > 0; --n)
                    d.payload.push_back(uint8_t(rng.uniformInt(256)));
                break;
              default:
                d.type = MsgType(uint8_t(rng.uniformInt(256)));
                break;
            }
            expectOnlyProtocolError(*c, d);
        }
    }
}

// ============================================================= framing

namespace {

/** Push a stream through a MessageBuffer in random chunks, draining
 *  after every append (mirrors test_framing_fuzz::pushChunked). */
void
pushChunkedServe(MessageBuffer &mb, const std::vector<uint8_t> &stream,
                 Rng &rng, std::vector<Message> &decoded)
{
    bool dead = false;
    size_t pos = 0;
    while (pos < stream.size()) {
        size_t chunk = 1 + rng.uniformInt(257);
        if (chunk > stream.size() - pos)
            chunk = stream.size() - pos;
        mb.append(stream.data() + pos, chunk);
        pos += chunk;

        size_t guard = stream.size() / Message::kHeaderBytes + 2;
        for (;;) {
            ASSERT_GT(guard--, 0u) << "decoder loop did not terminate";
            Message m;
            std::string err;
            FrameStatus st = mb.next(m, &err);
            if (st == FrameStatus::Ok) {
                ASSERT_FALSE(dead)
                    << "Ok after Malformed: poison did not stick";
                ASSERT_TRUE(isValidMsgType(uint8_t(m.type)));
                ASSERT_LE(m.payload.size(), kMaxServePayloadBytes);
                decoded.push_back(std::move(m));
                continue;
            }
            if (st == FrameStatus::Malformed) {
                EXPECT_FALSE(err.empty());
                dead = true;
            }
            break;
        }
    }
}

} // namespace

TEST(ServeFraming, RandomBytesNeverCrashOrHang)
{
    for (uint64_t seed = 1; seed <= 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 7919);
        std::vector<uint8_t> noise(rng.uniformInt(4096));
        for (uint8_t &b : noise)
            b = uint8_t(rng.uniformInt(256));
        MessageBuffer mb;
        std::vector<Message> decoded;
        pushChunkedServe(mb, noise, rng, decoded);
        if (HasFatalFailure())
            return;
    }
}

TEST(ServeFraming, RoundTripSurvivesArbitraryFragmentation)
{
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 104729);

        core::MissionSpec spec;
        spec.seed = rng.next();
        spec.velocity = rng.uniform(0.5, 10.0);
        ResultChunkData chunk;
        chunk.jobId = rng.next();
        chunk.seq = uint32_t(rng.uniformInt(1000));
        chunk.bytes.resize(rng.uniformInt(5000), 0x78);
        ResultEndData end;
        end.jobId = chunk.jobId;
        end.state = JobState::Done;
        end.chunkCount = chunk.seq + 1;
        end.payloadBytes = chunk.bytes.size();
        end.trajectoryHash = rng.next();
        end.payloadHash = rng.next();
        end.result.collisions = rng.next();

        std::vector<Message> sent{
            encodeSubmitMission(spec),
            encodeQueryStatus(rng.next()),
            encodeFetchResult(rng.next(), rng.next()),
            encodeCancelMission(rng.next()),
            encodeServerStats(),
            encodeShutdown(rng.uniformInt(2) == 0),
            encodeSubmitOk({rng.next(), uint32_t(rng.uniformInt(100))}),
            encodeRejected({RejectReason::ClientCap, "cap"}),
            encodeResultChunk(chunk),
            encodeResultEnd(end),
            encodeProgress({rng.next(), rng.uniform(0.0, 10.0), 10.0,
                            rng.next() % 100000}),
            encodeShutdownReply(),
            encodeErrorReply("some error"),
        };
        std::vector<uint8_t> stream;
        for (const Message &m : sent)
            serializeMessage(m, stream);

        MessageBuffer mb;
        std::vector<Message> got;
        pushChunkedServe(mb, stream, rng, got);
        if (HasFatalFailure())
            return;

        ASSERT_EQ(got.size(), sent.size());
        for (size_t i = 0; i < sent.size(); ++i) {
            EXPECT_EQ(got[i].type, sent[i].type) << "message " << i;
            EXPECT_EQ(got[i].payload, sent[i].payload)
                << "message " << i;
        }
    }
}

TEST(ServeFraming, HeaderValidatedBeforeAllocation)
{
    // Unknown type byte.
    {
        MessageBuffer mb;
        uint8_t bad[] = {0x55, 1, 0, 0, 0, 9};
        mb.append(bad, sizeof(bad));
        Message m;
        std::string err;
        EXPECT_EQ(mb.next(m, &err), FrameStatus::Malformed);
        EXPECT_FALSE(err.empty());
        // Poison sticks even if valid bytes follow.
        std::vector<uint8_t> good;
        serializeMessage(encodeServerStats(), good);
        mb.append(good.data(), good.size());
        EXPECT_EQ(mb.next(m, &err), FrameStatus::Malformed);
    }
    // Length above the bound: Malformed immediately, no NeedMore wait.
    {
        MessageBuffer mb;
        uint32_t huge = uint32_t(kMaxServePayloadBytes + 1);
        uint8_t hdr[] = {uint8_t(MsgType::SubmitMission),
                         uint8_t(huge), uint8_t(huge >> 8),
                         uint8_t(huge >> 16), uint8_t(huge >> 24)};
        mb.append(hdr, sizeof(hdr));
        Message m;
        EXPECT_EQ(mb.next(m), FrameStatus::Malformed);
    }
    // Length exactly at the bound with a partial payload: NeedMore.
    {
        MessageBuffer mb;
        uint32_t len = uint32_t(kMaxServePayloadBytes);
        uint8_t hdr[] = {uint8_t(MsgType::ErrorReply), uint8_t(len),
                         uint8_t(len >> 8), uint8_t(len >> 16),
                         uint8_t(len >> 24)};
        mb.append(hdr, sizeof(hdr));
        Message m;
        EXPECT_EQ(mb.next(m), FrameStatus::NeedMore);
    }
}

// ============================================= served-result parity

TEST(ServeServer, GoldenParityOverTcp)
{
    ServerConfig cfg;
    cfg.workers = 3;
    MissionServer server(cfg);
    server.start();

    ServeClient client(server.port());
    for (const char *soc : {"A", "B", "C"}) {
        SCOPED_TRACE(std::string("config ") + soc);
        core::MissionSpec spec = canonicalSpec(soc);
        SubmitOutcome out = client.submit(spec);
        ASSERT_TRUE(out.accepted) << out.detail;
        ServedResult served = client.waitResult(out.jobId);

        core::MissionResult local = core::runMission(spec);
        std::string localCsv = core::trajectoryCsvString(local);
        std::string servedCsv =
            core::trajectoryCsvString(served.trajectory);
        EXPECT_EQ(fnv1a(servedCsv), fnv1a(localCsv))
            << "served trajectory bytes drifted from the local run";
        EXPECT_EQ(servedCsv, localCsv);
        EXPECT_EQ(served.trajectoryHash, fnv1a(localCsv));
        EXPECT_EQ(served.collisions, local.collisions);
        EXPECT_EQ(served.trajectorySamples, local.trajectory.size());
        EXPECT_EQ(served.status, uint8_t(local.status));
        EXPECT_EQ(served.simulatedCycles, local.simulatedCycles);
    }
    server.stop();
}

TEST(ServeServer, FourConcurrentClientsStayBitIdentical)
{
    ServerConfig cfg;
    cfg.workers = 4;
    MissionServer server(cfg);
    server.start();
    uint16_t port = server.port();

    // Local reference hashes for the three canonical configs.
    static const char *kSocs[] = {"A", "B", "C"};
    uint64_t expect[3];
    for (int s = 0; s < 3; ++s)
        expect[s] = localTrajectoryHash(canonicalSpec(kSocs[s]));

    constexpr int kClients = 4;
    constexpr int kMissions = 8;
    std::vector<int> failures = core::parallelIndexed<int>(
        kClients, kClients, [&](size_t ci) -> int {
            int bad = 0;
            ServeClient client(port);
            std::vector<std::pair<uint64_t, int>> jobs;
            for (int m = int(ci); m < kMissions; m += kClients) {
                SubmitOutcome out =
                    client.submit(canonicalSpec(kSocs[m % 3]));
                if (!out.accepted) {
                    bad++;
                    continue;
                }
                jobs.emplace_back(out.jobId, m % 3);
            }
            for (auto [id, s] : jobs) {
                ServedResult r = client.waitResult(id);
                if (servedHash(r) != expect[s])
                    bad++;
            }
            return bad;
        });
    for (int b : failures)
        EXPECT_EQ(b, 0);

    ServerStatsSnapshot s = server.stats();
    EXPECT_EQ(s.accepted, kMissions);
    EXPECT_EQ(s.completed, kMissions);
    EXPECT_EQ(s.failed, 0u);
    server.stop();
}

// ================================================= admission control

TEST(ServeServer, QueueFullShedsLoadWithoutStallingInFlight)
{
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxQueueDepth = 2;
    MissionServer server(cfg);
    server.pauseWorkers(); // make queue occupancy deterministic
    server.start();

    ServeClient client(server.port());
    std::vector<uint64_t> accepted;
    for (int i = 0; i < 2; ++i) {
        SubmitOutcome out = client.submit(quickSpec(uint64_t(i + 1)));
        ASSERT_TRUE(out.accepted) << out.detail;
        accepted.push_back(out.jobId);
    }
    // Queue is at capacity: further submissions are shed explicitly.
    for (int i = 0; i < 3; ++i) {
        SubmitOutcome out = client.submit(quickSpec(99));
        ASSERT_FALSE(out.accepted);
        EXPECT_EQ(out.reason, RejectReason::QueueFull);
        EXPECT_FALSE(out.detail.empty());
    }
    ServerStatsSnapshot s = server.stats();
    EXPECT_EQ(s.rejectedQueueFull, 3u);
    EXPECT_EQ(s.queued, 2u);

    // Shedding never disturbs admitted work: resume and all accepted
    // jobs complete; the queue drains; a retry now succeeds.
    server.resumeWorkers();
    for (uint64_t id : accepted) {
        ServedResult r = client.waitResult(id);
        EXPECT_GT(r.trajectorySamples, 0u);
    }
    SubmitOutcome retry = client.submit(quickSpec(3));
    EXPECT_TRUE(retry.accepted);
    client.waitResult(retry.jobId);

    s = server.stats();
    EXPECT_EQ(s.completed, 3u);
    EXPECT_EQ(s.failed, 0u);
    server.stop();
}

TEST(ServeServer, PerClientCapLeavesOtherClientsAdmittable)
{
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxQueueDepth = 16;
    cfg.perClientInFlight = 2;
    MissionServer server(cfg);
    server.pauseWorkers();
    server.start();

    ServeClient greedy(server.port());
    EXPECT_TRUE(greedy.submit(quickSpec(1)).accepted);
    EXPECT_TRUE(greedy.submit(quickSpec(2)).accepted);
    SubmitOutcome third = greedy.submit(quickSpec(3));
    ASSERT_FALSE(third.accepted);
    EXPECT_EQ(third.reason, RejectReason::ClientCap);

    // Another session is not penalized for the greedy one.
    ServeClient polite(server.port());
    EXPECT_TRUE(polite.submit(quickSpec(4)).accepted);

    EXPECT_EQ(server.stats().rejectedClientCap, 1u);
    server.resumeWorkers();
    ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &s) {
        return s.completed == 3;
    }));
    server.stop();
}

TEST(ServeServer, BadSpecsAreRejectedNotExecuted)
{
    ServerConfig cfg;
    cfg.workers = 1;
    MissionServer server(cfg);
    server.start();
    ServeClient client(server.port());

    core::MissionSpec bad = quickSpec();
    bad.modelDepth = 0;
    SubmitOutcome out = client.submit(bad);
    ASSERT_FALSE(out.accepted);
    EXPECT_EQ(out.reason, RejectReason::BadRequest);

    bad = quickSpec();
    bad.maxSimSeconds = -1.0;
    out = client.submit(bad);
    ASSERT_FALSE(out.accepted);
    EXPECT_EQ(out.reason, RejectReason::BadRequest);

    EXPECT_EQ(server.stats().accepted, 0u);
    server.stop();
}

TEST(ServeServer, LongMissionStreamsGoldenParity)
{
    // The lifted mission-length limit, end to end: a spec whose
    // canonical trajectory CSV exceeds 8 MiB — larger than any single
    // protocol frame — is admitted, executed (supervised, with the
    // checkpoint-cadence cap keeping snapshot overhead bounded),
    // streamed as binary records across many ResultChunk frames, and
    // its samples render bit-identically to the local runMission() of
    // the same spec.
    core::MissionSpec spec = canonicalSpec("A", 2.2);
    spec.syncGranularity = 20000; // one sample every 20k cycles

    core::MissionResult local = core::runMission(spec);
    std::string localCsv = core::trajectoryCsvString(local);
    ASSERT_GT(localCsv.size(), 8u * 1024 * 1024)
        << "spec no longer produces a >8 MiB trajectory; retune";

    ServerConfig cfg;
    cfg.workers = 1;
    MissionServer server(cfg);
    server.start();
    ServeClient client(server.port(), "127.0.0.1", 120000);

    SubmitOutcome out = client.submit(spec);
    ASSERT_TRUE(out.accepted) << out.detail;
    ServedResult r = client.waitResult(out.jobId, 120000);
    EXPECT_EQ(r.trajectory.size(), local.trajectory.size());
    EXPECT_EQ(r.trajectorySamples, local.trajectory.size());
    std::string servedCsv = core::trajectoryCsvString(r.trajectory);
    EXPECT_EQ(fnv1a(servedCsv), fnv1a(localCsv));
    EXPECT_TRUE(servedCsv == localCsv)
        << "streamed trajectory bytes drifted from the local run";

    ServerStatsSnapshot s = server.stats();
    EXPECT_EQ(s.streamsStarted, 1u);
    EXPECT_EQ(s.streamsCompleted, 1u);
    EXPECT_EQ(s.activeStreams, 0u);
    // 44 bytes per sample (~1.8x fewer than the CSV) in whole-record
    // slices of the default 256 KiB chunk: ~19 chunks.
    const uint64_t payload =
        uint64_t(local.trajectory.size()) * kTrajectoryBinaryRecordBytes;
    const uint64_t slice = kDefaultResultChunkBytes /
                           kTrajectoryBinaryRecordBytes *
                           kTrajectoryBinaryRecordBytes;
    EXPECT_EQ(s.streamedPayloadBytes, payload);
    EXPECT_LT(s.streamedPayloadBytes, localCsv.size());
    EXPECT_EQ(s.streamedChunks, (payload + slice - 1) / slice);
    EXPECT_GT(s.streamedChunks, 15u);
    server.stop();
}

TEST(ServeServer, ProgressEventsArriveWhileMissionRuns)
{
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.progressIntervalPeriods = 10; // dense enough to observe
    // Progress is pushed once per IO-loop tick; tick every 1 ms so a
    // mission of a few tens of ms spans many ticks even on a loaded
    // host.
    cfg.pollIntervalMs = 1;
    MissionServer server(cfg);
    server.start();
    ServeClient client(server.port());

    std::vector<ProgressEvent> seen;
    client.onProgress([&](const ProgressEvent &p) {
        seen.push_back(p);
    });

    core::MissionSpec spec = canonicalSpec("A", 4.0);
    SubmitOutcome out = client.submit(spec);
    ASSERT_TRUE(out.accepted) << out.detail;
    ServedResult r = client.waitResult(out.jobId);
    EXPECT_GT(r.trajectorySamples, 0u);

    ASSERT_FALSE(seen.empty())
        << "no Progress frames observed during the mission";
    double prev = -1.0;
    for (const ProgressEvent &p : seen) {
        EXPECT_EQ(p.jobId, out.jobId);
        EXPECT_GT(p.simTimeSeconds, prev); // coalesced ⇒ monotonic
        EXPECT_EQ(p.maxSimSeconds, 4.0);
        EXPECT_GT(p.samples, 0u);
        prev = p.simTimeSeconds;
    }
    EXPECT_GE(server.stats().progressEvents, seen.size());
    server.stop();
}

TEST(ServeServer, FailedJobReportsFailedStateOverTheWire)
{
    ServerConfig cfg;
    cfg.workers = 1;
    MissionServer server(cfg);
    server.start();
    ServeClient client(server.port());

    // Unknown SoC names pass admission (cheap validation only) and
    // throw in the worker — a Failed job, not a dead daemon.
    core::MissionSpec spec = quickSpec();
    spec.socName = "Z";
    SubmitOutcome out = client.submit(spec);
    ASSERT_TRUE(out.accepted) << out.detail;

    ServedResult r;
    JobState state = JobState::Unknown;
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(10);
    while (!client.tryFetchResult(out.jobId, r, &state)) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(state, JobState::Failed);
    EXPECT_EQ(r.status, uint8_t(core::MissionStatus::Crashed));
    EXPECT_TRUE(r.trajectory.empty());
    EXPECT_FALSE(r.failureReason.empty());
    EXPECT_EQ(server.stats().failed, 1u);
    server.stop();
}

TEST(ServeServer, FetchReleasesResultAndRetentionIsBounded)
{
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxRetainedResults = 1;
    MissionServer server(cfg);
    server.start();
    ServeClient client(server.port());

    // A completed fetch releases the record — via the client's
    // hash-verified AckResult, sent once the reassembled stream
    // passed local verification (not by the fetch itself).
    SubmitOutcome a = client.submit(quickSpec(1));
    ASSERT_TRUE(a.accepted);
    ServedResult r = client.waitResult(a.jobId);
    EXPECT_GT(r.trajectorySamples, 0u);
    EXPECT_EQ(server.stats().resultsAcked, 1u);
    EXPECT_EQ(client.status(a.jobId).state, JobState::Unknown);
    EXPECT_THROW(client.waitResult(a.jobId, 500), ProtocolError);

    // Unfetched terminal jobs are bounded by the retention FIFO: with
    // capacity 1, finishing a third job evicts the second unfetched.
    SubmitOutcome b = client.submit(quickSpec(2));
    SubmitOutcome c = client.submit(quickSpec(3));
    ASSERT_TRUE(b.accepted);
    ASSERT_TRUE(c.accepted);
    ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &s) {
        return s.completed == 3;
    }));
    EXPECT_EQ(client.status(b.jobId).state, JobState::Unknown);
    EXPECT_EQ(client.status(c.jobId).state, JobState::Done);
    ServedResult rc = client.waitResult(c.jobId);
    EXPECT_GT(rc.trajectorySamples, 0u);
    server.stop();
}

TEST(ServeServer, StalledReaderDoesNotBlockOtherClients)
{
    // One client that requests its (large) result and then never
    // reads must cost only its own connection: other sessions stay
    // serviceable the whole time, and the stalled connection is
    // dropped — mid-stream — once its reply makes no progress for
    // sendTimeoutMs. The stream backlog cap bounds how much of the
    // stalled stream is ever generated into server memory.
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.sendTimeoutMs = 2000;
    cfg.sendBufferBytes = 4096;  // shrink kernel buffering so the
                                 // ~90 KiB stream actually stalls
    cfg.resultChunkBytes = 4096; // many chunks...
    cfg.streamBacklogBytes = 8192; // ...but only ~2 in flight
    MissionServer server(cfg);
    server.start();

    ServeClient observer(server.port());

    // Raw non-reading socket with a tiny receive window.
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    int rcvbuf = 4096;
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    // Submit the canonical mission (~90 KiB of trajectory CSV). The
    // daemon assigns it job id 1 — it is the first submission.
    std::vector<uint8_t> wire;
    serializeMessage(encodeSubmitMission(canonicalSpec("A")), wire);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              ssize_t(wire.size()));
    ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &s) {
        return s.completed == 1;
    }));

    // Ask for the result, then never read a byte of it. The stream
    // opens (the record stays retained until an ack that will never
    // come) and wedges mid-flight.
    wire.clear();
    serializeMessage(encodeFetchResult(1), wire);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              ssize_t(wire.size()));
    ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &s) {
        return s.streamsStarted == 1 && s.activeStreams == 1;
    }));

    // While that stream is wedged, other clients are serviced at
    // full speed (well under the 2 s stall deadline) — no
    // head-of-line blocking through the shared IO loop.
    auto t0 = std::chrono::steady_clock::now();
    ServerStatsSnapshot s = observer.serverStats();
    double statsMs = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    EXPECT_LT(statsMs, 1500.0);
    EXPECT_EQ(s.connectionsOpen, 2u);
    EXPECT_EQ(s.streamsCompleted, 0u);
    SubmitOutcome out = observer.submit(quickSpec(9));
    ASSERT_TRUE(out.accepted);
    EXPECT_GT(observer.waitResult(out.jobId).trajectorySamples, 0u);

    // The stalled connection is dropped after the progress deadline;
    // its half-sent stream dies with it (never "completed"), and
    // everything else keeps running.
    ASSERT_TRUE(eventually(
        server,
        [](const ServerStatsSnapshot &st) {
            return st.connectionsOpen == 1 && st.activeStreams == 0;
        },
        15000));
    EXPECT_EQ(server.stats().streamsCompleted, 1u)
        << "only the observer's own fetch should have completed";
    ::close(fd);
    EXPECT_TRUE(observer.submit(quickSpec(10)).accepted);
    server.stop();
}

TEST(ServeServer, DisconnectMidStreamKeepsJobFetchable)
{
    // A client that starts a fetch, reads part of the stream, and
    // vanishes loses only its own stream: the job record is NOT
    // released by the fetch (release needs the hash-verified
    // AckResult), so the result stays retained and a later client —
    // or the same one, reconnected — fetches the identical bytes.
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.sendBufferBytes = 4096;
    cfg.resultChunkBytes = 4096;
    cfg.streamBacklogBytes = 8192;
    MissionServer server(cfg);
    server.start();

    ServeClient observer(server.port());

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    int rcvbuf = 4096;
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    std::vector<uint8_t> wire;
    serializeMessage(encodeSubmitMission(canonicalSpec("A")), wire);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              ssize_t(wire.size()));
    ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &s) {
        return s.completed == 1;
    }));
    EXPECT_GT(server.stats().retainedResultBytes, 0u);

    wire.clear();
    serializeMessage(encodeFetchResult(1), wire);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              ssize_t(wire.size()));
    ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &s) {
        return s.activeStreams == 1;
    }));
    // Opening the stream does NOT release the record: the result
    // stays retained (and thus resumable) until the client acks it.
    EXPECT_GT(server.stats().retainedResultBytes, 0u);
    EXPECT_EQ(observer.status(1).state, JobState::Done);
    EXPECT_EQ(observer.cancel(1).outcome, CancelOutcome::AlreadyDone);

    // Read a few chunks' worth, then vanish mid-stream.
    uint8_t buf[8192];
    ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    EXPECT_GT(got, 0);
    ::close(fd);

    ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &s) {
        return s.connectionsOpen == 1 && s.activeStreams == 0;
    }));
    ServerStatsSnapshot s = server.stats();
    EXPECT_EQ(s.streamsStarted, 1u);
    EXPECT_EQ(s.streamsCompleted, 0u);
    EXPECT_GT(s.retainedResultBytes, 0u);

    // The interrupted fetch cost nothing: the observer now fetches
    // the very same job and gets bit-identical bytes; its verified
    // ack is what finally releases the record.
    ServedResult refetched = observer.waitResult(1);
    EXPECT_EQ(servedHash(refetched),
              localTrajectoryHash(canonicalSpec("A")));
    ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &st) {
        return st.resultsAcked == 1 && st.retainedResultBytes == 0;
    }));
    EXPECT_EQ(observer.status(1).state, JobState::Unknown);

    // The daemon is fully serviceable afterwards.
    SubmitOutcome out = observer.submit(quickSpec(5));
    ASSERT_TRUE(out.accepted);
    EXPECT_GT(observer.waitResult(out.jobId).trajectorySamples, 0u);
    server.stop();
}

TEST(ServeServer, RetentionByteBoundEvictsOldestKeepsNewest)
{
    // The retention FIFO is bounded by actual retained bytes, not
    // just job count: with a 1-byte budget every completion evicts
    // all older unfetched results, but the newest one is never
    // evicted by the byte bound — a single oversized result stays
    // fetchable rather than evaporating as it finishes.
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxRetainedResults = 256; // count bound out of the picture
    cfg.maxRetainedResultBytes = 1;
    MissionServer server(cfg);
    server.start();
    ServeClient client(server.port());

    SubmitOutcome a = client.submit(quickSpec(1));
    SubmitOutcome b = client.submit(quickSpec(2));
    SubmitOutcome c = client.submit(quickSpec(3));
    ASSERT_TRUE(a.accepted && b.accepted && c.accepted);
    ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &s) {
        return s.completed == 3;
    }));

    // Only the newest terminal result survives the byte bound.
    EXPECT_EQ(client.status(a.jobId).state, JobState::Unknown);
    EXPECT_EQ(client.status(b.jobId).state, JobState::Unknown);
    EXPECT_EQ(client.status(c.jobId).state, JobState::Done);
    uint64_t retained = server.stats().retainedResultBytes;
    EXPECT_GT(retained, 0u);

    // Fetching it empties the byte account entirely — the account
    // tracks live payload, not history.
    ServedResult r = client.waitResult(c.jobId);
    EXPECT_GT(r.trajectorySamples, 0u);
    ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &s) {
        return s.retainedResultBytes == 0;
    }));
    server.stop();
}

// ================================================== session lifecycle

TEST(ServeServer, CancelDequeuesQueuedJob)
{
    ServerConfig cfg;
    cfg.workers = 1;
    MissionServer server(cfg);
    server.pauseWorkers();
    server.start();

    ServeClient client(server.port());
    SubmitOutcome out = client.submit(quickSpec());
    ASSERT_TRUE(out.accepted);

    CancelInfo c = client.cancel(out.jobId);
    EXPECT_EQ(c.outcome, CancelOutcome::Dequeued);
    EXPECT_EQ(client.status(out.jobId).state, JobState::Cancelled);
    EXPECT_THROW(client.waitResult(out.jobId, 1000), ProtocolError);
    EXPECT_EQ(client.cancel(999999).outcome,
              CancelOutcome::UnknownJob);
    EXPECT_EQ(client.status(999999).state, JobState::Unknown);

    EXPECT_EQ(server.stats().cancelled, 1u);
    server.resumeWorkers();
    server.stop();
}

TEST(ServeServer, ClientDisconnectMidMissionDoesNotKillServer)
{
    ServerConfig cfg;
    cfg.workers = 1;
    MissionServer server(cfg);
    server.start();

    core::MissionSpec spec = canonicalSpec("A"); // ~0.3 s of wall time
    uint64_t runningJob = 0;
    uint64_t queuedJob = 0;
    {
        ServeClient doomed(server.port());
        SubmitOutcome a = doomed.submit(spec);
        ASSERT_TRUE(a.accepted);
        runningJob = a.jobId;
        // Wait until it is actually running, then queue another.
        ASSERT_TRUE(eventually(server,
                               [](const ServerStatsSnapshot &s) {
                                   return s.running == 1;
                               }));
        SubmitOutcome b = doomed.submit(quickSpec(7));
        ASSERT_TRUE(b.accepted);
        queuedJob = b.jobId;
        // Destructor closes the socket mid-mission.
    }

    // The server must retire the session: its queued job is shed, the
    // running mission finishes (orphaned), nothing crashes.
    ASSERT_TRUE(eventually(server, [&](const ServerStatsSnapshot &s) {
        return s.connectionsOpen == 0 && s.cancelled == 1 &&
               s.completed == 1 && s.running == 0;
    }));

    // A new session still gets served, and the orphaned result stays
    // fetchable by job id with bit-identical bytes.
    ServeClient fresh(server.port());
    ServedResult r = fresh.waitResult(runningJob, 30000);
    EXPECT_EQ(servedHash(r), localTrajectoryHash(spec));
    EXPECT_EQ(fresh.status(queuedJob).state, JobState::Cancelled);
    EXPECT_TRUE(fresh.submit(quickSpec(8)).accepted);
    ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &s) {
        return s.completed == 2;
    }));
    server.stop();
}

TEST(ServeServer, MalformedStreamDropsConnectionOnly)
{
    ServerConfig cfg;
    cfg.workers = 1;
    MissionServer server(cfg);
    server.start();

    ServeClient observer(server.port());
    EXPECT_EQ(observer.serverStats().malformed, 0u);

    // Raw garbage through a plain socket: the server must drop that
    // connection and count it, not crash or stall other sessions.
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const uint8_t garbage[] = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
    ASSERT_EQ(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL),
              ssize_t(sizeof(garbage)));
    ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &s) {
        return s.malformed >= 1;
    }));
    ::close(fd);

    // The server is still fully serviceable.
    EXPECT_TRUE(observer.submit(quickSpec()).accepted);
    ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &s) {
        return s.completed == 1;
    }));
    server.stop();
}

TEST(ServeServer, CleanShutdownDrainsInFlightJobs)
{
    ServerConfig cfg;
    cfg.workers = 1;
    MissionServer server(cfg);
    server.start();

    ServeClient client(server.port());
    SubmitOutcome a = client.submit(quickSpec(1));
    SubmitOutcome b = client.submit(quickSpec(2));
    ASSERT_TRUE(a.accepted);
    ASSERT_TRUE(b.accepted);

    client.shutdownServer(/*drain=*/true);
    // New submissions are refused while draining (if the window is
    // still open; the server may already have drained and closed).
    try {
        SubmitOutcome late = client.submit(quickSpec(3));
        EXPECT_FALSE(late.accepted);
        if (!late.accepted) {
            EXPECT_EQ(late.reason, RejectReason::ShuttingDown);
        }
    } catch (const bridge::TransportError &) {
        // Drain finished first and the connection was closed — also a
        // clean shutdown.
    }

    server.waitForShutdown();
    EXPECT_FALSE(server.running());
    ServerStatsSnapshot s = server.stats();
    EXPECT_EQ(s.completed, 2u); // both in-flight jobs ran to the end
    EXPECT_EQ(s.failed, 0u);
}

TEST(ServeServer, ImmediateShutdownShedsQueueButFinishesRunning)
{
    ServerConfig cfg;
    cfg.workers = 1;
    MissionServer server(cfg);
    server.start();

    ServeClient client(server.port());
    // A full-length mission, so it is still running when observed and
    // when the second one is queued behind it.
    SubmitOutcome a = client.submit(canonicalSpec("A"));
    ASSERT_TRUE(a.accepted);
    ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &s) {
        return s.running == 1;
    }));
    SubmitOutcome b = client.submit(quickSpec(2));
    ASSERT_TRUE(b.accepted);

    server.stop(/*drain=*/false);
    ServerStatsSnapshot s = server.stats();
    EXPECT_EQ(s.completed, 1u); // the running mission finished
    EXPECT_EQ(s.cancelled, 1u); // the queued one was shed
}

TEST(ServeServer, EphemeralPortsNeverCollide)
{
    // Two daemons asking for port 0 concurrently get distinct ports
    // (the PR-1-era fixed-port race), and both serve traffic.
    MissionServer s1{ServerConfig{}};
    MissionServer s2{ServerConfig{}};
    EXPECT_NE(s1.port(), 0);
    EXPECT_NE(s2.port(), 0);
    EXPECT_NE(s1.port(), s2.port());
    s1.start();
    s2.start();
    ServeClient c1(s1.port());
    ServeClient c2(s2.port());
    EXPECT_EQ(c1.serverStats().connectionsOpen, 1u);
    EXPECT_EQ(c2.serverStats().connectionsOpen, 1u);
    s1.stop();
    s2.stop();
}

TEST(ServeServer, ListenerFailureThrowsInsteadOfAborting)
{
    // Binding a port that is already taken must surface as a
    // TransportError a daemon can catch — not a process abort
    // (PR 1 panic→throw policy, extended to the listener path).
    bridge::TcpListener first(0);
    EXPECT_THROW(bridge::TcpListener second(first.port()),
                 bridge::TransportError);
}

// ========================================= durability & crash recovery

namespace {

/** Fresh scratch directory for a journaled server (build-tree CWD). */
std::string
serveScratchDir(const std::string &name)
{
    std::filesystem::path dir = "serve_test_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/**
 * A raw protocol connection for driving the wire directly (ack
 * handshakes, resume offsets) — things ServeClient does implicitly.
 */
struct RawConn
{
    int fd = -1;
    MessageBuffer rx;

    explicit RawConn(uint16_t port)
    {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (fd >= 0 &&
            ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd);
            fd = -1;
        }
    }
    ~RawConn()
    {
        if (fd >= 0)
            ::close(fd);
    }

    void send(const Message &m)
    {
        std::vector<uint8_t> wire;
        serializeMessage(m, wire);
        ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
                  ssize_t(wire.size()));
    }

    /** Next non-Progress frame (blocking). */
    Message next()
    {
        for (;;) {
            Message m;
            std::string err;
            FrameStatus st = rx.next(m, &err);
            if (st == FrameStatus::Ok) {
                if (m.type == MsgType::Progress)
                    continue;
                return m;
            }
            if (st == FrameStatus::Malformed)
                throw ProtocolError("raw frame: " + err);
            uint8_t buf[65536];
            ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
            if (got <= 0)
                throw bridge::TransportError("raw recv failed");
            rx.append(buf, size_t(got));
        }
    }

    Message request(const Message &m)
    {
        send(m);
        return next();
    }

    /** Drain one result stream; returns the payload bytes and fills
     *  @p end. Fails the test on anything but chunks + end. */
    std::string drainStream(ResultEndData &end)
    {
        std::string bytes;
        for (;;) {
            Message m = next();
            if (m.type == MsgType::ResultChunk) {
                ResultChunkData c = decodeResultChunk(m);
                bytes.append(c.bytes.begin(), c.bytes.end());
                continue;
            }
            if (m.type == MsgType::ResultEnd) {
                end = decodeResultEnd(m);
                return bytes;
            }
            ADD_FAILURE() << "unexpected stream frame type 0x"
                          << std::hex << unsigned(m.type);
            return bytes;
        }
    }
};

} // namespace

TEST(ServeDurability, AckProtocolVerifiesHashBeforeRelease)
{
    ServerConfig cfg;
    cfg.workers = 1;
    MissionServer server(cfg);
    server.start();
    ServeClient client(server.port());

    core::MissionSpec spec = quickSpec(1);
    SubmitOutcome out = client.submit(spec);
    ASSERT_TRUE(out.accepted);
    ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &s) {
        return s.completed == 1;
    }));
    std::vector<uint8_t> records =
        encodeTrajectoryBinary(core::runMission(spec).trajectory);
    uint64_t hash = fnv1a(records.data(), records.size());

    RawConn raw(server.port());
    ASSERT_GE(raw.fd, 0);
    // A wrong hash must NOT release: the client's copy is suspect, so
    // the server keeps the record for a clean refetch. The golden CSV
    // hash is not a second accepted key either — only the hash of the
    // record bytes proves possession of them.
    for (uint64_t wrong : {hash ^ 1, localTrajectoryHash(spec)}) {
        AckInfo ack = decodeAckReply(
            raw.request(encodeAckResult(out.jobId, wrong)));
        EXPECT_EQ(ack.outcome, AckOutcome::HashMismatch);
        EXPECT_EQ(client.status(out.jobId).state, JobState::Done);
    }

    // The right hash releases exactly once; a retried ack (the
    // reconnect case) reports UnknownJob, which clients treat as
    // success.
    AckInfo ack =
        decodeAckReply(raw.request(encodeAckResult(out.jobId, hash)));
    EXPECT_EQ(ack.outcome, AckOutcome::Released);
    ack = decodeAckReply(raw.request(encodeAckResult(out.jobId, hash)));
    EXPECT_EQ(ack.outcome, AckOutcome::UnknownJob);
    EXPECT_EQ(client.status(out.jobId).state, JobState::Unknown);

    ServerStatsSnapshot s = server.stats();
    EXPECT_EQ(s.resultsAcked, 1u);
    EXPECT_EQ(s.retainedResultBytes, 0u);
    server.stop();
}

TEST(ServeDurability, ResumeOffsetStreamsExactSuffix)
{
    ServerConfig cfg;
    cfg.workers = 1;
    MissionServer server(cfg);
    server.start();
    ServeClient client(server.port());

    core::MissionSpec spec = quickSpec(2);
    SubmitOutcome out = client.submit(spec);
    ASSERT_TRUE(out.accepted);
    ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &s) {
        return s.completed == 1;
    }));
    core::MissionResult local = core::runMission(spec);
    std::vector<uint8_t> records = encodeTrajectoryBinary(local.trajectory);
    ASSERT_GT(records.size(), 3 * kTrajectoryBinaryRecordBytes);

    // A finished, un-acked job pins exactly its records and failure
    // reason — no CSV copy and no sample vector.
    EXPECT_EQ(server.stats().retainedResultBytes,
              local.trajectory.size() * kTrajectoryBinaryRecordBytes +
                  local.failureReason.size());

    RawConn raw(server.port());
    ASSERT_GE(raw.fd, 0);

    // Resume from a mid-payload record boundary: the stream is
    // exactly the byte suffix, numbered from 0, and ResultEnd still
    // describes the TOTAL payload (size + full-payload hash) so the
    // assembler's final verification covers prefix + suffix together.
    uint64_t offset = records.size() / kTrajectoryBinaryRecordBytes / 3 *
                      kTrajectoryBinaryRecordBytes;
    raw.send(encodeFetchResult(out.jobId, offset));
    ResultEndData end;
    std::string suffix = raw.drainStream(end);
    EXPECT_EQ(suffix, std::string(records.begin() + std::ptrdiff_t(offset),
                                  records.end()));
    EXPECT_EQ(end.payloadBytes, records.size());
    EXPECT_EQ(end.payloadHash, fnv1a(records.data(), records.size()));
    EXPECT_EQ(end.trajectoryHash,
              fnv1a(core::trajectoryCsvString(local)));
    EXPECT_EQ(end.state, JobState::Done);

    // An offset beyond the payload is a client bug: explicit error,
    // job untouched.
    Message reply = raw.request(encodeFetchResult(
        out.jobId, records.size() + kTrajectoryBinaryRecordBytes));
    EXPECT_EQ(reply.type, MsgType::ErrorReply);
    EXPECT_EQ(client.status(out.jobId).state, JobState::Done);

    // A resume must be record-aligned.
    reply = raw.request(
        encodeFetchResult(out.jobId, kTrajectoryBinaryRecordBytes + 1));
    EXPECT_EQ(reply.type, MsgType::ErrorReply);

    ServerStatsSnapshot s = server.stats();
    EXPECT_EQ(s.streamsResumed, 1u);
    EXPECT_GT(s.retainedResultBytes, 0u); // never released: no ack
    server.stop();
}

TEST(ServeDurability, IdempotentResubmitReturnsOriginalJob)
{
    // In-memory dedup (no journal): a resubmission carrying the same
    // key lands on the original job instead of running twice.
    ServerConfig cfg;
    cfg.workers = 1;
    MissionServer server(cfg);
    server.pauseWorkers();
    server.start();
    ServeClient client(server.port());

    SubmitOutcome first = client.submit(quickSpec(1), "retry-0");
    ASSERT_TRUE(first.accepted);
    SubmitOutcome again = client.submit(quickSpec(1), "retry-0");
    ASSERT_TRUE(again.accepted);
    EXPECT_EQ(again.jobId, first.jobId);
    SubmitOutcome other = client.submit(quickSpec(2), "retry-1");
    ASSERT_TRUE(other.accepted);
    EXPECT_NE(other.jobId, first.jobId);

    ServerStatsSnapshot s = server.stats();
    EXPECT_EQ(s.dedupedSubmits, 1u);
    EXPECT_EQ(s.accepted, 2u); // the dup never entered the queue
    server.resumeWorkers();
    ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &st) {
        return st.completed == 2;
    }));
    server.stop();
}

TEST(ServeDurability, RestartReplaysResultsAndDedups)
{
    // The tentpole, in-process: a journaled daemon is torn down with
    // unfetched terminal results; a new daemon on the same directory
    // replays them — fetchable bit-identically — and still honors the
    // idempotency key of the pre-restart submission.
    std::string dir = serveScratchDir("restart");
    core::MissionSpec spec = quickSpec(1);
    uint64_t jobId = 0;
    uint16_t port = 0;
    {
        ServerConfig cfg;
        cfg.workers = 1;
        cfg.journalDir = dir;
        MissionServer server(cfg);
        server.start();
        port = server.port();
        ServeClient client(port);
        SubmitOutcome out = client.submit(spec, "restart-key");
        ASSERT_TRUE(out.accepted);
        jobId = out.jobId;
        ASSERT_TRUE(eventually(server,
                               [](const ServerStatsSnapshot &s) {
                                   return s.completed == 1;
                               }));
        server.stop(); // result never fetched, never acked
    }

    ServerConfig cfg;
    cfg.workers = 1;
    cfg.journalDir = dir;
    MissionServer server(cfg);
    server.start();
    ServeClient client(server.port());

    EXPECT_EQ(server.stats().journalReplayedJobs, 1u);
    EXPECT_EQ(client.status(jobId).state, JobState::Done);

    // The old incarnation's retry lands on the original job...
    SubmitOutcome dup = client.submit(spec, "restart-key");
    ASSERT_TRUE(dup.accepted);
    EXPECT_EQ(dup.jobId, jobId);
    EXPECT_EQ(server.stats().dedupedSubmits, 1u);

    // ...the replayed job streams its journaled records and resumes
    // at a record boundary like any other...
    std::vector<uint8_t> records =
        encodeTrajectoryBinary(core::runMission(spec).trajectory);
    uint64_t offset = records.size() / kTrajectoryBinaryRecordBytes / 2 *
                      kTrajectoryBinaryRecordBytes;
    RawConn raw(server.port());
    ASSERT_GE(raw.fd, 0);
    raw.send(encodeFetchResult(jobId, offset));
    ResultEndData end;
    std::string suffix = raw.drainStream(end);
    EXPECT_EQ(suffix, std::string(records.begin() + std::ptrdiff_t(offset),
                                  records.end()));
    EXPECT_EQ(end.payloadHash, fnv1a(records.data(), records.size()));
    EXPECT_EQ(end.trajectoryHash, localTrajectoryHash(spec));

    // ...and verifies: its bytes are exactly what the mission
    // produced, and the client's ack of them releases it.
    ServedResult r = client.waitResult(jobId);
    EXPECT_EQ(servedHash(r), localTrajectoryHash(spec));
    EXPECT_GT(r.trajectorySamples, 0u);
    EXPECT_EQ(server.stats().resultsAcked, 1u);

    // Fresh ids never collide with pre-restart ones.
    SubmitOutcome fresh = client.submit(quickSpec(2));
    ASSERT_TRUE(fresh.accepted);
    EXPECT_GT(fresh.jobId, jobId);
    client.waitResult(fresh.jobId);
    server.stop();
}

TEST(ServeDurability, InterruptedSubmissionRequeuesAndRuns)
{
    // A journal holding only a Submit record — the daemon died after
    // admission, before the mission finished, with no checkpoint on
    // disk. The restarted daemon re-queues the job, runs it cold, and
    // the result is indistinguishable from an uninterrupted run.
    std::string dir = serveScratchDir("requeue");
    core::MissionSpec spec = quickSpec(3);
    {
        JobJournal j(dir, journalFingerprint(true));
        j.appendSubmit(1, "interrupted-key", spec);
    }

    ServerConfig cfg;
    cfg.workers = 1;
    cfg.journalDir = dir;
    MissionServer server(cfg);
    server.start();
    EXPECT_EQ(server.stats().journalReplayedJobs, 1u);

    ServeClient client(server.port());

    // The replayed key dedups (the record keeps its key until the
    // verified ack releases it), and new ids start past the replayed
    // high-water mark.
    SubmitOutcome dup = client.submit(spec, "interrupted-key");
    ASSERT_TRUE(dup.accepted);
    EXPECT_EQ(dup.jobId, 1u);
    SubmitOutcome fresh = client.submit(quickSpec(4));
    ASSERT_TRUE(fresh.accepted);
    EXPECT_EQ(fresh.jobId, 2u);

    ServedResult r = client.waitResult(1);
    EXPECT_EQ(servedHash(r), localTrajectoryHash(spec));
    EXPECT_EQ(server.stats().warmRestoredJobs, 0u); // no checkpoint
    client.waitResult(2);
    server.stop();
}

TEST(ServeDurability, WarmRestoreResumesFromPersistedCheckpoint)
{
    // The daemon died mid-mission but its per-job checkpoint ring
    // made it to disk: the restarted daemon warm-restores instead of
    // re-running from zero, and restore being bit-exact means the
    // served trajectory still equals the uninterrupted run's.
    std::string dir = serveScratchDir("warm");
    core::MissionSpec spec = canonicalSpec("A", 3.0);

    // Persist a checkpoint exactly where rosed would have: run the
    // mission under a supervisor writing to the job's checkpoint
    // path. (The file keeps the latest pre-death snapshot; a real
    // crash just stops the overwrites earlier.)
    {
        JobJournal j(dir, journalFingerprint(true));
        j.appendSubmit(1, "warm-key", spec);
        core::SupervisorConfig sup;
        sup.checkpointPeriods = 40;
        sup.checkpointPath = j.checkpointPathFor(1);
        core::MissionSupervisor supervisor(spec.toConfig(), sup);
        supervisor.run();
        ASSERT_GT(supervisor.stats().checkpointsTaken, 0u);
    }

    ServerConfig cfg;
    cfg.workers = 1;
    cfg.journalDir = dir;
    MissionServer server(cfg);
    server.start();
    EXPECT_EQ(server.stats().journalReplayedJobs, 1u);

    ServeClient client(server.port());
    ServedResult r = client.waitResult(1);
    EXPECT_EQ(servedHash(r), localTrajectoryHash(spec))
        << "warm-restored trajectory drifted from the clean run";
    EXPECT_EQ(server.stats().warmRestoredJobs, 1u)
        << "checkpoint was ignored — the job ran cold";
    server.stop();
}

TEST(ServeDurability, CorruptCheckpointFallsBackToColdRun)
{
    // Garbage where the checkpoint should be must never fail the
    // mission: resume is best-effort, the cold path is the answer.
    std::string dir = serveScratchDir("coldfb");
    core::MissionSpec spec = quickSpec(5);
    {
        JobJournal j(dir, journalFingerprint(true));
        j.appendSubmit(1, "", spec);
        std::ofstream f(j.checkpointPathFor(1), std::ios::binary);
        f << "this is not a ROSECKPT file";
    }

    ServerConfig cfg;
    cfg.workers = 1;
    cfg.journalDir = dir;
    MissionServer server(cfg);
    server.start();
    ServeClient client(server.port());
    ServedResult r = client.waitResult(1);
    EXPECT_EQ(servedHash(r), localTrajectoryHash(spec));
    EXPECT_EQ(server.stats().warmRestoredJobs, 0u);
    EXPECT_EQ(server.stats().completed, 1u);
    server.stop();
}

TEST(ServeDurability, ReconnectingClientSurvivesDroppedConnections)
{
    // The client half under chaos: every connection severed while a
    // result is pending. A reconnect-enabled client redials with
    // backoff, its auto-minted idempotency key makes the resubmission
    // land on the original job, and the fetched bytes stay
    // bit-identical.
    ServerConfig cfg;
    cfg.workers = 1;
    MissionServer server(cfg);
    server.start();

    ServeClient client(server.port());
    ReconnectConfig rc;
    rc.backoff.baseMs = 1;
    rc.backoff.capMs = 20;
    rc.maxEpisodes = 50;
    client.enableReconnect(rc);

    core::MissionSpec spec = quickSpec(6);
    SubmitOutcome out = client.submit(spec);
    ASSERT_TRUE(out.accepted);
    EXPECT_FALSE(out.idempotencyKey.empty())
        << "reconnect-enabled submits must be idempotent";
    ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &s) {
        return s.completed == 1;
    }));

    // Sever everything; the next client call transparently redials.
    server.dropConnections();
    ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &s) {
        return s.connectionsOpen == 0;
    }));

    SubmitOutcome retry = client.submit(spec, out.idempotencyKey);
    ASSERT_TRUE(retry.accepted);
    EXPECT_EQ(retry.jobId, out.jobId) << "retry ran the mission twice";
    EXPECT_GE(client.reconnects(), 1u);

    ServedResult r = client.waitResult(out.jobId);
    EXPECT_EQ(servedHash(r), localTrajectoryHash(spec));
    EXPECT_EQ(client.status(out.jobId).state, JobState::Unknown);
    server.stop();
}

TEST(ServeDurability, KillLoopStreamStaysBitIdentical)
{
    // Kill-restart-loop chaos on the stream path: connections are
    // severed repeatedly while a multi-megabyte result streams. The
    // client's resume offsets + the server's retained record must
    // reassemble the exact bytes no matter where the cuts land (the
    // assembler's full-payload hash check makes any drift fatal).
    core::MissionSpec spec = canonicalSpec("A", 2.2);
    spec.syncGranularity = 20000; // ~8.8 MiB of trajectory CSV

    ServerConfig cfg;
    cfg.workers = 1;
    cfg.resultChunkBytes = 16 * 1024; // many chunks
    cfg.streamBacklogBytes = 64 * 1024;
    cfg.sendBufferBytes = 16 * 1024;
    cfg.pollIntervalMs = 2;
    MissionServer server(cfg);
    server.start();

    ServeClient client(server.port(), "127.0.0.1", 120000);
    ReconnectConfig rc;
    rc.backoff.baseMs = 1;
    rc.backoff.capMs = 10;
    rc.maxEpisodes = 500;
    client.enableReconnect(rc);

    SubmitOutcome out = client.submit(spec);
    ASSERT_TRUE(out.accepted) << out.detail;
    ASSERT_TRUE(eventually(
        server,
        [](const ServerStatsSnapshot &s) { return s.completed == 1; },
        60000));

    // Guarantee at least one reconnect (sever before the fetch), then
    // keep cutting while the stream runs.
    server.dropConnections();
    ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &s) {
        return s.connectionsOpen == 0;
    }));
    std::atomic<bool> done{false};
    std::thread chaos([&] {
        for (int i = 0; i < 40 && !done.load(); ++i) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(15));
            server.dropConnections();
        }
    });

    ServedResult r;
    try {
        r = client.waitResult(out.jobId, 120000);
    } catch (...) {
        done.store(true);
        chaos.join();
        throw;
    }
    done.store(true);
    chaos.join();

    core::MissionResult local = core::runMission(spec);
    std::string localCsv = core::trajectoryCsvString(local);
    std::string servedCsv = core::trajectoryCsvString(r.trajectory);
    EXPECT_EQ(fnv1a(servedCsv), fnv1a(localCsv));
    EXPECT_TRUE(servedCsv == localCsv)
        << "bytes drifted across reconnect-resume";
    EXPECT_GE(client.reconnects(), 1u);
    server.stop();
}

// ================================================= pipelined encoding

namespace {

/** One mission marshalled both ways: through an encoder thread fed
 *  its snapshots, as a rosed worker does, and in one shot. */
struct PipelinedRun
{
    core::MissionResult result;
    core::SupervisorStats supervisor;
    ServedResult pipelined;
    ServedResult oneShot;
    /** Samples finish() took from the encoder thread. */
    size_t reused = 0;
    /** Chunk lists posted, and the samples the last one held. */
    size_t posts = 0;
    size_t lastPostedSamples = 0;
};

/** The records and both hashes agree. */
void
expectSameEncoding(const PipelinedRun &run)
{
    EXPECT_EQ(run.pipelined.trajectoryRecords.size(),
              run.result.trajectory.size() * kTrajectoryBinaryRecordBytes);
    EXPECT_TRUE(run.pipelined.trajectoryRecords ==
                run.oneShot.trajectoryRecords)
        << "pipelined records differ from the one-shot encoding";
    EXPECT_EQ(run.pipelined.trajectoryHash, run.oneShot.trajectoryHash);
    EXPECT_EQ(run.pipelined.payloadHash, run.oneShot.payloadHash);
}

/** Run @p spec under @p sup with every snapshot posted to @p encoder,
 *  then finish it there and marshal it in one shot. */
PipelinedRun
runPipelined(EncoderThread &encoder, const core::CosimConfig &cfg,
             core::SupervisorConfig sup)
{
    PipelinedRun run;
    sup.snapshotObserver =
        [&](const std::vector<core::TrajectoryChunk> &chunks) {
            encoder.post(chunks);
            ++run.posts;
            run.lastPostedSamples = 0;
            for (const core::TrajectoryChunk &c : chunks)
                run.lastPostedSamples += c->size();
        };
    core::MissionSupervisor supervisor(cfg, sup);
    run.result = supervisor.run();
    run.supervisor = supervisor.stats();
    run.pipelined = encoder.finish(run.result);
    run.reused = encoder.reusedSamples();
    run.oneShot = marshalResult(run.result);
    return run;
}

/** A heavy-trajectory mission, as perfbench's serve_long sends:
 *  10,000 samples at 20 k-cycle sync. */
core::MissionSpec
heavySpec(uint64_t seed = 1)
{
    core::MissionSpec spec = canonicalSpec("A", 0.2);
    spec.syncGranularity = 20000;
    spec.seed = seed;
    return spec;
}

/** rosed's snapshot cadence for heavySpec: 64 snapshots at most. */
core::SupervisorConfig
heavySupervisor()
{
    core::SupervisorConfig sup;
    sup.checkpointPeriods = 157;
    return sup;
}

/** Drops sync packets often enough to abort an unsupervised mission
 *  (mirrors test_supervisor's hostile profile). */
bridge::FaultConfig
hostileFaults()
{
    bridge::FaultConfig f;
    f.enabled = true;
    f.protectSyncPackets = false;
    f.dropProb = 0.002;
    f.seed = 0xfa017;
    return f;
}

/** The chunk lists one supervised run of @p spec posts. */
std::vector<std::vector<core::TrajectoryChunk>>
postedLists(const core::MissionSpec &spec, core::MissionResult *result)
{
    std::vector<std::vector<core::TrajectoryChunk>> lists;
    core::SupervisorConfig sup = heavySupervisor();
    sup.snapshotObserver =
        [&](const std::vector<core::TrajectoryChunk> &chunks) {
            lists.push_back(chunks);
        };
    *result = core::MissionSupervisor(spec.toConfig(), sup).run();
    return lists;
}

size_t
sampleTotal(const std::vector<core::TrajectoryChunk> &chunks)
{
    size_t n = 0;
    for (const core::TrajectoryChunk &c : chunks)
        n += c->size();
    return n;
}

} // namespace

TEST(ServeEncoder, UnperturbedRunReusesEverySnapshot)
{
    EncoderThread encoder;
    PipelinedRun run = runPipelined(encoder, heavySpec().toConfig(),
                                    heavySupervisor());
    ASSERT_EQ(run.result.trajectory.size(), 10000u);
    ASSERT_GT(run.posts, 50u);
    expectSameEncoding(run);
    EXPECT_EQ(run.pipelined.payloadHash, 0xf9db173143998d4eULL);
    // Only the samples after the last snapshot were left to finish().
    EXPECT_EQ(run.reused, run.lastPostedSamples);
}

TEST(ServeEncoder, FaultRestoreKeepsTheRestoredPrefix)
{
    // Restores adopt the snapshot's chunks, so the chunks encoded
    // before a fault stay the trajectory's; the samples the failed
    // attempt ran past them were never sealed, so never encoded.
    core::MissionSpec spec = canonicalSpec("A", 6.0);
    spec.faults = hostileFaults();
    core::SupervisorConfig sup;
    sup.checkpointPeriods = 20;
    sup.checkpointRingSize = 4;
    sup.maxRetries = 50;
    sup.faultPolicy = core::FaultRetryPolicy::RerollSeed;
    EncoderThread encoder;
    PipelinedRun run = runPipelined(encoder, spec.toConfig(), sup);
    ASSERT_NE(run.result.status, core::MissionStatus::Crashed)
        << run.result.failureReason;
    ASSERT_GT(run.supervisor.restores, 0u)
        << "the hostile profile never tripped — test is vacuous";
    expectSameEncoding(run);
    EXPECT_EQ(run.reused, run.lastPostedSamples);
    EXPECT_GT(run.reused, 0u);
}

TEST(ServeEncoder, ColdRestartReEncodesTheNewRun)
{
    // TCP cannot be snapshotted: the first lost sync packet falls back
    // to the in-process channel with nothing in the ring, a cold
    // restart whose snapshots are the only ones posted.
    core::MissionSpec spec = canonicalSpec("A", 3.0);
    spec.faults = hostileFaults();
    core::CosimConfig cfg = spec.toConfig();
    cfg.transport = core::TransportKind::Tcp;
    cfg.sync.syncDeadlineMs = 50;
    core::SupervisorConfig sup;
    sup.checkpointPeriods = 20;
    sup.maxRetries = 50;
    EncoderThread encoder;
    PipelinedRun run = runPipelined(encoder, cfg, sup);
    ASSERT_NE(run.result.status, core::MissionStatus::Crashed)
        << run.result.failureReason;
    ASSERT_GT(run.supervisor.coldRestarts, 0u);
    ASSERT_GT(run.posts, 0u);
    expectSameEncoding(run);
    EXPECT_EQ(run.reused, run.lastPostedSamples);
}

TEST(ServeEncoder, JournalWarmResumeReusesTheResumedChunk)
{
    // As ServeDurability.WarmRestoreResumesFromPersistedCheckpoint: a
    // previous incarnation left the job's checkpoint file, the resumed
    // run restores its samples as one chunk, and every later snapshot
    // posts that chunk first.
    std::string dir = serveScratchDir("encoder_warm");
    core::MissionSpec spec = heavySpec();
    const std::string path = dir + "/job-1.ckpt";
    {
        core::SupervisorConfig sup = heavySupervisor();
        sup.checkpointPeriods = 4000; // the file ends mid-mission
        sup.checkpointPath = path;
        core::MissionSupervisor first(spec.toConfig(), sup);
        first.run();
        ASSERT_EQ(first.stats().checkpointsTaken, 2u);
    }
    core::SupervisorConfig sup = heavySupervisor();
    sup.resumeFromPath = path;
    EncoderThread encoder;
    PipelinedRun run = runPipelined(encoder, spec.toConfig(), sup);
    ASSERT_EQ(run.supervisor.diskResumes, 1u);
    ASSERT_GT(run.posts, 0u);
    expectSameEncoding(run);
    EXPECT_EQ(run.pipelined.payloadHash, 0xf9db173143998d4eULL);
    EXPECT_EQ(run.reused, run.lastPostedSamples);
    EXPECT_GT(run.reused, 8000u); // the resumed chunk
    std::filesystem::remove_all(dir);
}

TEST(ServeEncoder, CrashedJobPublishesNothingFromTheEncoder)
{
    // A position bound tighter than the corridor: every restore
    // replays into the same wall and the job ends Crashed. Its
    // trajectory is whatever the last attempt left, encoded afresh.
    core::SupervisorConfig sup;
    sup.checkpointPeriods = 50;
    sup.maxRetries = 2;
    sup.positionBoundM = 5.0;
    EncoderThread encoder;
    PipelinedRun run =
        runPipelined(encoder, canonicalSpec("A").toConfig(), sup);
    ASSERT_EQ(run.result.status, core::MissionStatus::Crashed);
    ASSERT_GT(run.lastPostedSamples, 0u);
    ASSERT_FALSE(run.result.trajectory.empty());
    expectSameEncoding(run);
    EXPECT_EQ(run.reused, 0u);
}

TEST(ServeEncoder, UnsupervisedJobEncodesAtTheEnd)
{
    // A --no-supervise job posts nothing. Even right after a
    // supervised run of the same spec, whose chunks hold exactly its
    // samples, the encoder carries nothing over from that job.
    EncoderThread encoder;
    PipelinedRun supervised = runPipelined(
        encoder, heavySpec().toConfig(), heavySupervisor());
    ASSERT_GT(supervised.reused, 0u);

    core::MissionResult bare = core::runMission(heavySpec());
    ServedResult pipelined = encoder.finish(bare);
    ServedResult oneShot = marshalResult(bare);
    EXPECT_EQ(encoder.reusedSamples(), 0u);
    EXPECT_TRUE(pipelined.trajectoryRecords == oneShot.trajectoryRecords);
    EXPECT_EQ(pipelined.trajectoryHash, oneShot.trajectoryHash);
    EXPECT_EQ(pipelined.payloadHash, oneShot.payloadHash);
    EXPECT_EQ(pipelined.payloadHash, 0xf9db173143998d4eULL);
}

TEST(ServeEncoder, KeepsOnlyThePrefixTheTrajectoryHolds)
{
    // Chunk lists of another mission: the thread drops them when a
    // list no longer leads with them, and finish() refuses any the
    // final trajectory does not hold bit for bit.
    core::MissionSpec other = heavySpec();
    other.initialYawDeg = 10.0;
    core::MissionResult x, y;
    std::vector<std::vector<core::TrajectoryChunk>> xs =
        postedLists(other, &x);
    std::vector<std::vector<core::TrajectoryChunk>> ys =
        postedLists(heavySpec(), &y);
    ASSERT_FALSE(xs.empty());
    ASSERT_FALSE(ys.empty());
    const std::vector<core::TrajectorySample> &x0 = *xs.back()[0];
    ASSERT_NE(std::memcmp(x0.data(), y.trajectory.data(),
                          x0.size() * sizeof(core::TrajectorySample)),
              0)
        << "the two missions start alike — test is vacuous";
    const ServedResult oneShot = marshalResult(y);

    EncoderThread encoder;
    for (const auto &l : xs)
        encoder.post(l);
    for (const auto &l : ys)
        encoder.post(l);
    ServedResult s = encoder.finish(y);
    EXPECT_EQ(encoder.reusedSamples(), sampleTotal(ys.back()));
    EXPECT_TRUE(s.trajectoryRecords == oneShot.trajectoryRecords);
    EXPECT_EQ(s.payloadHash, oneShot.payloadHash);

    for (const auto &l : xs)
        encoder.post(l);
    s = encoder.finish(y);
    EXPECT_EQ(encoder.reusedSamples(), 0u);
    EXPECT_TRUE(s.trajectoryRecords == oneShot.trajectoryRecords);
    EXPECT_EQ(s.trajectoryHash, oneShot.trajectoryHash);
    EXPECT_EQ(s.payloadHash, oneShot.payloadHash);
}

namespace {

/** Threads of this process. */
size_t
threadCount()
{
    size_t n = 0;
    for ([[maybe_unused]] const auto &e :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

} // namespace

TEST(ServeServer, ThreeWorkersEncodeWhileMissionsRun)
{
    // Three workers, each with its encoder thread taking the chunks of
    // a heavy supervised mission while the mission runs: every served
    // result is the one-shot encoding of the local run.
    const size_t threads_before = threadCount();
    {
        ServerConfig cfg;
        cfg.workers = 3;
        MissionServer server(cfg);
        server.start();
        ServeClient client(server.port());
        std::vector<uint64_t> ids;
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            SubmitOutcome out = client.submit(heavySpec(seed));
            ASSERT_TRUE(out.accepted) << out.detail;
            ids.push_back(out.jobId);
        }
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            ServedResult r = client.waitResult(ids[seed - 1]);
            ServedResult local =
                marshalResult(core::runMission(heavySpec(seed)));
            EXPECT_EQ(r.trajectoryHash, local.trajectoryHash);
            EXPECT_EQ(servedHash(r), local.trajectoryHash);
            EXPECT_EQ(encodeTrajectoryBinary(r.trajectory),
                      local.trajectoryRecords);
        }
        server.stop();
    }

    // Stopping with missions running, in drain and in immediate mode,
    // joins every worker and its encoder thread.
    for (bool drain : {true, false}) {
        SCOPED_TRACE(drain ? "drain" : "immediate");
        ServerConfig cfg;
        cfg.workers = 3;
        cfg.perClientInFlight = 16;
        MissionServer server(cfg);
        server.start();
        server.pauseWorkers();
        ServeClient client(server.port());
        constexpr uint64_t kJobs = 9;
        for (uint64_t seed = 1; seed <= kJobs; ++seed) {
            core::MissionSpec spec = heavySpec(seed);
            spec.maxSimSeconds = 0.5;
            ASSERT_TRUE(client.submit(spec).accepted);
        }
        server.resumeWorkers();
        ASSERT_TRUE(eventually(server, [](const ServerStatsSnapshot &s) {
            return s.running == 3;
        }));
        server.stop(drain);
        ServerStatsSnapshot s = server.stats();
        EXPECT_EQ(s.failed, 0u);
        if (drain) {
            EXPECT_EQ(s.completed, kJobs);
        } else {
            EXPECT_GE(s.completed, 3u);
            EXPECT_EQ(s.completed + s.cancelled, kJobs);
        }
    }
    EXPECT_EQ(threadCount(), threads_before)
        << "a worker or encoder thread outlived its server";
}
