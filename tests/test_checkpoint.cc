/**
 * @file
 * Tests for the resilience layer's state machinery: the serde
 * primitives, checkpoint capture/restore (including bit-identical
 * golden resume of the canonical missions), the disk format, the
 * in-memory ring, and the fail-fast physics divergence guard.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.hh"
#include "core/cosim.hh"
#include "core/experiment.hh"
#include "core/supervisor.hh"
#include "env/envsim.hh"
#include "env/vehicle.hh"
#include "golden_corpus.hh"
#include "util/hash.hh"
#include "util/rng.hh"
#include "util/serde.hh"

using namespace rose;
using namespace rose::core;

// ------------------------------------------------------------------ serde

TEST(Serde, RoundTripsEveryType)
{
    StateWriter w;
    w.u8(0xAB);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFULL);
    w.f64(-1.5e-300);
    w.f32(3.25f);
    w.boolean(true);
    w.boolean(false);
    w.str("rosé");
    w.str("");

    StateReader r(w.data());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(r.f64(), -1.5e-300);
    EXPECT_EQ(r.f32(), 3.25f);
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_EQ(r.str(), "rosé");
    EXPECT_EQ(r.str(), "");
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serde, FloatBitPatternsSurviveExactly)
{
    // Checkpoint determinism rests on doubles round-tripping as bit
    // patterns, including the values ordinary text formatting mangles.
    const double values[] = {
        0.0, -0.0, 1.0 / 3.0, std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
    };
    StateWriter w;
    for (double v : values)
        w.f64(v);
    StateReader r(w.data());
    for (double v : values) {
        double got = r.f64();
        uint64_t vb, gb;
        std::memcpy(&vb, &v, 8);
        std::memcpy(&gb, &got, 8);
        EXPECT_EQ(vb, gb);
    }
}

TEST(Serde, UnderrunThrows)
{
    StateWriter w;
    w.u32(7);
    StateReader r(w.data());
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_THROW(r.u8(), SerdeError);

    StateReader r2(w.data());
    EXPECT_THROW(r2.u64(), SerdeError);

    // A string whose declared length exceeds the buffer must throw,
    // not read out of bounds.
    StateWriter w3;
    w3.u32(1000);
    StateReader r3(w3.data());
    EXPECT_THROW(r3.str(), SerdeError);
}

TEST(Serde, SkipStepsOverBytes)
{
    StateWriter w;
    w.u32(1);
    w.u32(2);
    w.u32(3);
    StateReader r(w.data());
    r.skip(4);
    EXPECT_EQ(r.u32(), 2u);
    EXPECT_THROW(r.skip(100), SerdeError);
}

// ----------------------------------------------------------------- ring

TEST(CheckpointRing, EvictsOldestAtCapacity)
{
    CheckpointRing ring(2);
    EXPECT_TRUE(ring.empty());
    EXPECT_THROW(ring.latest(), CheckpointError);
    EXPECT_THROW(ring.oldest(), CheckpointError);

    for (uint64_t p = 1; p <= 4; ++p) {
        Checkpoint ck;
        ck.period = p;
        ring.push(ck);
    }
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring.oldest().period, 3u);
    EXPECT_EQ(ring.latest().period, 4u);

    EXPECT_TRUE(ring.dropLatest());
    EXPECT_EQ(ring.latest().period, 3u);
    EXPECT_TRUE(ring.dropLatest());
    EXPECT_FALSE(ring.dropLatest());
    EXPECT_TRUE(ring.empty());
}

// ------------------------------------------------------- capture/restore

namespace {

/** The snapshot as format v1 holds it: samples inline, no chunks. */
Checkpoint
asV1(const Checkpoint &ck)
{
    Checkpoint v1 = ck;
    v1.state = materializeV1State(ck);
    v1.trajectory.clear();
    return v1;
}

uint64_t
trajectoryHash(const MissionResult &r)
{
    return fnv1a(core::trajectoryCsvString(r));
}

} // namespace

TEST(Checkpoint, CaptureIsSideEffectFree)
{
    // Taking a checkpoint must not perturb the simulation: two
    // interleaved captures of the same instant are byte-identical.
    CosimConfig cfg = test::goldenSpec("A").toConfig();
    cfg.maxSimSeconds = 2.0;
    CoSimulation sim(cfg);
    for (int i = 0; i < 25; ++i)
        sim.stepPeriod();

    Checkpoint a = sim.checkpoint();
    Checkpoint b = sim.checkpoint();
    EXPECT_EQ(materializeV1State(a), materializeV1State(b));
    EXPECT_EQ(a.period, 25u);

    // And the run that was captured continues exactly like a twin that
    // never was.
    CoSimulation twin(cfg);
    for (int i = 0; i < 26; ++i)
        twin.stepPeriod();
    sim.stepPeriod();
    EXPECT_EQ(materializeV1State(sim.checkpoint()),
              materializeV1State(twin.checkpoint()));
}

namespace {

// FNV-1a of the v1 blob (materializeV1State of checkpoint()) for
// golden A after kPinnedPeriods sync periods (250 trajectory samples).
// The blob is format v1 as the per-field serializer wrote it; a faster
// encoding must reproduce it byte for byte, or checkpoints on disk stop
// restoring.
//
// The pin holds for glibc's default libm variant only (the one it
// picks on an AVX2/FMA host). The blob stores full doubles whose last
// bits come from libm: the vehicle's physics state and the camera's
// Box-Muller spare. glibc's non-FMA variants
// (GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F) round some
// log/sin/cos/atan2 results differently, which moves those bits
// (FNV 0x07bf54605388dff9) although no trajectory CSV changes. The
// cross-libm contract covers the trajectories (CI runs test_golden
// under that setting); checkpoint bytes are outside it (DESIGN.md
// §5d).
constexpr uint64_t kPinnedPeriods = 250;
constexpr uint64_t kPinnedStateHash = 0x591237f0fa93b91fULL;

} // namespace

TEST(Checkpoint, StateBytesArePinned)
{
    CoSimulation sim(test::goldenSpec("A").toConfig());
    for (uint64_t i = 0; i < kPinnedPeriods; ++i)
        sim.stepPeriod();
    const std::vector<uint8_t> v1 = materializeV1State(sim.checkpoint());
    char actual[32];
    std::snprintf(actual, sizeof(actual), "0x%016llx",
                  (unsigned long long)fnv1a(v1.data(), v1.size()));
    EXPECT_EQ(fnv1a(v1.data(), v1.size()), kPinnedStateHash)
        << "checkpoint bytes changed (actual " << actual << ", "
        << v1.size() << " bytes)";
}

TEST(Checkpoint, CosimSectionDecodesFieldByField)
{
    // The Cosim section is the leading one: u64 period counter, the
    // metric accumulators, then u32 sample count and (in v1) 11
    // little-endian fields per sample in declaration order.
    CoSimulation sim(test::goldenSpec("A").toConfig());
    for (int i = 0; i < 120; ++i)
        sim.stepPeriod();
    const std::vector<uint8_t> v1 = materializeV1State(sim.checkpoint());
    MissionResult live = sim.collectResult();
    ASSERT_FALSE(live.trajectory.empty());

    StateReader r(v1);
    ASSERT_EQ(CkptSection(r.u8()), CkptSection::Cosim);
    uint32_t len = r.u32();
    ASSERT_LE(len, r.remaining());
    StateReader body(v1.data() + r.pos(), len);
    EXPECT_EQ(body.u64(), sim.periods());
    double speed_sum = body.f64();
    EXPECT_EQ(body.f64(), live.maxSpeed);
    uint64_t speed_n = body.u64();
    EXPECT_EQ(speed_sum / double(speed_n), live.avgSpeed);
    body.skip(3 * sizeof(double)); // previous position
    EXPECT_EQ(body.f64(), live.distanceTravelled);

    ASSERT_EQ(body.u32(), live.trajectory.size());
    for (const TrajectorySample &s : live.trajectory) {
        EXPECT_EQ(body.f64(), s.time);
        EXPECT_EQ(body.f64(), s.position.x);
        EXPECT_EQ(body.f64(), s.position.y);
        EXPECT_EQ(body.f64(), s.position.z);
        EXPECT_EQ(body.f64(), s.yaw);
        EXPECT_EQ(body.f64(), s.speed);
        EXPECT_EQ(body.f64(), s.lateralOffset);
        EXPECT_EQ(body.u64(), s.collisions);
        EXPECT_EQ(body.f64(), s.cmdForward);
        EXPECT_EQ(body.f64(), s.cmdLateral);
        EXPECT_EQ(body.f64(), s.cmdYawRate);
    }
    EXPECT_EQ(body.remaining(), 0u);
}

TEST(Checkpoint, RestoreRoundTripsToIdenticalState)
{
    CosimConfig cfg = test::goldenSpec("A").toConfig();
    CoSimulation sim(cfg);
    for (int i = 0; i < 50; ++i)
        sim.stepPeriod();
    Checkpoint ck = sim.checkpoint();

    // Restore into a *fresh* instance and re-capture: the blob must be
    // byte-identical, i.e. save/restore are exact inverses.
    CoSimulation sim2(cfg);
    sim2.restore(ck);
    Checkpoint ck2 = sim2.checkpoint();
    EXPECT_EQ(materializeV1State(ck), materializeV1State(ck2));
    EXPECT_EQ(ck2.period, 50u);
    EXPECT_DOUBLE_EQ(ck2.simTime, ck.simTime);
}

TEST(Checkpoint, ResumeMatchesGoldenTraces)
{
    // The headline contract: run halfway, checkpoint, restore into a
    // fresh co-simulation, finish — and land on the same checked-in
    // FNV-1a trajectory hash as the uninterrupted golden run, for all
    // three Table 2 configs.
    for (const test::GoldenRow &g : test::kCanonicalRows) {
        SCOPED_TRACE(g.spec);
        CosimConfig cfg = core::parseMissionSpec(g.spec).toConfig();

        CoSimulation first(cfg);
        while (first.environment().simTime() < 5.0)
            first.stepPeriod();
        Checkpoint ck = first.checkpoint();

        CoSimulation resumed(cfg);
        resumed.restore(ck);
        MissionResult r = resumed.run();

        EXPECT_EQ(r.trajectory.size(), g.samples);
        EXPECT_EQ(r.collisions, g.collisions);
        EXPECT_EQ(fnv1a(core::trajectoryCsvString(r)), g.hash)
            << "resumed trajectory diverged from the golden trace";
    }
}

TEST(Checkpoint, RefusesForeignConfig)
{
    CosimConfig cfg = test::goldenSpec("A").toConfig();
    CoSimulation sim(cfg);
    for (int i = 0; i < 10; ++i)
        sim.stepPeriod();
    Checkpoint ck = sim.checkpoint();

    CosimConfig other = test::goldenSpec("B").toConfig();
    CoSimulation sim2(other);
    EXPECT_THROW(sim2.restore(ck), CheckpointError);

    Checkpoint bad = ck;
    bad.version = 99;
    EXPECT_THROW(sim.restore(bad), CheckpointError);

    // In a v1 blob, a trajectory count past the end of its section is
    // refused before anything is sized by it (the u32 follows the tag,
    // the section length, and 8 eight-byte Cosim fields).
    Checkpoint inflated = asV1(ck);
    for (size_t i = 0; i < 4; ++i)
        inflated.state.at(1 + 4 + 8 * 8 + i) = 0xff;
    EXPECT_THROW(sim.restore(inflated), SerdeError);
}

TEST(Checkpoint, FingerprintIgnoresResilienceKnobs)
{
    // The supervisor mutates faults / transport / time limits between
    // capture and restore; the fingerprint must not change with them.
    CosimConfig cfg = test::goldenSpec("A").toConfig();
    uint64_t base = configFingerprint(cfg);

    CosimConfig tweaked = cfg;
    tweaked.faults.enabled = true;
    tweaked.faults.dropProb = 0.5;
    tweaked.transport = TransportKind::Tcp;
    tweaked.maxSimSeconds = 99.0;
    tweaked.sync.syncDeadlineMs = 1;
    tweaked.app.sensorTimeoutCycles = 123;
    EXPECT_EQ(configFingerprint(tweaked), base);

    CosimConfig different = cfg;
    different.env.seed = 2;
    EXPECT_NE(configFingerprint(different), base);
}

TEST(Checkpoint, TcpTransportIsNotCheckpointable)
{
    CosimConfig cfg = test::goldenSpec("A").toConfig();
    cfg.transport = TransportKind::Tcp;
    CoSimulation sim(cfg);
    EXPECT_FALSE(sim.checkpointable());
    EXPECT_THROW(sim.checkpoint(), CheckpointError);
}

TEST(Checkpoint, FaultInjectorStateIsCaptured)
{
    // A faulty run checkpoints the injector (its RNG position and
    // held packets); restore + resume must replay identically.
    core::MissionSpec spec = test::goldenSpec("A");
    spec.maxSimSeconds = 4.0;
    spec.faults.enabled = true;
    spec.faults.dropProb = 0.05;
    spec.faults.delayProb = 0.05;
    CosimConfig cfg = spec.toConfig();

    CoSimulation first(cfg);
    while (first.environment().simTime() < 2.0)
        first.stepPeriod();
    Checkpoint ck = first.checkpoint();
    MissionResult rest = first.run();

    CoSimulation resumed(cfg);
    resumed.restore(ck);
    MissionResult rest2 = resumed.run();

    EXPECT_EQ(core::trajectoryCsvString(rest),
              core::trajectoryCsvString(rest2));
    EXPECT_EQ(rest.inferences, rest2.inferences);
}

// ------------------------------------------------------------ disk format

TEST(CheckpointFile, RoundTripsAndValidates)
{
    CosimConfig cfg = test::goldenSpec("A").toConfig();
    CoSimulation sim(cfg);
    for (int i = 0; i < 20; ++i)
        sim.stepPeriod();
    Checkpoint ck = sim.checkpoint();

    std::string path = ::testing::TempDir() + "rose_ckpt_test.bin";
    writeCheckpointFile(path, ck);
    Checkpoint back = readCheckpointFile(path);
    EXPECT_EQ(back.version, ck.version);
    EXPECT_EQ(back.period, ck.period);
    EXPECT_EQ(back.configFingerprint, ck.configFingerprint);
    EXPECT_EQ(back.state, materializeV1State(ck));
    EXPECT_TRUE(back.trajectory.empty());

    // And it actually restores.
    CoSimulation sim2(cfg);
    sim2.restore(back);
    EXPECT_EQ(sim2.periods(), 20u);
    std::remove(path.c_str());
}

TEST(CheckpointFile, DetectsCorruptionAndTruncation)
{
    CosimConfig cfg = test::goldenSpec("A").toConfig();
    CoSimulation sim(cfg);
    for (int i = 0; i < 5; ++i)
        sim.stepPeriod();
    Checkpoint ck = sim.checkpoint();

    std::string path = ::testing::TempDir() + "rose_ckpt_corrupt.bin";
    writeCheckpointFile(path, ck);

    // Flip one byte in the middle of the state blob.
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(64);
        char c;
        f.seekg(64);
        f.get(c);
        f.seekp(64);
        f.put(char(c ^ 0x40));
    }
    EXPECT_THROW(readCheckpointFile(path), CheckpointError);

    // Truncate the file.
    writeCheckpointFile(path, ck);
    {
        std::ifstream in(path, std::ios::binary);
        std::vector<char> all((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
        in.close();
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(all.data(), std::streamsize(all.size() / 2));
    }
    EXPECT_THROW(readCheckpointFile(path), CheckpointError);

    // A state length far beyond the bytes present (magic 8 + version 4
    // + period 8 + simTime 8 + fingerprint 8 + hash 8 puts it at byte
    // 44) is rejected before anything is sized by it.
    writeCheckpointFile(path, ck);
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(44);
        const char inflated[4] = {'\xff', '\xff', '\xff', '\xff'};
        f.write(inflated, sizeof(inflated));
    }
    EXPECT_THROW(readCheckpointFile(path), CheckpointError);

    // Bad magic.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "NOTACKPTxxxxxxxxxxxxxxxx";
    }
    EXPECT_THROW(readCheckpointFile(path), CheckpointError);

    EXPECT_THROW(readCheckpointFile(path + ".does-not-exist"),
                 CheckpointError);
    std::remove(path.c_str());
}

TEST(CheckpointFile, SeededDamageThrowsCheckpointError)
{
    CosimConfig cfg = test::goldenSpec("A").toConfig();
    CoSimulation sim(cfg);
    for (int i = 0; i < 20; ++i)
        sim.stepPeriod();
    Checkpoint ck = sim.checkpoint();

    std::string path = ::testing::TempDir() + "rose_ckpt_fuzz.bin";
    writeCheckpointFile(path, ck);
    std::vector<char> good;
    {
        std::ifstream in(path, std::ios::binary);
        good.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    // Header: magic 8, version 4, period 8, simTime 8, fingerprint 8,
    // file hash 8, state length 4 (44 bytes), then the state blob.
    constexpr size_t kHeader = 44;
    ASSERT_GT(good.size(), kHeader);
    int unhashed_before = 0; // flips that v1 files let through

    for (uint64_t seed = 1; seed <= 400; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 0x9e3779b97f4a7c15ULL);
        std::vector<char> bad = good;
        size_t at = 0;
        const bool truncate = seed % 2 == 0;
        if (truncate) {
            bad.resize(rng.uniformInt(good.size()));
        } else {
            // Half the flips aim at the header, half anywhere.
            at = rng.uniformInt(seed % 4 == 1 ? kHeader : good.size());
            bad[at] = char(bad[at] ^ (1u << rng.uniformInt(8)));
        }
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(bad.data(), std::streamsize(bad.size()));
        }
        // The hash covers the whole header, so a damaged period,
        // simTime or fingerprint (bytes 12-36) is refused too.
        if (!truncate && at >= 12 && at < 36)
            ++unhashed_before;
        EXPECT_THROW(readCheckpointFile(path), CheckpointError);
    }
    EXPECT_GT(unhashed_before, 0);
    std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedStateIsRefused)
{
    // Every cut of a valid blob must be refused: inside a section by
    // the section and field bounds (SerdeError), at a section
    // boundary by the missing-section check (CheckpointError).
    CosimConfig cfg = test::goldenSpec("A").toConfig();
    CoSimulation sim(cfg);
    for (int i = 0; i < 30; ++i)
        sim.stepPeriod();
    const Checkpoint ck = asV1(sim.checkpoint());

    std::vector<size_t> cuts;
    for (size_t pos = 0; pos < ck.state.size();) {
        cuts.push_back(pos); // every section boundary
        StateReader r(ck.state.data() + pos, ck.state.size() - pos);
        r.u8();
        pos += 5 + r.u32();
    }
    Rng rng(0xc4e7);
    for (int i = 0; i < 300; ++i)
        cuts.push_back(rng.uniformInt(ck.state.size()));

    CoSimulation target(cfg);
    for (size_t cut : cuts) {
        SCOPED_TRACE("cut at " + std::to_string(cut));
        Checkpoint bad = ck;
        bad.state.resize(cut);
        bool refused = false;
        try {
            target.restore(bad);
        } catch (const SerdeError &) {
            refused = true;
        } catch (const CheckpointError &) {
            refused = true;
        }
        EXPECT_TRUE(refused);
    }
    // And the whole blob still restores into the same instance.
    target.restore(ck);
    EXPECT_EQ(materializeV1State(target.checkpoint()), ck.state);
}

// ------------------------------------------------- shared trajectory chunks

TEST(Checkpoint, SnapshotSizeStaysFlatAsTrajectoryGrows)
{
    // A snapshot shares the trajectory's sealed chunks instead of
    // copying samples, so its blob does not grow with the trajectory.
    CoSimulation sim(test::goldenSpec("A").toConfig());
    for (int i = 0; i < 100; ++i)
        sim.stepPeriod();
    const size_t early_samples = sim.collectResult().trajectory.size();
    const size_t early_bytes = sim.checkpoint().state.size();
    for (int i = 100; i < 1000; ++i)
        sim.stepPeriod();
    const size_t late_samples = sim.collectResult().trajectory.size();
    const Checkpoint late = sim.checkpoint();
    ASSERT_GE(late_samples, 10 * early_samples);

    // Only the App section's inference log grows; copying the new
    // samples would add 88 bytes each.
    const size_t grown = late.state.size() - early_bytes;
    EXPECT_LT(grown, (late_samples - early_samples) *
                         sizeof(TrajectorySample) / 10)
        << early_bytes << " -> " << late.state.size() << " bytes";
    EXPECT_EQ(materializeV1State(late).size(),
              late.state.size() + late_samples * sizeof(TrajectorySample));
}

TEST(Checkpoint, SnapshotOutlivesItsSimulation)
{
    // The chunks a snapshot holds stay valid after the simulation that
    // sealed them is gone (the supervisor's rebuild-then-restore path).
    CosimConfig cfg = test::goldenSpec("A").toConfig();
    Checkpoint ck;
    {
        auto first = std::make_unique<CoSimulation>(cfg);
        while (first->environment().simTime() < 3.0)
            first->stepPeriod();
        first->checkpoint();
        while (first->environment().simTime() < 5.0)
            first->stepPeriod();
        ck = first->checkpoint();
        ASSERT_EQ(ck.trajectory.size(), 2u);
    }
    CoSimulation resumed(cfg);
    resumed.restore(ck);
    MissionResult r = resumed.run();
    EXPECT_EQ(r.trajectory.size(), test::kCanonicalRows[0].samples);
    EXPECT_EQ(trajectoryHash(r), test::kCanonicalRows[0].hash);
}

TEST(Checkpoint, OldestRingEntryRestoresAfterLaterSnapshots)
{
    // Later snapshots seal more chunks in the same simulation; rewinding
    // to the oldest one must drop them and resume onto the golden hash.
    CosimConfig cfg = test::goldenSpec("A").toConfig();
    CoSimulation sim(cfg);
    CheckpointRing ring(3);
    for (double t : {2.0, 4.0, 6.0}) {
        while (sim.environment().simTime() < t)
            sim.stepPeriod();
        ring.push(sim.checkpoint());
    }
    while (sim.environment().simTime() < 7.0)
        sim.stepPeriod();
    const uint64_t oldest_period = ring.oldest().period;

    sim.restore(ring.oldest());
    EXPECT_EQ(sim.periods(), oldest_period);
    MissionResult r = sim.run();
    EXPECT_EQ(r.trajectory.size(), test::kCanonicalRows[0].samples);
    EXPECT_EQ(trajectoryHash(r), test::kCanonicalRows[0].hash);
}

TEST(Checkpoint, ChunkTotalMustMatchSectionCount)
{
    CosimConfig cfg = test::goldenSpec("A").toConfig();
    CoSimulation sim(cfg);
    for (int i = 0; i < 40; ++i)
        sim.stepPeriod();
    sim.checkpoint();
    for (int i = 0; i < 40; ++i)
        sim.stepPeriod();
    const Checkpoint ck = sim.checkpoint();
    ASSERT_EQ(ck.trajectory.size(), 2u);

    CoSimulation target(cfg);
    Checkpoint short_by_a_chunk = ck;
    short_by_a_chunk.trajectory.pop_back();
    EXPECT_THROW(target.restore(short_by_a_chunk), CheckpointError);
    EXPECT_THROW(materializeV1State(short_by_a_chunk), CheckpointError);

    // The count is the Cosim section's last field (after the tag, the
    // section length and 8 eight-byte fields).
    Checkpoint recounted = ck;
    recounted.state.at(1 + 4 + 8 * 8) ^= 1;
    EXPECT_THROW(target.restore(recounted), CheckpointError);

    // Samples both inline and in chunks are refused as well.
    Checkpoint doubled = asV1(ck);
    doubled.trajectory = ck.trajectory;
    EXPECT_THROW(target.restore(doubled), CheckpointError);

    target.restore(ck);
    EXPECT_EQ(target.periods(), 80u);
}

TEST(CheckpointFile, InMemorySnapshotRoundTripsThroughDisk)
{
    // A chunked snapshot written to disk reads back with its samples
    // inline and resumes onto the golden hash.
    CosimConfig cfg = test::goldenSpec("A").toConfig();
    CoSimulation sim(cfg);
    while (sim.environment().simTime() < 2.5)
        sim.stepPeriod();
    sim.checkpoint();
    while (sim.environment().simTime() < 5.0)
        sim.stepPeriod();
    const Checkpoint ck = sim.checkpoint();

    std::string path = ::testing::TempDir() + "rose_ckpt_chunked.bin";
    writeCheckpointFile(path, ck);
    CoSimulation resumed(cfg);
    resumed.restore(readCheckpointFile(path));
    std::remove(path.c_str());
    MissionResult r = resumed.run();
    EXPECT_EQ(trajectoryHash(r), test::kCanonicalRows[0].hash);
    EXPECT_EQ(trajectoryHash(r), trajectoryHash(sim.run()));
}

TEST(CheckpointFile, RefusesVersion1Files)
{
    // A v1 file left period, simTime and the fingerprint outside its
    // hash. Readers refuse it and name the version.
    CoSimulation sim(test::goldenSpec("A").toConfig());
    for (int i = 0; i < 10; ++i)
        sim.stepPeriod();
    const Checkpoint ck = sim.checkpoint();
    const std::vector<uint8_t> blob = materializeV1State(ck);
    StateWriter w;
    w.bytes(reinterpret_cast<const uint8_t *>("ROSECKPT"), 8);
    w.u32(1);
    w.u64(ck.period);
    w.f64(ck.simTime);
    w.u64(ck.configFingerprint);
    w.u64(fnv1a(blob.data(), blob.size()));
    w.u32(uint32_t(blob.size()));
    w.bytes(blob.data(), blob.size());

    std::string path = ::testing::TempDir() + "rose_ckpt_v1.bin";
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(w.data().data()),
                  std::streamsize(w.size()));
    }
    try {
        readCheckpointFile(path);
        ADD_FAILURE() << "a v1 checkpoint file was accepted";
    } catch (const CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("version 1"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

// ------------------------------------------------------ divergence guard

TEST(DivergenceGuard, NonFinitePhysicsStateFailsFast)
{
    env::EnvConfig cfg;
    env::EnvSim sim(cfg);
    sim.stepFrames(5);

    // Corrupt the vehicle state with a NaN position through the serde
    // path (position is the leading field of the drone's state blob).
    env::VehicleModel &vehicle = sim.mutableVehicle();
    StateWriter w;
    vehicle.saveState(w);
    std::vector<uint8_t> bytes = w.take();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::memcpy(bytes.data(), &nan, sizeof(nan));
    StateReader r(bytes);
    vehicle.restoreState(r);

    try {
        sim.stepFrames(1);
        FAIL() << "expected env::DivergenceError";
    } catch (const env::DivergenceError &e) {
        // The diagnostic dump names the offending state.
        EXPECT_NE(std::string(e.what()).find("non-finite"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("pos="), std::string::npos);
    }
}
