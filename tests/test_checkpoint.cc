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
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.hh"
#include "core/cosim.hh"
#include "core/experiment.hh"
#include "core/supervisor.hh"
#include "env/envsim.hh"
#include "env/vehicle.hh"
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

/** The canonical golden mission (mirrors tests/test_golden.cc). */
core::MissionSpec
canonicalSpec(const std::string &soc_name)
{
    core::MissionSpec spec;
    spec.world = "tunnel";
    spec.socName = soc_name;
    spec.modelDepth = 14;
    spec.velocity = 3.0;
    spec.initialYawDeg = 20.0;
    spec.seed = 1;
    spec.maxSimSeconds = 10.0;
    return spec;
}

struct Golden
{
    const char *socName;
    uint64_t trajectoryHash;
    size_t trajectorySamples;
    uint64_t collisions;
};

// Keep in sync with tests/test_golden.cc (regenerate there with
// ROSE_REGEN_GOLDEN=1). Resume-from-checkpoint must land on these
// exact hashes — that is the bit-identity contract.
constexpr Golden kGolden[] = {
    {"A", 0x2b24ad514f06c3cbULL, 1000, 0},
    {"B", 0x02771540364e358fULL, 1000, 0},
    {"C", 0x0e337585f9a29f6aULL, 1000, 27},
};

} // namespace

TEST(Checkpoint, CaptureIsSideEffectFree)
{
    // Taking a checkpoint must not perturb the simulation: two
    // interleaved captures of the same instant are byte-identical.
    CosimConfig cfg = canonicalSpec("A").toConfig();
    cfg.maxSimSeconds = 2.0;
    CoSimulation sim(cfg);
    for (int i = 0; i < 25; ++i)
        sim.stepPeriod();

    Checkpoint a = sim.checkpoint();
    Checkpoint b = sim.checkpoint();
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.period, 25u);

    // And the run that was captured continues exactly like a twin that
    // never was.
    CoSimulation twin(cfg);
    for (int i = 0; i < 26; ++i)
        twin.stepPeriod();
    sim.stepPeriod();
    EXPECT_EQ(sim.checkpoint().state, twin.checkpoint().state);
}

namespace {

// FNV-1a of checkpoint().state for golden A after kPinnedPeriods sync
// periods (250 trajectory samples). The blob is format v1 as the
// per-field serializer wrote it; a faster encoding must reproduce it
// byte for byte, or checkpoints on disk stop restoring.
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
    CoSimulation sim(canonicalSpec("A").toConfig());
    for (uint64_t i = 0; i < kPinnedPeriods; ++i)
        sim.stepPeriod();
    Checkpoint ck = sim.checkpoint();
    char actual[32];
    std::snprintf(actual, sizeof(actual), "0x%016llx",
                  (unsigned long long)fnv1a(ck.state.data(),
                                            ck.state.size()));
    EXPECT_EQ(fnv1a(ck.state.data(), ck.state.size()), kPinnedStateHash)
        << "checkpoint bytes changed (actual " << actual << ", "
        << ck.state.size() << " bytes)";
}

TEST(Checkpoint, CosimSectionDecodesFieldByField)
{
    // The Cosim section is the leading one: u64 period counter, the
    // metric accumulators, then u32 sample count and 11 little-endian
    // fields per sample in declaration order.
    CoSimulation sim(canonicalSpec("A").toConfig());
    for (int i = 0; i < 120; ++i)
        sim.stepPeriod();
    Checkpoint ck = sim.checkpoint();
    MissionResult live = sim.collectResult();
    ASSERT_FALSE(live.trajectory.empty());

    StateReader r(ck.state);
    ASSERT_EQ(CkptSection(r.u8()), CkptSection::Cosim);
    uint32_t len = r.u32();
    ASSERT_LE(len, r.remaining());
    StateReader body(ck.state.data() + r.pos(), len);
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
    CosimConfig cfg = canonicalSpec("A").toConfig();
    CoSimulation sim(cfg);
    for (int i = 0; i < 50; ++i)
        sim.stepPeriod();
    Checkpoint ck = sim.checkpoint();

    // Restore into a *fresh* instance and re-capture: the blob must be
    // byte-identical, i.e. save/restore are exact inverses.
    CoSimulation sim2(cfg);
    sim2.restore(ck);
    Checkpoint ck2 = sim2.checkpoint();
    EXPECT_EQ(ck.state, ck2.state);
    EXPECT_EQ(ck2.period, 50u);
    EXPECT_DOUBLE_EQ(ck2.simTime, ck.simTime);
}

TEST(Checkpoint, ResumeMatchesGoldenTraces)
{
    // The headline contract: run halfway, checkpoint, restore into a
    // fresh co-simulation, finish — and land on the same checked-in
    // FNV-1a trajectory hash as the uninterrupted golden run, for all
    // three Table 2 configs.
    for (const Golden &g : kGolden) {
        SCOPED_TRACE(std::string("config ") + g.socName);
        CosimConfig cfg = canonicalSpec(g.socName).toConfig();

        CoSimulation first(cfg);
        while (first.environment().simTime() < 5.0)
            first.stepPeriod();
        Checkpoint ck = first.checkpoint();

        CoSimulation resumed(cfg);
        resumed.restore(ck);
        MissionResult r = resumed.run();

        EXPECT_EQ(r.trajectory.size(), g.trajectorySamples);
        EXPECT_EQ(r.collisions, g.collisions);
        EXPECT_EQ(fnv1a(core::trajectoryCsvString(r)), g.trajectoryHash)
            << "resumed trajectory diverged from the golden trace";
    }
}

TEST(Checkpoint, RefusesForeignConfig)
{
    CosimConfig cfg = canonicalSpec("A").toConfig();
    CoSimulation sim(cfg);
    for (int i = 0; i < 10; ++i)
        sim.stepPeriod();
    Checkpoint ck = sim.checkpoint();

    CosimConfig other = canonicalSpec("B").toConfig();
    CoSimulation sim2(other);
    EXPECT_THROW(sim2.restore(ck), CheckpointError);

    Checkpoint bad = ck;
    bad.version = 99;
    EXPECT_THROW(sim.restore(bad), CheckpointError);

    // A trajectory count past the end of its section is refused before
    // anything is sized by it (the u32 follows the tag, the section
    // length, and 8 eight-byte Cosim fields).
    Checkpoint inflated = ck;
    for (size_t i = 0; i < 4; ++i)
        inflated.state.at(1 + 4 + 8 * 8 + i) = 0xff;
    EXPECT_THROW(sim.restore(inflated), SerdeError);
}

TEST(Checkpoint, FingerprintIgnoresResilienceKnobs)
{
    // The supervisor mutates faults / transport / time limits between
    // capture and restore; the fingerprint must not change with them.
    CosimConfig cfg = canonicalSpec("A").toConfig();
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
    CosimConfig cfg = canonicalSpec("A").toConfig();
    cfg.transport = TransportKind::Tcp;
    CoSimulation sim(cfg);
    EXPECT_FALSE(sim.checkpointable());
    EXPECT_THROW(sim.checkpoint(), CheckpointError);
}

TEST(Checkpoint, FaultInjectorStateIsCaptured)
{
    // A faulty run checkpoints the injector (its RNG position and
    // held packets); restore + resume must replay identically.
    core::MissionSpec spec = canonicalSpec("A");
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
    CosimConfig cfg = canonicalSpec("A").toConfig();
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
    EXPECT_EQ(back.state, ck.state);

    // And it actually restores.
    CoSimulation sim2(cfg);
    sim2.restore(back);
    EXPECT_EQ(sim2.periods(), 20u);
    std::remove(path.c_str());
}

TEST(CheckpointFile, DetectsCorruptionAndTruncation)
{
    CosimConfig cfg = canonicalSpec("A").toConfig();
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
    CosimConfig cfg = canonicalSpec("A").toConfig();
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
    // state hash 8, state length 4 (44 bytes), then the state blob.
    constexpr size_t kHeader = 44;
    ASSERT_GT(good.size(), kHeader);

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
        if (!truncate && at >= 12 && at < 36) {
            // period, simTime and the config fingerprint sit outside
            // the state hash. The state still verifies; a damaged
            // fingerprint is refused when the snapshot is restored.
            Checkpoint back = readCheckpointFile(path);
            EXPECT_EQ(back.state, ck.state);
            if (at >= 28) {
                CoSimulation fresh(cfg);
                EXPECT_THROW(fresh.restore(back), CheckpointError);
            }
            continue;
        }
        EXPECT_THROW(readCheckpointFile(path), CheckpointError);
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedStateIsRefused)
{
    // Every cut of a valid blob must be refused: inside a section by
    // the section and field bounds (SerdeError), at a section
    // boundary by the missing-section check (CheckpointError).
    CosimConfig cfg = canonicalSpec("A").toConfig();
    CoSimulation sim(cfg);
    for (int i = 0; i < 30; ++i)
        sim.stepPeriod();
    const Checkpoint ck = sim.checkpoint();

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
    EXPECT_EQ(target.checkpoint().state, ck.state);
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
