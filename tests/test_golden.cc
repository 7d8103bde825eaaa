/**
 * @file
 * Golden-trace regression tests: the canonical tunnel mission on SoC
 * configs A, B, C from Table 2, once with the static ResNet14 runtime
 * and once with the Section 5.3 dynamic ResNet14/ResNet6 runtime, plus
 * the canonical mission on the s-shape and zigzag maps, a
 * straight-ahead (yaw 0) tunnel mission, a rover mission and two
 * missions under injected transport faults, with checked-in FNV-1a
 * hashes of their trajectory CSVs. Silent
 * physics/timing drift — a changed integrator constant, a reordered RNG
 * draw, an off-by-one sync period — fails here instead of quietly
 * corrupting every number in EXPERIMENTS.md.
 *
 * When a change *intentionally* alters simulation behavior, regenerate
 * the goldens: run this binary with ROSE_REGEN_GOLDEN=1 and paste the
 * printed table over kGolden below (the test fails in regen mode so CI
 * can never pass on unpinned values). The trajectory CSV format itself
 * is part of the hashed surface (see core::trajectoryCsvString).
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "core/cosim.hh"
#include "core/experiment.hh"
#include "runtime/control_app.hh"
#include "util/hash.hh"

using namespace rose;

namespace {

using runtime::RuntimeMode;

/** The canonical mission: tunnel, ResNet14 @ 3 m/s, +20 degree initial
 *  heading (exercises the correction transient), seed 1, 10 simulated
 *  seconds. The SoC config, the runtime mode, the velocity, the map,
 *  the initial heading, the seed and the vehicle vary per row. */
core::MissionSpec
canonicalSpec(const std::string &socName,
              RuntimeMode mode = RuntimeMode::Static,
              double velocity = 3.0, const std::string &world = "tunnel",
              double yawDeg = 20.0, uint64_t seed = 1,
              const std::string &vehicle = "quadrotor")
{
    core::MissionSpec spec;
    spec.world = world;
    spec.vehicle = vehicle;
    spec.socName = socName;
    spec.mode = mode;
    spec.modelDepth = 14;
    spec.velocity = velocity;
    spec.initialYawDeg = yawDeg;
    spec.seed = seed;
    spec.maxSimSeconds = 10.0;
    return spec;
}

struct Golden
{
    const char *world;
    const char *socName;
    RuntimeMode mode;
    double velocity;
    double yaw;    ///< initial heading [deg]
    uint64_t seed;
    uint64_t trajectoryHash; ///< fnv1a(trajectoryCsvString(result))
    size_t trajectorySamples;
    uint64_t collisions;
    const char *vehicle = "quadrotor";
    Cycles sync = 10 * kMegaCycles; ///< cycles per sync period
    core::TransportKind transport = core::TransportKind::InProcess;
    double seconds = 10.0; ///< simulated mission length
    bool faults = false;   ///< inject kFaultMix on the synchronizer's end
};

/** The faulted rows' link: every fault kind fires, at rates the
 *  sensor-retry timeout still flies the tunnel through. */
constexpr bridge::FaultConfig kFaultMix{.enabled = true,
                                        .dropProb = 0.05,
                                        .corruptProb = 0.02,
                                        .reorderProb = 0.05,
                                        .delayProb = 0.05,
                                        .seed = 2021};

// Regenerate with ROSE_REGEN_GOLDEN=1 (see file header).
//
// The dynamic rows leave 3 m/s where the Equation 5 deadline never
// forces a switch: at 3 m/s A and B always fit ResNet14 and C never
// does. 6 m/s makes A and B fall back to ResNet6 near the walls; C's
// CPU-only ResNet14 fits the budget only at walking pace.
//
// The s-shape row is the only one whose corridor bends, so it is the
// one that pins the raycaster against a non-constant centerline.
//
// The yaw-0 row flies straight down the tunnel, where the heading
// state stays near zero for the whole mission and the CSV prints the
// last bits of values like yaw = -5.7e-12. That makes it the row that
// catches a compiler fusing a*b+c into an FMA under an FMA-capable
// -march (the build pins -ffp-contract=off for exactly this reason).
//
// The zigzag row pins the raycaster against a piecewise-linear
// centerline with rounded corners (it passes the x = 15 m corner), and
// so the zigzag world's slope bound end to end. The rover row pins the
// pose estimator at the rover's 0.8 m camera mast instead of the
// quadrotor's 1.5 m cruise altitude.
//
// The last two rows leave the 10 M-cycle sync. The first runs golden A
// at 1 M-cycle sync over loopback TCP: ten times the periods, each a
// real socket round trip, with the same rendered images. The second is
// golden A for 0.2 s at 20 k-cycle sync: 10,000 samples, most of them
// before the first command arrives, so the CSV is dense with zero
// command cells and tiny lateral offsets — the cells the formatter's
// fast path and its fallbacks must both get right.
//
// The two faulted rows run golden A for 2 s with every kind of injected
// fault (kFaultMix): in-process at the default sync, and over loopback
// TCP at 1 M-cycle sync. The injector's operation clock advances on
// every send() and recv() call, so these rows pin the number and order
// of transport calls the lockstep loop makes, not just its packets.
constexpr Golden kGolden[] = {
    {"tunnel", "A", RuntimeMode::Static, 3.0, 20.0, 1,
     0x2b24ad514f06c3cbULL, 1000, 0},
    {"tunnel", "B", RuntimeMode::Static, 3.0, 20.0, 1,
     0x02771540364e358fULL, 1000, 0},
    {"tunnel", "C", RuntimeMode::Static, 3.0, 20.0, 1,
     0x0e337585f9a29f6aULL, 1000, 27},
    {"tunnel", "A", RuntimeMode::Dynamic, 6.0, 20.0, 1,
     0x1fbdc1290899c590ULL, 911, 0},
    {"tunnel", "B", RuntimeMode::Dynamic, 6.0, 20.0, 1,
     0x363ece69e58dc178ULL, 970, 0},
    {"tunnel", "C", RuntimeMode::Dynamic, 0.3, 20.0, 1,
     0x9cc8dbbd0aa604b7ULL, 1000, 1},
    {"s-shape", "A", RuntimeMode::Static, 3.0, 20.0, 1,
     0x6f0fd34ac7ad97b9ULL, 1000, 0},
    {"tunnel", "A", RuntimeMode::Static, 3.0, 0.0, 2,
     0x5cef5ccc941df9abULL, 1000, 0},
    {"zigzag", "A", RuntimeMode::Static, 3.0, 20.0, 1,
     0xa7be05975ffafcc3ULL, 1000, 0},
    {"tunnel", "A", RuntimeMode::Static, 3.0, 20.0, 1,
     0xe61ec6e9f8e9c160ULL, 1000, 0, "rover"},
    {"tunnel", "A", RuntimeMode::Static, 3.0, 20.0, 1,
     0x037fb031e79ae46bULL, 10001, 0, "quadrotor",
     1000000, core::TransportKind::Tcp},
    {"tunnel", "A", RuntimeMode::Static, 3.0, 20.0, 1,
     0xdd1cdc85dbc18acfULL, 10000, 0, "quadrotor",
     20000, core::TransportKind::InProcess, 0.2},
    {"tunnel", "A", RuntimeMode::Static, 3.0, 20.0, 1,
     0xf406280d13073940ULL, 200, 0, "quadrotor",
     10000000, core::TransportKind::InProcess, 2, true},
    {"tunnel", "A", RuntimeMode::Static, 3.0, 20.0, 1,
     0x3974ae862a717a19ULL, 2001, 0, "quadrotor",
     1000000, core::TransportKind::Tcp, 2, true},
};

const char *
modeName(RuntimeMode mode)
{
    return mode == RuntimeMode::Dynamic ? "Dynamic" : "Static";
}

/** Run one row; a faulted row also reports what its injector did. */
core::MissionResult
runGolden(const Golden &g, bridge::FaultStats &faults)
{
    core::MissionSpec spec = canonicalSpec(g.socName, g.mode, g.velocity,
                                           g.world, g.yaw, g.seed,
                                           g.vehicle);
    spec.syncGranularity = g.sync;
    spec.maxSimSeconds = g.seconds;
    if (g.faults)
        spec.faults = kFaultMix;
    core::CosimConfig cfg = spec.toConfig();
    cfg.transport = g.transport;
    core::CoSimulation sim(cfg);
    core::MissionResult r = sim.run();
    if (sim.faultStats())
        faults = *sim.faultStats();
    return r;
}

/** The regen table's trailing fields, printed only while they differ
 *  from their defaults. */
std::string
regenTail(const Golden &g)
{
    const Golden d{};
    const bool tail = g.sync != d.sync || g.transport != d.transport ||
                      g.seconds != d.seconds || g.faults != d.faults;
    if (!tail && std::string(g.vehicle) == d.vehicle)
        return "";
    std::string s = ", \"" + std::string(g.vehicle) + "\"";
    if (!tail)
        return s;
    char buf[160];
    std::snprintf(buf, sizeof(buf), ",\n     %llu, core::TransportKind::%s",
                  (unsigned long long)g.sync,
                  g.transport == core::TransportKind::Tcp ? "Tcp"
                                                          : "InProcess");
    s += buf;
    if (g.seconds != d.seconds || g.faults != d.faults) {
        std::snprintf(buf, sizeof(buf), ", %g", g.seconds);
        s += buf;
    }
    if (g.faults != d.faults)
        s += ", true";
    return s;
}

} // namespace

TEST(GoldenTrace, CanonicalTunnelMissions)
{
    const bool regen = std::getenv("ROSE_REGEN_GOLDEN") != nullptr;
    if (regen)
        std::printf("// Regenerated goldens — paste over kGolden:\n");

    for (const Golden &g : kGolden) {
        SCOPED_TRACE(std::string(g.vehicle) + " " + g.world +
                     " config " + g.socName +
                     " " + modeName(g.mode) + " yaw " +
                     std::to_string(g.yaw) + " seed " +
                     std::to_string(g.seed) + " sync " +
                     std::to_string(g.sync) + " seconds " +
                     std::to_string(g.seconds) +
                     (g.transport == core::TransportKind::Tcp ? " tcp"
                                                              : "") +
                     (g.faults ? " faults" : ""));
        bridge::FaultStats fs;
        core::MissionResult r = runGolden(g, fs);
        std::string csv = core::trajectoryCsvString(r);
        uint64_t hash = fnv1a(csv);

        if (regen) {
            std::string tail = regenTail(g);
            std::printf("    {\"%s\", \"%s\", RuntimeMode::%s, %.1f, "
                        "%.1f, %llu,\n     0x%016llxULL, %zu, %llu%s},\n",
                        g.world, g.socName, modeName(g.mode), g.velocity,
                        g.yaw, (unsigned long long)g.seed,
                        (unsigned long long)hash, r.trajectory.size(),
                        (unsigned long long)r.collisions, tail.c_str());
            continue;
        }

        // A dynamic row only pins the runtime switch if the mission
        // really ran both the big and the small model.
        if (g.mode == RuntimeMode::Dynamic) {
            bool saw_big = false, saw_small = false;
            for (const runtime::InferenceRecord &rec : r.inferenceLog) {
                saw_big |= rec.modelDepth == 14;
                saw_small |= rec.modelDepth == 6;
            }
            EXPECT_TRUE(saw_big) << "dynamic row never ran ResNet14";
            EXPECT_TRUE(saw_small) << "dynamic row never ran ResNet6";
        }

        // A faulted row pins the fault paths only if each of them ran,
        // and the mission survived them.
        if (g.faults) {
            EXPECT_GT(fs.dropped, 0u);
            EXPECT_GT(fs.corrupted, 0u);
            EXPECT_GT(fs.reordered, 0u);
            EXPECT_GT(fs.delayed, 0u);
            EXPECT_FALSE(r.transportError) << r.transportErrorMessage;
        }

        // Coarse goldens first: when these differ the drift is
        // behavioral (physics/control), not just numeric formatting.
        EXPECT_EQ(r.trajectory.size(), g.trajectorySamples);
        EXPECT_EQ(r.collisions, g.collisions);

        char actual[32];
        std::snprintf(actual, sizeof(actual), "0x%016llx",
                      (unsigned long long)hash);
        EXPECT_EQ(hash, g.trajectoryHash)
            << "trajectory CSV hash drifted (actual " << actual
            << "); if the change is intentional, regenerate with "
               "ROSE_REGEN_GOLDEN=1";
    }

    if (regen)
        FAIL() << "ROSE_REGEN_GOLDEN set: goldens printed, not checked";
}

TEST(GoldenTrace, HashPrimitivesAreStable)
{
    // The golden hashes are only as durable as the hash itself: pin
    // FNV-1a against its published test vectors.
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(GoldenTrace, CsvStringMatchesFileOutput)
{
    // The hashed string form and the file writer must never diverge —
    // the goldens guard the same bytes the bench CSVs contain.
    core::MissionSpec spec = canonicalSpec("A");
    spec.maxSimSeconds = 2.0;
    core::MissionResult r = core::runMission(spec);

    std::string path = ::testing::TempDir() + "golden_traj.csv";
    core::writeTrajectoryCsv(path, r);
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string fromFile;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        fromFile.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());

    EXPECT_EQ(fromFile, core::trajectoryCsvString(r));
}
