/**
 * @file
 * BatchRunner determinism contract (src/core/batch.hh): results of a
 * parallel mission batch are identical to serial runMission() for
 * every thread count and scheduling — the property that makes parallel
 * design-space sweeps trustworthy.
 *
 * The parity matrix here runs a seed x SoC-config x DNN-depth spec set
 * through serial runMission() and through BatchRunner at 1, 2, and 8
 * threads (plus any extra counts named in the ROSE_BATCH_JOBS
 * environment variable, comma-separated — CI uses this to pin
 * additional counts), and asserts bit-exact equality of trajectories,
 * collision counts, SoC stats, and inference telemetry. Wall-clock
 * fields are explicitly outside the contract.
 */

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch.hh"
#include "core/experiment.hh"

using namespace rose;

namespace {

/** The parity spec matrix: cheap but diverse (two seeds, two SoCs,
 *  two model depths, both worlds). */
std::vector<core::MissionSpec>
parityMatrix()
{
    std::vector<core::MissionSpec> specs;
    for (uint64_t seed : {1ULL, 2ULL}) {
        for (const char *cfg : {"A", "B"}) {
            for (int depth : {6, 14}) {
                core::MissionSpec spec;
                spec.world = depth == 6 ? "tunnel" : "s-shape";
                spec.socName = cfg;
                spec.modelDepth = depth;
                spec.velocity = depth == 6 ? 3.0 : 9.0;
                spec.seed = seed;
                spec.maxSimSeconds = 6.0;
                specs.push_back(spec);
            }
        }
    }
    return specs;
}

void
expectSameTrajectory(const core::MissionResult &a,
                     const core::MissionResult &b)
{
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
    for (size_t i = 0; i < a.trajectory.size(); ++i) {
        const core::TrajectorySample &s = a.trajectory[i];
        const core::TrajectorySample &t = b.trajectory[i];
        // Bit-exact: determinism means identical doubles, not close
        // ones.
        EXPECT_EQ(s.time, t.time) << "sample " << i;
        EXPECT_EQ(s.position.x, t.position.x) << "sample " << i;
        EXPECT_EQ(s.position.y, t.position.y) << "sample " << i;
        EXPECT_EQ(s.position.z, t.position.z) << "sample " << i;
        EXPECT_EQ(s.yaw, t.yaw) << "sample " << i;
        EXPECT_EQ(s.speed, t.speed) << "sample " << i;
        EXPECT_EQ(s.lateralOffset, t.lateralOffset) << "sample " << i;
        EXPECT_EQ(s.collisions, t.collisions) << "sample " << i;
        EXPECT_EQ(s.cmdForward, t.cmdForward) << "sample " << i;
        EXPECT_EQ(s.cmdLateral, t.cmdLateral) << "sample " << i;
        EXPECT_EQ(s.cmdYawRate, t.cmdYawRate) << "sample " << i;
    }
}

void
expectSameResult(const core::MissionResult &a,
                 const core::MissionResult &b, const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(a.completed(), b.completed());
    EXPECT_EQ(a.transportError, b.transportError);
    EXPECT_EQ(a.missionTime, b.missionTime);
    EXPECT_EQ(a.collisions, b.collisions);
    EXPECT_EQ(a.avgSpeed, b.avgSpeed);
    EXPECT_EQ(a.maxSpeed, b.maxSpeed);
    EXPECT_EQ(a.distanceTravelled, b.distanceTravelled);
    EXPECT_EQ(a.inferences, b.inferences);
    EXPECT_EQ(a.avgInferenceLatency, b.avgInferenceLatency);
    EXPECT_EQ(a.accelActivityFactor, b.accelActivityFactor);
    EXPECT_EQ(a.energyJoules, b.energyJoules);
    EXPECT_EQ(a.avgPowerWatts, b.avgPowerWatts);
    EXPECT_EQ(a.simulatedCycles, b.simulatedCycles);

    // Full SoC engine counters are cycle-exact.
    EXPECT_EQ(a.socStats.totalCycles, b.socStats.totalCycles);
    EXPECT_EQ(a.socStats.cpuBusyCycles, b.socStats.cpuBusyCycles);
    EXPECT_EQ(a.socStats.accelBusyCycles, b.socStats.accelBusyCycles);
    EXPECT_EQ(a.socStats.ioBusyCycles, b.socStats.ioBusyCycles);
    EXPECT_EQ(a.socStats.rxStallCycles, b.socStats.rxStallCycles);
    EXPECT_EQ(a.socStats.haltIdleCycles, b.socStats.haltIdleCycles);
    EXPECT_EQ(a.socStats.actionsIssued, b.socStats.actionsIssued);
    EXPECT_EQ(a.socStats.periods, b.socStats.periods);

    expectSameTrajectory(a, b);

    ASSERT_EQ(a.inferenceLog.size(), b.inferenceLog.size());
    for (size_t i = 0; i < a.inferenceLog.size(); ++i) {
        const runtime::InferenceRecord &x = a.inferenceLog[i];
        const runtime::InferenceRecord &y = b.inferenceLog[i];
        EXPECT_EQ(x.requestCycle, y.requestCycle) << "inference " << i;
        EXPECT_EQ(x.responseCycle, y.responseCycle) << "inference " << i;
        EXPECT_EQ(x.commandCycle, y.commandCycle) << "inference " << i;
        EXPECT_EQ(x.modelDepth, y.modelDepth) << "inference " << i;
        EXPECT_EQ(x.command.forward, y.command.forward)
            << "inference " << i;
        EXPECT_EQ(x.command.lateral, y.command.lateral)
            << "inference " << i;
        EXPECT_EQ(x.command.yawRate, y.command.yawRate)
            << "inference " << i;
    }

    // The CSV emission path (what EXPERIMENTS.md tables are built
    // from) must therefore also be byte-identical.
    EXPECT_EQ(core::trajectoryCsvString(a), core::trajectoryCsvString(b));
}

/** Thread counts under test: {1, 2, 8} plus ROSE_BATCH_JOBS extras. */
std::vector<int>
jobCounts()
{
    std::vector<int> jobs = {1, 2, 8};
    if (const char *env = std::getenv("ROSE_BATCH_JOBS")) {
        std::string s(env);
        size_t pos = 0;
        while (pos < s.size()) {
            size_t comma = s.find(',', pos);
            if (comma == std::string::npos)
                comma = s.size();
            int j = std::atoi(s.substr(pos, comma - pos).c_str());
            if (j > 0)
                jobs.push_back(j);
            pos = comma + 1;
        }
    }
    return jobs;
}

} // namespace

TEST(BatchParity, MatchesSerialAtEveryThreadCount)
{
    std::vector<core::MissionSpec> specs = parityMatrix();

    // Reference: the plain serial path, one runMission per spec.
    std::vector<core::MissionResult> serial;
    serial.reserve(specs.size());
    for (const core::MissionSpec &spec : specs)
        serial.push_back(core::runMission(spec));

    for (int jobs : jobCounts()) {
        core::BatchRunner runner(core::BatchOptions{jobs});
        std::vector<core::MissionResult> batched = runner.run(specs);

        ASSERT_EQ(batched.size(), serial.size()) << jobs << " jobs";
        for (size_t i = 0; i < specs.size(); ++i) {
            expectSameResult(serial[i], batched[i],
                             specs[i].label() + "/seed" +
                                 std::to_string(specs[i].seed) + "@" +
                                 std::to_string(jobs) + "jobs");
        }

        const core::BatchStats &bs = runner.stats();
        EXPECT_EQ(bs.missions, specs.size());
        EXPECT_EQ(bs.jobs, jobs);
        EXPECT_GT(bs.wallSeconds, 0.0);
        EXPECT_GT(bs.serialSeconds, 0.0);
        ASSERT_EQ(bs.missionWallSeconds.size(), specs.size());
        for (double w : bs.missionWallSeconds)
            EXPECT_GT(w, 0.0);
    }
}

TEST(BatchParity, BatchIsRepeatable)
{
    // Two identical batches at the same thread count are bit-equal —
    // no run-to-run state leaks through the shared artifact caches.
    std::vector<core::MissionSpec> specs = parityMatrix();
    specs.resize(4);

    std::vector<core::MissionResult> a = core::runMissionBatch(specs, 4);
    std::vector<core::MissionResult> b = core::runMissionBatch(specs, 4);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        expectSameResult(a[i], b[i], "repeat/" + specs[i].label());
}

TEST(Batch, EmptyBatch)
{
    core::BatchRunner runner(core::BatchOptions{4});
    EXPECT_TRUE(runner.run({}).empty());
    EXPECT_EQ(runner.stats().missions, 0u);
}

TEST(Batch, ParallelIndexedOrdersResults)
{
    // Results land in submission order even when later indices finish
    // first.
    std::vector<int> out = core::parallelIndexed<int>(
        64, 8, [](size_t i) { return int(i) * 3; });
    ASSERT_EQ(out.size(), 64u);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], int(i) * 3);
}

TEST(Batch, JobsZeroUsesHardwareConcurrency)
{
    // jobs == 0 must still produce ordered, complete results.
    std::vector<int> out = core::parallelIndexed<int>(
        7, 0, [](size_t i) { return int(i) + 1; });
    ASSERT_EQ(out.size(), 7u);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], int(i) + 1);
}

TEST(Batch, CliParsesAndStripsFlags)
{
    const char *raw[] = {"bench", "--jobs", "6", "positional",
                         "--batch-json", "out.json", "tail"};
    int argc = 7;
    std::vector<char *> argv;
    for (const char *a : raw)
        argv.push_back(const_cast<char *>(a));

    core::BatchCli cli = core::parseBatchCli(argc, argv.data());
    EXPECT_EQ(cli.jobs, 6);
    EXPECT_EQ(cli.jsonPath, "out.json");
    ASSERT_EQ(argc, 3);
    EXPECT_STREQ(argv[0], "bench");
    EXPECT_STREQ(argv[1], "positional");
    EXPECT_STREQ(argv[2], "tail");
}

TEST(Batch, CliEqualsForms)
{
    const char *raw[] = {"bench", "--jobs=3", "--batch-json="};
    int argc = 3;
    std::vector<char *> argv;
    for (const char *a : raw)
        argv.push_back(const_cast<char *>(a));

    core::BatchCli cli = core::parseBatchCli(argc, argv.data());
    EXPECT_EQ(cli.jobs, 3);
    EXPECT_EQ(cli.jsonPath, "");
    EXPECT_EQ(argc, 1);
}

namespace {

/** Run parseBatchCli over @p args (argv[0] included). */
core::BatchCli
parseArgs(std::vector<const char *> args, int *argcOut = nullptr)
{
    std::vector<char *> argv;
    for (const char *a : args)
        argv.push_back(const_cast<char *>(a));
    int argc = int(argv.size());
    core::BatchCli cli = core::parseBatchCli(argc, argv.data());
    if (argcOut)
        *argcOut = argc;
    return cli;
}

} // namespace

TEST(BatchCliDeathTest, HelpPrintsUsageAndExitsZero)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *flag : {"--help", "-h"})
        EXPECT_EXIT(parseArgs({"bench", "--jobs", "2", flag}),
                    ::testing::ExitedWithCode(0), "")
            << flag;
}

TEST(BatchCliDeathTest, UnknownFlagExitsNonzero)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(parseArgs({"bench", "tunnel", "--frobnicate"}),
                ::testing::ExitedWithCode(2),
                "unknown option '--frobnicate'");
    EXPECT_EXIT(parseArgs({"bench", "--jobs"}),
                ::testing::ExitedWithCode(2),
                "missing value for '--jobs'");
}

TEST(BatchCliDeathTest, MalformedJobsExitsNonzero)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *bad : {"abc", "4x", "-3", "", " 4", "99999999999"}) {
        EXPECT_EXIT(parseArgs({"bench", "--jobs", bad}),
                    ::testing::ExitedWithCode(2),
                    "--jobs needs a non-negative integer")
            << "'" << bad << "'";
    }
    EXPECT_EXIT(parseArgs({"bench", "--jobs=4x"}),
                ::testing::ExitedWithCode(2),
                "--jobs needs a non-negative integer, got '4x'");
    EXPECT_EXIT(parseArgs({"bench", "-j", "-1"}),
                ::testing::ExitedWithCode(2),
                "--jobs needs a non-negative integer, got '-1'");
}

TEST(Batch, CliKeepsSingleDashPositionals)
{
    // Only --flags are options: a negative number is a positional.
    int argc = 0;
    core::BatchCli cli = parseArgs({"bench", "-j", "0", "-1.5"}, &argc);
    EXPECT_EQ(cli.jobs, 0);
    EXPECT_EQ(argc, 2);
}

TEST(Batch, ReportJsonShape)
{
    core::BatchStats s;
    s.missions = 2;
    s.jobs = 4;
    s.wallSeconds = 1.5;
    s.serialSeconds = 4.5;
    s.missionWallSeconds = {2.0, 2.5};

    core::BatchReport report("unit \"test\"");
    report.add("sweep", s);
    EXPECT_EQ(report.missions(), 2u);

    std::string json = report.toJson();
    EXPECT_NE(json.find("\"bench\": \"unit \\\"test\\\"\""),
              std::string::npos);
    EXPECT_NE(json.find("\"missions\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"speedup\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"mission_wall_seconds\": [2, 2.5]"),
              std::string::npos);
}
