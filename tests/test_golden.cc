/**
 * @file
 * Golden-trace regression tests over the golden corpus
 * (golden_corpus.hh): every row's trajectory CSV must hash to its
 * checked-in FNV-1a value, and every in-process row must hash the same
 * whichever layer runs it — runMission, a BatchRunner, an in-process
 * rosed, or the supervisor resumed from a mid-mission checkpoint file
 * (RSLCPP's determinism-first argument applied to our layers).
 *
 * Regenerate the rows with ROSE_REGEN_GOLDEN=1 (see golden_corpus.hh).
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch.hh"
#include "core/checkpoint.hh"
#include "core/cosim.hh"
#include "core/experiment.hh"
#include "core/supervisor.hh"
#include "golden_corpus.hh"
#include "runtime/control_app.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/csv.hh"
#include "util/hash.hh"

using namespace rose;
using test::GoldenRow;
using test::kGoldenCorpus;

namespace {

uint64_t
trajectoryHash(const std::vector<core::TrajectorySample> &trajectory)
{
    return fnv1a(core::trajectoryCsvString(trajectory));
}

} // namespace

TEST(GoldenTrace, CanonicalTunnelMissions)
{
    const bool regen = std::getenv("ROSE_REGEN_GOLDEN") != nullptr;
    if (regen)
        std::printf("// Regenerated rows — paste over kGoldenCorpus:\n");

    for (const GoldenRow &g : kGoldenCorpus) {
        SCOPED_TRACE(g.spec);
        const core::MissionSpec spec = core::parseMissionSpec(g.spec);
        EXPECT_EQ(core::formatMissionSpec(spec), g.spec)
            << "row is not in the canonical text form";
        core::CosimConfig cfg = spec.toConfig();
        cfg.transport = g.transport;
        core::CoSimulation sim(cfg);
        core::MissionResult r = sim.run();
        uint64_t hash = trajectoryHash(r.trajectory);

        if (regen) {
            std::printf("    {\"%s\", %s,\n     0x%016llxULL, %zu, %llu},\n",
                        g.spec,
                        g.transport == core::TransportKind::Tcp ? "kTcp"
                                                                : "kInProc",
                        (unsigned long long)hash, r.trajectory.size(),
                        (unsigned long long)r.collisions);
            continue;
        }

        // A dynamic row only pins the runtime switch if the mission
        // really ran both the big and the small model.
        if (spec.mode == runtime::RuntimeMode::Dynamic) {
            bool saw_big = false, saw_small = false;
            for (const runtime::InferenceRecord &rec : r.inferenceLog) {
                saw_big |= rec.modelDepth == spec.modelDepth;
                saw_small |= rec.modelDepth == 6;
            }
            EXPECT_TRUE(saw_big) << "dynamic row never ran its big model";
            EXPECT_TRUE(saw_small) << "dynamic row never ran ResNet6";
        }

        // A faulted row pins the fault paths only if each of them ran,
        // and the mission survived them.
        if (spec.faults.enabled) {
            ASSERT_NE(sim.faultStats(), nullptr);
            const bridge::FaultStats &fs = *sim.faultStats();
            EXPECT_GT(fs.dropped, 0u);
            EXPECT_GT(fs.corrupted, 0u);
            EXPECT_GT(fs.reordered, 0u);
            EXPECT_GT(fs.delayed, 0u);
            EXPECT_FALSE(r.transportError) << r.transportErrorMessage;
        }

        // The degraded row pins the classical fallback only if the
        // mission really flew part of it on that controller.
        if (spec.degradedMode) {
            EXPECT_FALSE(r.degradedIntervals.empty())
                << "degraded row never entered the fallback";
        }

        // Coarse goldens first: when these differ the drift is
        // behavioral (physics/control), not just numeric formatting.
        EXPECT_EQ(r.trajectory.size(), g.samples);
        EXPECT_EQ(r.collisions, g.collisions);

        char actual[32];
        std::snprintf(actual, sizeof(actual), "0x%016llx",
                      (unsigned long long)hash);
        EXPECT_EQ(hash, g.hash)
            << "trajectory CSV hash drifted (actual " << actual
            << "); if the change is intentional, regenerate with "
               "ROSE_REGEN_GOLDEN=1";
    }

    if (regen)
        FAIL() << "ROSE_REGEN_GOLDEN set: goldens printed, not checked";
}

TEST(GoldenTrace, InProcessRowsHashEqualFourWays)
{
    // Every in-process row. The TCP rows run only in
    // CanonicalTunnelMissions: the transport is not a MissionSpec
    // field, so a batch and rosed run every spec in-process, and a
    // TCP link cannot be checkpointed.
    std::vector<const GoldenRow *> rows;
    std::vector<core::MissionSpec> specs;
    for (const GoldenRow &g : kGoldenCorpus) {
        if (g.transport == core::TransportKind::InProcess) {
            rows.push_back(&g);
            specs.push_back(core::parseMissionSpec(g.spec));
        }
    }

    // Batch, three workers.
    std::vector<core::MissionResult> batch =
        core::BatchRunner(core::BatchOptions{3}).run(specs);

    // rosed in this process, three workers, every row in flight.
    serve::ServerConfig scfg;
    scfg.workers = 3;
    scfg.maxQueueDepth = specs.size();
    scfg.perClientInFlight = uint32_t(specs.size());
    serve::MissionServer server(scfg);
    server.start();
    serve::ServeClient client(server.port());
    std::vector<uint64_t> jobs;
    for (const core::MissionSpec &spec : specs) {
        serve::SubmitOutcome out = client.submit(spec);
        ASSERT_TRUE(out.accepted) << out.detail;
        jobs.push_back(out.jobId);
    }

    const std::string ckpt = ::testing::TempDir() + "golden_mid.ckpt";
    for (size_t i = 0; i < rows.size(); ++i) {
        const GoldenRow &g = *rows[i];
        SCOPED_TRACE(g.spec);
        const core::CosimConfig cfg = specs[i].toConfig();

        EXPECT_EQ(trajectoryHash(core::runMission(specs[i]).trajectory),
                  g.hash)
            << "runMission";
        EXPECT_EQ(trajectoryHash(batch[i].trajectory), g.hash)
            << "BatchRunner";
        EXPECT_EQ(trajectoryHash(client.waitResult(jobs[i]).trajectory),
                  g.hash)
            << "rosed";

        // A checkpoint file written halfway through the mission, and a
        // supervisor that resumes from it instead of starting cold.
        {
            core::CoSimulation sim(cfg);
            while (sim.environment().simTime() < cfg.maxSimSeconds / 2)
                sim.stepPeriod();
            core::writeCheckpointFile(ckpt, sim.checkpoint());
        }
        core::SupervisorConfig sup;
        sup.resumeFromPath = ckpt;
        core::MissionSupervisor resumed(cfg, sup);
        core::MissionResult r = resumed.run();
        EXPECT_EQ(resumed.stats().diskResumes, 1u);
        EXPECT_EQ(trajectoryHash(r.trajectory), g.hash)
            << "supervisor resumed at mid-mission";
    }
    std::remove(ckpt.c_str());
    server.stop();
}

TEST(GoldenTrace, MpcMissionOnGoldenA)
{
    // A text row of missionTime and collisions, then one per record:
    // request and command cycle, solver iterations, cost, offset and
    // heading estimates, and the command's three components. Doubles
    // print as the trajectory CSV prints its cells (6 significant
    // digits): like the trajectory goldens, the rows then hold under
    // either glibc libm variant, whose last bits differ here.
    core::MpcMissionResult r = core::runMpcMission(test::goldenSpec("A"));
    ASSERT_FALSE(r.log.empty());
    std::string rows;
    auto cell = [&rows](double v) {
        char buf[kCsvCellMaxChars];
        rows.append(buf, formatCsvCell(buf, v));
        rows += ',';
    };
    cell(r.missionTime);
    rows += std::to_string(r.collisions) + "\n";
    for (const runtime::MpcRecord &rec : r.log) {
        rows += std::to_string(rec.requestCycle) + ',' +
                std::to_string(rec.commandCycle) + ',' +
                std::to_string(rec.solverIterations) + ',';
        for (double v : {rec.cost, rec.offsetEstimate, rec.headingEstimate,
                         rec.command.forward, rec.command.lateral,
                         rec.command.yawRate})
            cell(v);
        rows.back() = '\n';
    }
    const uint64_t hash = fnv1a(rows);
    EXPECT_EQ(hash, test::kMpcGoldenAHash)
        << std::hex << "actual 0x" << hash;
}

TEST(GoldenTrace, BackgroundTenantOnGoldenA)
{
    core::CosimConfig cfg = test::goldenSpec("A").toConfig();
    cfg.background.enabled = true;
    core::CoSimulation sim(cfg);
    const uint64_t hash = trajectoryHash(sim.run().trajectory);
    EXPECT_EQ(hash, test::kBackgroundGoldenAHash)
        << std::hex << "actual 0x" << hash;
    EXPECT_NE(hash, kGoldenCorpus[0].hash)
        << "the tenant left golden A's trajectory unchanged";

    // Resumed from a mid-mission checkpoint file, Background section
    // included.
    const std::string ckpt = ::testing::TempDir() + "golden_bg.ckpt";
    {
        core::CoSimulation half(cfg);
        while (half.environment().simTime() < cfg.maxSimSeconds / 2)
            half.stepPeriod();
        core::writeCheckpointFile(ckpt, half.checkpoint());
    }
    core::SupervisorConfig sup;
    sup.resumeFromPath = ckpt;
    core::MissionSupervisor resumed(cfg, sup);
    core::MissionResult r = resumed.run();
    std::remove(ckpt.c_str());
    EXPECT_EQ(resumed.stats().diskResumes, 1u);
    EXPECT_EQ(trajectoryHash(r.trajectory), test::kBackgroundGoldenAHash)
        << "supervisor resumed at mid-mission";
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
    core::MissionResult r =
        core::runMission(core::parseMissionSpec("yaw=20 sim-seconds=2"));

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
