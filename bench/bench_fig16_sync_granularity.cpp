/**
 * @file
 * Figure 16: effects of synchronization granularity on simulated
 * trajectories and on the measured image-request-to-DNN-output latency
 * (Section 5.5).
 *
 * Setup: tunnel, initial angle +20 degrees, ResNet14 @ 3 m/s, config A;
 * granularity swept from 10M cycles (1 environment frame per sync) to
 * 400M cycles (40 frames per sync). Paper findings to reproduce:
 *  - at 10M the measured request->output latency sits slightly above
 *    the DNN's compute latency (I/O overhead only);
 *  - latency grows with granularity as requests stall to period
 *    boundaries, reaching ~3x+ the ideal latency at 400M;
 *  - trajectories diverge at coarse granularity (the UAV becomes less
 *    responsive due to the artificial latency).
 *
 * The sweep runs through the deterministic mission batch runner
 * (--jobs N; output identical for any N).
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/batch.hh"
#include "core/experiment.hh"
#include "core/hostmodel.hh"
#include "dnn/engine.hh"

int
main(int argc, char **argv)
{
    using namespace rose;

    core::BatchCli cli = core::parseBatchCli(argc, argv);

    dnn::ExecutionEngine engine(soc::configA());
    double ideal = engine.latencySeconds(*dnn::sharedResNet(14));

    std::printf("Figure 16: synchronization granularity sweep "
                "(tunnel, yaw0=+20deg, ResNet14 @ 3 m/s)\n\n");
    std::printf("ideal compute latency: %.0f ms\n\n", ideal * 1e3);
    std::printf("%-14s %-12s %-10s %-6s %-14s %-10s\n", "granularity",
                "latency[ms]", "vs-ideal", "coll", "mission",
                "max|off|[m]");

    std::vector<core::MissionSpec> specs;
    for (Cycles g : core::granularitySweep()) {
        core::MissionSpec spec = core::parseMissionSpec("yaw=20");
        spec.syncGranularity = g;
        specs.push_back(spec);
    }

    core::BatchRunner runner(cli.options());
    std::vector<core::MissionResult> results = runner.run(specs);

    for (size_t i = 0; i < specs.size(); ++i) {
        Cycles g = specs[i].syncGranularity;
        const core::MissionResult &r = results[i];
        double max_off = 0.0;
        for (const core::TrajectorySample &s : r.trajectory)
            max_off = std::max(max_off, std::abs(s.lateralOffset));

        std::printf("%-14s %-12.0f %-10.2f %-6llu %-14s %-10.2f\n",
                    (std::to_string(g / kMegaCycles) + "M").c_str(),
                    r.avgInferenceLatency * 1e3,
                    r.avgInferenceLatency / ideal,
                    (unsigned long long)r.collisions,
                    core::missionTimeString(r).c_str(), max_off);
        core::writeTrajectoryCsv(
            "fig16_g" + std::to_string(g / kMegaCycles) + "M.csv", r);
    }

    core::BatchReport report("fig16_sync_granularity");
    report.add("granularity_sweep", runner.stats());
    report.write(cli.jsonPath);

    std::printf("\nExpected shape: latency starts slightly above the "
                "ideal compute latency and grows toward ~3x+ at 400M; "
                "trajectories degrade (larger offsets, collisions, "
                "longer missions) as granularity coarsens.\n");
    std::printf("Trajectory CSVs written to fig16_g*.csv\n");
    return 0;
}
