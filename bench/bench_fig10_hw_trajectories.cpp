/**
 * @file
 * Figure 10: UAV trajectories for different hardware configurations.
 *
 * Setup (Section 5.1): tunnel environment, ResNet14 controller at a
 * 3 m/s velocity target, three initial headings (-20, 0, +20 degrees),
 * three SoCs (Table 2: A = BOOM+Gemmini, B = Rocket+Gemmini,
 * C = BOOM only). Paper findings to reproduce:
 *  - configs A and B complete with nearly identical trajectories
 *    (both inference latencies are far below the collision horizon);
 *  - config C's ~seconds-long CPU-only inference latency means the UAV
 *    collides before the first control update.
 *
 * The 9-point sweep runs through the deterministic mission batch
 * runner (--jobs N fans it out; output is identical for any N).
 * Emits per-run trajectory CSVs (fig10_<cfg>_<yaw>.csv), a summary
 * table, and batch timing in BENCH_batch.json.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/batch.hh"
#include "core/experiment.hh"

int
main(int argc, char **argv)
{
    using namespace rose;

    core::BatchCli cli = core::parseBatchCli(argc, argv);

    std::printf("Figure 10: tunnel trajectories, ResNet14 @ 3 m/s\n\n");
    std::printf("%-6s %-8s %-10s %-6s %-12s %-12s\n", "cfg", "yaw0",
                "mission", "coll", "infer[ms]", "first-cmd[s]");

    std::vector<core::MissionSpec> specs;
    for (const char *cfg : {"A", "B", "C"}) {
        for (double yaw : {-20.0, 0.0, 20.0}) {
            core::MissionSpec spec;
            spec.socName = cfg;
            spec.initialYawDeg = yaw;
            specs.push_back(spec);
        }
    }

    core::BatchRunner runner(cli.options());
    std::vector<core::MissionResult> results = runner.run(specs);

    for (size_t i = 0; i < specs.size(); ++i) {
        const core::MissionSpec &spec = specs[i];
        const core::MissionResult &r = results[i];

        double first_cmd = 0.0;
        if (!r.inferenceLog.empty()) {
            first_cmd = double(r.inferenceLog.front().commandCycle) /
                        1e9;
        }
        std::printf("%-6s %+-8.0f %-10s %-6llu %-12.0f %-12.2f\n",
                    spec.socName.c_str(), spec.initialYawDeg,
                    core::missionTimeString(r).c_str(),
                    (unsigned long long)r.collisions,
                    r.avgInferenceLatency * 1e3, first_cmd);

        std::string path = "fig10_cfg" + spec.socName + "_yaw" +
                           std::to_string(int(spec.initialYawDeg)) +
                           ".csv";
        core::writeTrajectoryCsv(path, r);
    }

    core::BatchReport report("fig10_hw_trajectories");
    report.add("cfgAxBxC_yaw_sweep", runner.stats());
    report.write(cli.jsonPath);

    std::printf("\nExpected shape: A and B complete with near-identical "
                "trajectories; C collides repeatedly (multi-second "
                "inference latency exceeds the collision horizon).\n");
    std::printf("Trajectory CSVs written to fig10_cfg*_yaw*.csv\n");
    return 0;
}
