/**
 * @file
 * Ablation: mission energy across the design space — the axis the
 * paper's motivation is built on (Section 1: the fruit fly's 120 nW vs
 * 2 mW VIO silicon; Section 2.1: battery and weight bound onboard
 * compute). For every SoC x DNN design point, reports mission energy
 * and average SoC power on the s-shape task, next to mission time —
 * the energy/latency/robustness trade surface a robotics-SoC architect
 * actually navigates.
 *
 * The 10-point design matrix runs through the deterministic mission
 * batch runner (--jobs N; output identical for any N).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/batch.hh"
#include "core/experiment.hh"
#include "dnn/resnet.hh"

int
main(int argc, char **argv)
{
    using namespace rose;

    core::BatchCli cli = core::parseBatchCli(argc, argv);

    std::printf("Ablation: mission energy (s-shape @ 9 m/s)\n\n");
    std::printf("%-4s %-10s %-10s %-6s %-12s %-12s %-14s\n", "SoC",
                "DNN", "mission", "coll", "energy[J]", "power[mW]",
                "J-per-meter");

    std::vector<core::MissionSpec> specs;
    for (const char *soc_name : {"A", "B"}) {
        for (int depth : dnn::resnetZoo()) {
            core::MissionSpec spec =
                core::parseMissionSpec("world=s-shape velocity=9");
            spec.socName = soc_name;
            spec.modelDepth = depth;
            specs.push_back(spec);
        }
    }

    core::BatchRunner runner(cli.options());
    std::vector<core::MissionResult> results = runner.run(specs);

    for (size_t i = 0; i < specs.size(); ++i) {
        const core::MissionSpec &spec = specs[i];
        const core::MissionResult &r = results[i];
        double jpm = r.distanceTravelled > 1.0
                         ? r.energyJoules / r.distanceTravelled
                         : 0.0;
        std::printf("%-4s %-10s %-10s %-6llu %-12.3f %-12.1f "
                    "%-14.4f\n",
                    spec.socName.c_str(),
                    ("ResNet" + std::to_string(spec.modelDepth)).c_str(),
                    core::missionTimeString(r).c_str(),
                    (unsigned long long)r.collisions,
                    r.energyJoules, r.avgPowerWatts * 1e3, jpm);
    }

    core::BatchReport report("ablation_energy");
    report.add("soc_x_zoo", runner.stats());
    report.write(cli.jsonPath);

    std::printf("\nExpected shape: energy grows with model size (more "
                "accelerator and host activity) and explodes for "
                "design points that collide (longer missions at high "
                "power); the in-order host (B) draws less power but "
                "pays in mission robustness — the co-design trade the "
                "paper's infrastructure exists to expose.\n");
    return 0;
}
