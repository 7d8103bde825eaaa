/**
 * @file
 * Figure 11: UAV trajectories sweeping across DNN architectures.
 *
 * Setup (Section 5.2): s-shape environment, 9 m/s velocity target,
 * BOOM+Gemmini SoC (config A), sweeping ResNet-6/11/14/18/34. Paper
 * findings to reproduce:
 *  - mid-size nets complete fastest (the paper's optimum is ResNet14);
 *  - ResNet34's high latency + overconfident (sharp) outputs cause
 *    repeated collisions / non-completion;
 *  - ResNet6's low accuracy and low-confidence outputs produce weak,
 *    sometimes wrong corrections and wall strikes;
 *  - mission times: paper reports ResNet6 16.1 s, ResNet11 12.94 s,
 *    ResNet14 12.32 s, ResNet18 35.68 s.
 *
 * The zoo sweep runs through the deterministic mission batch runner
 * (--jobs N; output identical for any N). Emits
 * lateral-position-over-time series (fig11_resnet<N>.csv) and batch
 * timing in BENCH_batch.json.
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

    std::printf("Figure 11: s-shape DNN sweep @ 9 m/s on config A "
                "(BOOM+Gemmini)\n\n");
    std::printf("%-10s %-10s %-6s %-10s %-12s\n", "model", "mission",
                "coll", "avgv[m/s]", "infer[ms]");

    std::vector<core::MissionSpec> specs;
    for (int depth : dnn::resnetZoo()) {
        core::MissionSpec spec =
            core::parseMissionSpec("world=s-shape velocity=9");
        spec.modelDepth = depth;
        specs.push_back(spec);
    }

    core::BatchRunner runner(cli.options());
    std::vector<core::MissionResult> results = runner.run(specs);

    for (size_t i = 0; i < specs.size(); ++i) {
        const core::MissionResult &r = results[i];
        int depth = specs[i].modelDepth;
        std::printf("%-10s %-10s %-6llu %-10.2f %-12.0f\n",
                    ("ResNet" + std::to_string(depth)).c_str(),
                    core::missionTimeString(r).c_str(),
                    (unsigned long long)r.collisions, r.avgSpeed,
                    r.avgInferenceLatency * 1e3);
        core::writeTrajectoryCsv(
            "fig11_resnet" + std::to_string(depth) + ".csv", r);
    }

    core::BatchReport report("fig11_dnn_sweep");
    report.add("resnet_zoo", runner.stats());
    report.write(cli.jsonPath);

    std::printf("\nExpected shape: small/mid nets complete cleanly with "
                "the mid-size net near-optimal; ResNet6 collides (weak, "
                "low-confidence corrections); ResNet18/34 degrade "
                "heavily (high latency + overconfident outputs).\n");
    std::printf("Series CSVs written to fig11_resnet*.csv\n");
    return 0;
}
