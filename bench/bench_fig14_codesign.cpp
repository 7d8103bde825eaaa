/**
 * @file
 * Figure 14: hardware/software co-design — mission time, velocity, and
 * DNN activity for BOOM+Gemmini vs Rocket+Gemmini across the DNN zoo
 * (Section 5.4).
 *
 * Paper findings to reproduce:
 *  - with BOOM, the mid-size ResNet14 is the optimal design point;
 *  - with Rocket, the added host latency pushes mid/large nets past
 *    the stability/deadline boundary (collision recovery, much higher
 *    mission times) — the optimal design point *changes* with the SoC
 *    microarchitecture, which post-silicon core-count/frequency tuning
 *    alone cannot reveal.
 *
 * The full 2-SoC x 5-model x 3-seed design matrix (30 missions) runs
 * through the deterministic mission batch runner (--jobs N; output
 * identical for any N). Batch timing lands in BENCH_batch.json.
 */

#include <cstdio>
#include <iterator>
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

    // Average each design point over seeds: configurations near the
    // stability boundary are bimodal run-to-run (the artifact
    // appendix's variance warning), and the mean surfaces that.
    const uint64_t kSeeds[] = {1, 2, 3};
    const char *kConfigs[] = {"A", "B"};

    std::vector<core::MissionSpec> specs;
    for (const char *cfg : kConfigs) {
        for (int depth : dnn::resnetZoo()) {
            for (uint64_t seed : kSeeds) {
                core::MissionSpec spec =
                    core::parseMissionSpec("world=s-shape velocity=9");
                spec.socName = cfg;
                spec.modelDepth = depth;
                spec.seed = seed;
                specs.push_back(spec);
            }
        }
    }

    core::BatchRunner runner(cli.options());
    std::vector<core::MissionResult> results = runner.run(specs);

    std::printf("Figure 14: HW/SW co-design sweep (s-shape @ 9 m/s)\n");
    size_t idx = 0;
    for (const char *cfg : kConfigs) {
        soc::SocConfig sc = soc::configByName(cfg);
        std::printf("\nconfig %s (%s + %s):\n", cfg,
                    sc.cpuName().c_str(), sc.acceleratorName().c_str());
        std::printf("  %-10s %-7s %-4s %-6s %-10s %-10s %-12s\n",
                    "model", "mission", "done", "coll", "avgv[m/s]",
                    "activity", "infer[ms]");

        double best_time = 1e9;
        std::string best;
        for (int depth : dnn::resnetZoo()) {
            double time_sum = 0.0, v_sum = 0.0, act_sum = 0.0,
                   lat_sum = 0.0;
            uint64_t coll_sum = 0;
            int completed = 0;
            for (size_t s = 0; s < std::size(kSeeds); ++s) {
                const core::MissionResult &r = results[idx++];
                time_sum += r.missionTime;
                v_sum += r.avgSpeed;
                act_sum += r.accelActivityFactor;
                lat_sum += r.avgInferenceLatency;
                coll_sum += r.collisions;
                completed += r.completed() ? 1 : 0;
            }
            double n = double(std::size(kSeeds));
            std::printf("  %-10s %6.2fs %2d/%d %-6llu %-10.2f %-10.3f "
                        "%-12.0f\n",
                        ("ResNet" + std::to_string(depth)).c_str(),
                        time_sum / n, completed, int(n),
                        (unsigned long long)coll_sum, v_sum / n,
                        act_sum / n, lat_sum / n * 1e3);
            if (completed == int(n) && coll_sum == 0 &&
                time_sum / n < best_time) {
                best_time = time_sum / n;
                best = "ResNet" + std::to_string(depth);
            }
        }
        if (best.empty()) {
            std::printf("  -> no design point completed cleanly on "
                        "config %s\n", cfg);
        } else {
            std::printf("  -> best clean design point on config %s: "
                        "%s (%.2f s)\n", cfg, best.c_str(), best_time);
        }
    }

    core::BatchReport report("fig14_codesign");
    report.add("soc_x_zoo_x_seeds", runner.stats());
    report.write(cli.jsonPath);

    std::printf("\nExpected shape: Rocket mission times are uniformly "
                "worse; models that are optimal on BOOM collapse on "
                "Rocket (collision recovery), shifting the optimal "
                "design point.\n");
    return 0;
}
