/**
 * @file
 * Dynamic-runtime demo (Section 5.3): the companion computer measures
 * the forward depth sensor, derives the Equation 3-5 compute deadline,
 * and swaps between a high-accuracy ResNet14 and a low-latency ResNet6
 * (with the argmax policy) at runtime. Prints the per-inference
 * decision log so the switching behavior is visible.
 *
 * Run: ./build/examples/dynamic_runtime
 */

#include <cstdio>

#include "core/cosim.hh"

int
main()
{
    using namespace rose;

    core::CosimConfig cfg;
    cfg.env.worldName = "s-shape";
    cfg.soc = soc::configA();
    cfg.app.mode = runtime::RuntimeMode::Dynamic;
    cfg.app.modelDepth = 14;
    cfg.app.smallModelDepth = 6;
    cfg.app.policy.forwardVelocity = 10.25;
    cfg.sync.cyclesPerSync = 10 * kMegaCycles;
    cfg.maxSimSeconds = 45.0;

    std::printf("RoSE dynamic runtime: %s @ %.2f m/s, ResNet14 <-> "
                "ResNet6 (deadline-driven)\n\n",
                cfg.env.worldName.c_str(),
                cfg.app.policy.forwardVelocity);

    core::CoSimulation sim(cfg);
    core::MissionResult r = sim.run();

    std::printf("%-8s %-8s %-10s %-12s %-8s\n", "t[s]", "model",
                "depth[m]", "deadline[ms]", "argmax");
    int shown = 0;
    int last_model = 0;
    for (const runtime::InferenceRecord &rec : r.inferenceLog) {
        // Print decision changes plus a sparse sample of steady rows.
        bool switch_point = rec.modelDepth != last_model;
        if (switch_point || shown % 12 == 0) {
            std::printf("%-8.2f ResNet%-2d %-10.1f %-12.0f %-8s%s\n",
                        double(rec.commandCycle) / cfg.soc.clockHz,
                        rec.modelDepth, rec.depthMeters,
                        rec.deadlineSeconds * 1e3,
                        rec.usedArgmax ? "yes" : "no",
                        switch_point ? "  <- switch" : "");
        }
        last_model = rec.modelDepth;
        ++shown;
    }

    uint64_t small = 0;
    for (const auto &rec : r.inferenceLog)
        small += rec.modelDepth == cfg.app.smallModelDepth;

    std::printf("\nmission %s in %.2f s, collisions %llu\n",
                r.completed() ? "COMPLETED" : "TIMED OUT", r.missionTime,
                (unsigned long long)r.collisions);
    std::printf("inferences: %llu (%llu on the small model, %.0f%%)\n",
                (unsigned long long)r.inferences,
                (unsigned long long)small,
                r.inferences ? 100.0 * double(small) / double(r.inferences)
                             : 0.0);
    std::printf("accelerator activity factor: %.3f\n",
                r.accelActivityFactor);
    return r.completed() ? 0 : 1;
}
