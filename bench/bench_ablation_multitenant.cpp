/**
 * @file
 * Ablation: multi-tenant interference — the paper's opening motivation
 * ("the performance of each individual accelerator can be heavily
 * impacted by system-level resource contentions where multiple
 * general-purpose cores and accelerators are running together",
 * Section 1). A background CPU task (telemetry/logging/mapping class)
 * time-shares the companion computer with the ResNet14 controller; the
 * sweep shows how growing co-tenant share stretches the effective
 * inference latency and degrades — then destroys — the mission, even
 * though the accelerator itself is untouched.
 */

#include <cstdio>

#include "core/experiment.hh"

int
main()
{
    using namespace rose;

    std::printf("Ablation: background co-tenant share vs closed-loop "
                "outcome (s-shape @ 9 m/s, ResNet14 on config A)\n\n");
    std::printf("%-10s %-10s %-6s %-12s %-10s\n", "bg-share",
                "mission", "coll", "infer[ms]", "activity");

    for (double share : {0.0, 0.2, 0.33, 0.5, 0.67}) {
        core::CosimConfig cfg =
            core::parseMissionSpec("world=s-shape velocity=9").toConfig();
        if (share > 0.0) {
            cfg.background.enabled = true;
            cfg.background.fgQuantum = 100'000;
            cfg.background.bgQuantum =
                Cycles(100'000 * share / (1.0 - share));
        }
        core::CoSimulation sim(cfg);
        core::MissionResult r = sim.run();
        std::printf("%-10.0f %-10s %-6llu %-12.0f %-10.3f\n",
                    share * 100.0,
                    core::missionTimeString(r).c_str(),
                    (unsigned long long)r.collisions,
                    r.avgInferenceLatency * 1e3,
                    r.accelActivityFactor);
    }

    std::printf("\nExpected shape: latency stretches with the "
                "co-tenant's share (the DNN's host-side work is "
                "time-sliced) until the control loop crosses its "
                "stability boundary and the mission collapses — a "
                "system-level effect invisible to isolated accelerator "
                "benchmarks.\n");
    return 0;
}
