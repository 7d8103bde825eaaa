/**
 * @file
 * Quickstart: run one full RoSÉ co-simulation — a UAV navigating the
 * tunnel environment with a ResNet14 controller on the BOOM+Gemmini
 * SoC (config A) — and print the mission metrics plus a trajectory
 * excerpt.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "core/cosim.hh"

int
main()
{
    using namespace rose;

    core::CosimConfig cfg;
    cfg.env.worldName = "tunnel";
    cfg.env.initialYawDeg = 10.0;
    cfg.soc = soc::configA();             // 3-wide BOOM + Gemmini
    cfg.app.modelDepth = 14;              // ResNet14 controller
    cfg.app.policy.forwardVelocity = 3.0; // m/s
    cfg.sync.cyclesPerSync = 10 * kMegaCycles;
    cfg.maxSimSeconds = 40.0;

    std::printf("RoSE quickstart: %s, SoC config %s (%s + %s), "
                "ResNet%d @ %.1f m/s\n",
                cfg.env.worldName.c_str(), cfg.soc.name.c_str(),
                cfg.soc.cpuName().c_str(),
                cfg.soc.acceleratorName().c_str(), cfg.app.modelDepth,
                cfg.app.policy.forwardVelocity);

    core::CoSimulation sim(cfg);
    core::MissionResult r = sim.run();

    std::printf("\nmission %s in %.2f s  (collisions: %llu)\n",
                r.completed() ? "COMPLETED" : "TIMED OUT", r.missionTime,
                (unsigned long long)r.collisions);
    std::printf("avg speed %.2f m/s, distance %.1f m\n", r.avgSpeed,
                r.distanceTravelled);
    std::printf("inferences: %llu, avg request->command latency "
                "%.1f ms\n",
                (unsigned long long)r.inferences,
                r.avgInferenceLatency * 1e3);
    std::printf("accelerator activity factor: %.3f\n",
                r.accelActivityFactor);
    std::printf("simulation rate: %.1f simulated MHz (%.2f s wall)\n",
                r.simulationRateMHz(), r.wallSeconds);

    std::printf("\ntrajectory (every ~2 s):\n%8s %8s %8s %8s %8s\n",
                "t[s]", "x[m]", "y[m]", "z[m]", "v[m/s]");
    double next_t = 0.0;
    for (const core::TrajectorySample &s : r.trajectory) {
        if (s.time >= next_t) {
            std::printf("%8.2f %8.2f %8.2f %8.2f %8.2f\n", s.time,
                        s.position.x, s.position.y, s.position.z,
                        s.speed);
            next_t += 2.0;
        }
    }
    return r.completed() ? 0 : 1;
}
