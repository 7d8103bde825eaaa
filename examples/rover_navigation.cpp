/**
 * @file
 * Robot-morphology demo: the same full-stack co-simulation — SoC,
 * bridge, synchronizer, DNN controller — driving an Ackermann ground
 * rover instead of the UAV (the paper artifact's "car vs drone"
 * option, Appendix A.8.3; morphology breadth is Section 6's roadmap).
 * Only the environment-side vehicle model changes; the companion
 * computer runs the identical software stack.
 *
 * Run: ./build/examples/rover_navigation [world] [velocity]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/experiment.hh"

int
main(int argc, char **argv)
{
    using namespace rose;

    core::MissionSpec spec = core::parseMissionSpec(
        "world=s-shape vehicle=rover velocity=6 sim-seconds=90");
    if (argc > 1)
        spec.world = argv[1];
    if (argc > 2)
        spec.velocity = std::atof(argv[2]);

    std::printf("RoSE rover navigation: %s @ %.1f m/s, ResNet14 on "
                "config A\n\n",
                spec.world.c_str(), spec.velocity);

    core::MissionResult r = core::runMission(spec);

    std::printf("mission %s in %.2f s (collisions: %llu)\n",
                r.completed() ? "COMPLETED" : "TIMED OUT", r.missionTime,
                (unsigned long long)r.collisions);
    std::printf("avg speed %.2f m/s, %llu inferences at %.0f ms "
                "request->command\n",
                r.avgSpeed, (unsigned long long)r.inferences,
                r.avgInferenceLatency * 1e3);

    std::printf("\ntrajectory (every ~3 s):\n%8s %8s %8s %8s\n", "t[s]",
                "x[m]", "y[m]", "v[m/s]");
    double next_t = 0.0;
    for (const core::TrajectorySample &s : r.trajectory) {
        if (s.time >= next_t) {
            std::printf("%8.2f %8.2f %8.2f %8.2f\n", s.time,
                        s.position.x, s.position.y, s.speed);
            next_t += 3.0;
        }
    }
    return r.completed() ? 0 : 1;
}
