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
#include <stdexcept>
#include <string>

#include "core/experiment.hh"
#include "env/world.hh"

int
main(int argc, char **argv)
{
    using namespace rose;

    core::MissionSpec spec = core::parseMissionSpec(
        "world=s-shape vehicle=rover velocity=6 sim-seconds=90");
    // The positionals are text-form values: a world name and a
    // velocity that must each be one whole token.
    try {
        if (argc > 3)
            throw std::invalid_argument("too many arguments");
        const char *keys[] = {"world", "velocity"};
        for (int i = 1; i < argc; ++i) {
            std::string value = argv[i];
            if (value.empty() ||
                value.find_first_of(" \t\n") != std::string::npos)
                throw std::invalid_argument("bad value '" + value + "'");
            spec = core::parseMissionSpec(
                std::string(keys[i - 1]) + "=" + value, spec);
        }
        env::makeWorld(spec.world);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s: %s\nusage: %s [world] [velocity]\n",
                     argv[0], e.what(), argv[0]);
        return 2;
    }

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
