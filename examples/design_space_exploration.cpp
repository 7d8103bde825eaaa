/**
 * @file
 * Design-space exploration: the paper's headline use case — sweep SoC
 * configurations against controller DNNs in a closed-loop mission and
 * tabulate mission-level outcomes next to the isolated inference
 * latencies, showing why isolated benchmarking is not enough
 * (Sections 5.1/5.4).
 *
 * The full SoC x DNN matrix runs through the deterministic mission
 * batch runner: --jobs N fans the missions out over N worker threads
 * and the table is identical for any N.
 *
 * Run: ./build/examples/design_space_exploration [--jobs N]
 *          [world] [velocity]
 */

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/batch.hh"
#include "core/experiment.hh"
#include "dnn/engine.hh"
#include "env/world.hh"

int
main(int argc, char **argv)
{
    using namespace rose;

    core::BatchCli cli =
        core::parseBatchCli(argc, argv, "[world] [velocity]");
    // The positionals are text-form values, each one whole token.
    // Every slot of the sweep flies the same world and velocity:
    // reject a bad one once here instead of failing all of them.
    core::MissionSpec base = core::parseMissionSpec("world=s-shape velocity=9");
    try {
        if (argc > 3)
            throw std::invalid_argument("too many arguments");
        const char *keys[] = {"world", "velocity"};
        for (int i = 1; i < argc; ++i) {
            std::string value = argv[i];
            if (value.empty() ||
                value.find_first_of(" \t\n") != std::string::npos)
                throw std::invalid_argument("bad value '" + value + "'");
            base = core::parseMissionSpec(
                std::string(keys[i - 1]) + "=" + value, base);
        }
        env::makeWorld(base.world);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
    }
    const std::string &world = base.world;
    const double velocity = base.velocity;

    std::printf("RoSE design-space exploration: %s @ %.1f m/s\n\n",
                world.c_str(), velocity);
    std::printf("%-4s %-10s %-12s %-10s %-6s %-10s %-10s\n", "SoC",
                "DNN", "infer[ms]", "mission", "coll", "avgv[m/s]",
                "activity");

    std::vector<core::MissionSpec> specs;
    for (const char *soc_name : {"A", "B"}) {
        for (int depth : dnn::resnetZoo()) {
            core::MissionSpec spec;
            spec.world = world;
            spec.socName = soc_name;
            spec.modelDepth = depth;
            spec.velocity = velocity;
            specs.push_back(spec);
        }
    }

    core::BatchRunner runner(cli.options());
    std::vector<core::MissionResult> results = runner.run(specs);

    for (size_t i = 0; i < specs.size(); ++i) {
        const core::MissionSpec &spec = specs[i];
        const core::MissionResult &r = results[i];

        dnn::ExecutionEngine engine(soc::configByName(spec.socName));
        double lat =
            engine.latencySeconds(*dnn::sharedResNet(spec.modelDepth));

        std::printf("%-4s %-10s %-12.0f %-10s %-6llu %-10.2f "
                    "%-10.3f\n",
                    spec.socName.c_str(),
                    ("ResNet" + std::to_string(spec.modelDepth)).c_str(),
                    lat * 1e3,
                    core::missionTimeString(r).c_str(),
                    (unsigned long long)r.collisions, r.avgSpeed,
                    r.accelActivityFactor);
    }

    // Timing goes to stderr + JSON so stdout stays byte-identical
    // across --jobs values (the determinism contract is checkable by
    // diffing the table).
    const core::BatchStats &bs = runner.stats();
    std::fprintf(stderr,
                 "[batch] %zu missions in %.2f s wall (%.2f s serial "
                 "equivalent, %.2fx speedup at %d jobs)\n",
                 bs.missions, bs.wallSeconds, bs.serialSeconds,
                 bs.speedup(), cli.jobs);

    core::BatchReport report("design_space_exploration");
    report.add(world + "_soc_x_zoo", bs);
    report.write(cli.jsonPath);

    std::printf("\nNote how designs with similar isolated latency can "
                "have very different mission outcomes — the\n"
                "closed-loop, system-level interaction RoSE exists to "
                "expose.\n");
    return 0;
}
