/**
 * @file
 * Figure 12: a sweep of the flight controller's velocity targets
 * running ResNet14 on BOOM+Gemmini (Section 5.2).
 *
 * Paper findings to reproduce in the s-shape map:
 *  - 6 m/s: safest trajectory, longest mission;
 *  - 9 m/s: shortest mission time (paper: 12.14 s);
 *  - 12 m/s: collisions "directly after deadline violations" — the
 *    inference latency exceeds the Equation 5 budget at that speed.
 *
 * Also prints the per-velocity deadline budget (Equations 3-5) at a
 * representative obstacle depth to show where the violation begins.
 * Runs through the deterministic mission batch runner (--jobs N).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/batch.hh"
#include "core/experiment.hh"
#include "dnn/engine.hh"
#include "runtime/deadline.hh"

int
main(int argc, char **argv)
{
    using namespace rose;

    core::BatchCli cli = core::parseBatchCli(argc, argv);

    dnn::ExecutionEngine engine(soc::configA());
    double infer_lat = engine.latencySeconds(*dnn::sharedResNet(14));
    runtime::DeadlineModel dl;

    std::printf("Figure 12: velocity sweep, ResNet14 on config A "
                "(s-shape)\n\n");
    std::printf("%-8s %-10s %-6s %-10s %-16s\n", "v[m/s]", "mission",
                "coll", "avgv[m/s]", "critical-depth[m]");

    std::vector<core::MissionSpec> specs;
    for (double v : {6.0, 9.0, 12.0}) {
        core::MissionSpec spec = core::parseMissionSpec("world=s-shape");
        spec.velocity = v;
        specs.push_back(spec);
    }

    core::BatchRunner runner(cli.options());
    std::vector<core::MissionResult> results = runner.run(specs);

    for (size_t i = 0; i < specs.size(); ++i) {
        double v = specs[i].velocity;
        const core::MissionResult &r = results[i];

        // Equations 3-5 inverted: the forward depth below which the
        // deadline is violated (collision unavoidable at this speed).
        // The s-shape turns force the forward depth down toward the
        // corridor half-width (2 m), so once the critical depth
        // exceeds that, collisions follow.
        double critical = v * (infer_lat + dl.sensorLatency +
                               dl.actuationLatency);
        std::printf("%-8.1f %-10s %-6llu %-10.2f %-16.2f\n", v,
                    core::missionTimeString(r).c_str(),
                    (unsigned long long)r.collisions, r.avgSpeed,
                    critical);
        core::writeTrajectoryCsv(
            "fig12_v" + std::to_string(int(v)) + ".csv", r);
    }

    core::BatchReport report("fig12_velocity_sweep");
    report.add("velocity_sweep", runner.stats());
    report.write(cli.jsonPath);

    std::printf("\nResNet14 inference latency on config A: %.0f ms; "
                "s-shape corridor half-width: 2.0 m\n",
                infer_lat * 1e3);
    std::printf("Expected shape: 6 m/s safe and slow; 9 m/s fastest "
                "clean mission; 12 m/s collides once the deadline "
                "budget drops below the inference latency.\n");
    return 0;
}
