/**
 * @file
 * Mission runner CLI — the equivalent of the paper artifact's
 * deploy/hephaestus/runner.py: one binary that deploys a configurable
 * co-simulation from command-line flags and emits the artifact-style
 * CSV logs (UAV dynamics, sensing requests, control targets).
 *
 * Usage:
 *   mission_runner [mission spec flags] [--tcp] [--csv PATH]
 *                  [--trace PATH.json] [--stats] [--quiet]
 *
 * The mission spec flags are the fields of the MissionSpec text form
 * (core/experiment.hh), `--key value` for each `key=value`; --help
 * lists them. A bad flag or value exits 2 before any mission runs.
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/experiment.hh"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [mission spec flags] [--tcp] [--csv PATH]\n"
                 "          [--trace PATH.json] [--stats] [--quiet]\n"
                 "mission spec flags:\n%s",
                 argv0, rose::core::missionSpecUsage().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rose;

    core::MissionSpec spec;
    bool use_tcp = false;
    bool quiet = false;
    bool stats = false;
    std::string csv_path;
    std::string trace_path;
    core::CosimConfig cfg;
    std::unique_ptr<core::CoSimulation> sim;

    try {
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            auto need = [&]() -> const char * {
                if (i + 1 >= argc)
                    throw std::invalid_argument(a + " requires a value");
                return argv[++i];
            };
            if (core::consumeMissionSpecFlag(spec, argc, argv, i)) {
                continue;
            } else if (a == "--tcp") {
                use_tcp = true;
            } else if (a == "--csv") {
                csv_path = need();
            } else if (a == "--trace") {
                trace_path = need();
            } else if (a == "--stats") {
                stats = true;
            } else if (a == "--quiet") {
                quiet = true;
            } else if (a == "--help" || a == "-h") {
                usage(argv[0]);
                return 0;
            } else {
                throw std::invalid_argument("unknown flag: " + a);
            }
        }
        core::validateMissionSpec(spec);
        // Names resolve here: an unknown world, vehicle or SoC throws.
        cfg = spec.toConfig();
        if (use_tcp)
            cfg.transport = core::TransportKind::Tcp;
        sim = std::make_unique<core::CoSimulation>(cfg);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        usage(argv[0]);
        return 2;
    }

    if (!quiet) {
        std::printf("rose-runner: %s  transport=%s\n",
                    spec.label().c_str(), use_tcp ? "tcp" : "in-proc");
    }

    soc::ActionTrace trace;
    if (!trace_path.empty())
        sim->socSim().setTrace(&trace);
    core::MissionResult r = sim->run();

    if (!csv_path.empty())
        core::writeTrajectoryCsv(csv_path, r);
    if (!trace_path.empty()) {
        trace.writeChromeTrace(trace_path, cfg.soc.clockHz);
        if (!quiet)
            std::printf("chrome trace (%zu events): %s\n",
                        trace.events().size(), trace_path.c_str());
    }

    if (!quiet) {
        std::printf("result: %s mission=%.2fs collisions=%llu "
                    "avg_speed=%.2f inferences=%llu "
                    "infer_latency=%.0fms activity=%.3f "
                    "sim_rate=%.0fMHz\n",
                    r.completed() ? "completed" : "timeout",
                    r.missionTime, (unsigned long long)r.collisions,
                    r.avgSpeed, (unsigned long long)r.inferences,
                    r.avgInferenceLatency * 1e3, r.accelActivityFactor,
                    r.simulationRateMHz());
        if (!csv_path.empty())
            std::printf("trajectory csv: %s\n", csv_path.c_str());
    }
    if (stats)
        sim->printSummary(std::cout);
    return r.completed() ? 0 : 1;
}
