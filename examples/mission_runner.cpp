/**
 * @file
 * Mission runner CLI — the equivalent of the paper artifact's
 * deploy/hephaestus/runner.py: one binary that deploys a configurable
 * co-simulation from command-line flags and emits the artifact-style
 * CSV logs (UAV dynamics, sensing requests, control targets).
 *
 * Usage:
 *   mission_runner [--world tunnel|s-shape] [--vehicle quadrotor|rover]
 *                  [--soc A|B|C] [--model 6|11|14|18|34]
 *                  [--velocity V] [--yaw0 DEG] [--sync MCYCLES]
 *                  [--dynamic] [--tcp] [--seed N] [--max-seconds S]
 *                  [--csv PATH] [--quiet]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "core/experiment.hh"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--world tunnel|s-shape] [--vehicle quadrotor|rover]\n"
        "          [--soc A|B|C] [--model 6|11|14|18|34] [--velocity V]\n"
        "          [--yaw0 DEG] [--sync MCYCLES] [--dynamic] [--tcp]\n"
        "          [--seed N] [--max-seconds S] [--csv PATH]\n"
        "          [--trace PATH.json] [--stats] [--quiet]\n",
        argv0);
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

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--world") {
            spec.world = need("--world");
        } else if (a == "--vehicle") {
            spec.vehicle = need("--vehicle");
        } else if (a == "--soc") {
            spec.socName = need("--soc");
        } else if (a == "--model") {
            spec.modelDepth = std::atoi(need("--model"));
        } else if (a == "--velocity") {
            spec.velocity = std::atof(need("--velocity"));
        } else if (a == "--yaw0") {
            spec.initialYawDeg = std::atof(need("--yaw0"));
        } else if (a == "--sync") {
            spec.syncGranularity =
                Cycles(std::atoll(need("--sync"))) * kMegaCycles;
        } else if (a == "--dynamic") {
            spec.mode = runtime::RuntimeMode::Dynamic;
        } else if (a == "--tcp") {
            use_tcp = true;
        } else if (a == "--seed") {
            spec.seed = uint64_t(std::atoll(need("--seed")));
        } else if (a == "--max-seconds") {
            spec.maxSimSeconds = std::atof(need("--max-seconds"));
        } else if (a == "--csv") {
            csv_path = need("--csv");
        } else if (a == "--trace") {
            trace_path = need("--trace");
        } else if (a == "--stats") {
            stats = true;
        } else if (a == "--quiet") {
            quiet = true;
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    core::CosimConfig cfg = spec.toConfig();
    if (use_tcp)
        cfg.transport = core::TransportKind::Tcp;

    if (!quiet) {
        std::printf("rose-runner: %s  transport=%s\n",
                    spec.label().c_str(), use_tcp ? "tcp" : "in-proc");
    }

    core::CoSimulation sim(cfg);
    soc::ActionTrace trace;
    if (!trace_path.empty())
        sim.socSim().setTrace(&trace);
    core::MissionResult r = sim.run();

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
        sim.printSummary(std::cout);
    return r.completed() ? 0 : 1;
}
