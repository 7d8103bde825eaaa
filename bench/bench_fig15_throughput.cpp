/**
 * @file
 * Figure 15 (and Table 4): RoSE simulator throughput vs synchronization
 * granularity.
 *
 * Two views are produced:
 *  1. the deployment host model (Table 4-class FPGA + host): throughput
 *     = G / (G/R_fpga + T_sync), exhibiting the paper's two bottleneck
 *     regimes — sync-overhead-bound at fine granularity, FPGA-rate-
 *     bound at coarse granularity;
 *  2. measured wall-clock throughput of this repository's in-process
 *     co-simulation across the same granularity sweep (no FPGA here;
 *     the software SoC model runs orders of magnitude faster than
 *     real-time RTL emulation, but the same sync-overhead trend shows).
 */

#include <cstdio>

#include "core/experiment.hh"
#include "core/hostmodel.hh"

int
main()
{
    using namespace rose;

    core::HostModel host;
    std::printf("Figure 15: simulation throughput vs synchronization "
                "granularity\n\n");
    std::printf("Host model (Table 4-class deployment: %.0f MHz FPGA, "
                "%.1f ms per-sync overhead):\n",
                host.fpgaRateHz / 1e6, host.syncOverheadSeconds * 1e3);
    std::printf("  %-14s %-18s %-18s\n", "granularity",
                "throughput[MHz]", "sync-bound[%]");
    std::vector<Cycles> host_sweep{1 * kMegaCycles, 2 * kMegaCycles,
                                   5 * kMegaCycles};
    for (Cycles g : core::granularitySweep())
        host_sweep.push_back(g);
    for (Cycles g : host_sweep) {
        std::printf("  %-14s %-18.1f %-18.0f\n",
                    (std::to_string(g / kMegaCycles) + "M").c_str(),
                    host.throughputHz(g) / 1e6,
                    100.0 * host.syncOverheadFraction(g));
    }

    std::printf("\nMeasured in-process co-simulation (tunnel, ResNet14 "
                "@ 3 m/s, config A):\n");
    std::printf("  %-14s %-18s %-14s %-10s\n", "granularity",
                "sim-rate[MHz]", "wall[s]", "mission");
    for (Cycles g : core::granularitySweep()) {
        core::MissionSpec spec = core::parseMissionSpec("sim-seconds=40");
        spec.syncGranularity = g;

        core::MissionResult r = core::runMission(spec);
        std::printf("  %-14s %-18.0f %-14.3f %-10s\n",
                    (std::to_string(g / kMegaCycles) + "M").c_str(),
                    r.simulationRateMHz(), r.wallSeconds,
                    core::missionTimeString(r).c_str());
    }

    std::printf("\nExpected shape: throughput rises with granularity, "
                "bottlenecked by per-sync overhead at fine grain and "
                "by the maximum simulator rate at coarse grain.\n");
    return 0;
}
