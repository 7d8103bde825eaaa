/**
 * @file
 * Ablation: pre-silicon accelerator design-space exploration — the
 * capability the paper argues hardware-in-the-loop with off-the-shelf
 * parts cannot provide (Section 2.2: MAVBench users can only tune
 * "post-silicon system parameters such as core count and clock
 * frequency, without access to a wider range of microarchitectural
 * parameters across accelerator design and SoC integration").
 *
 * Three sweeps:
 *  1. Gemmini mesh size (2x2 .. 16x16) x scratchpad capacity ->
 *     isolated inference latency of ResNet14/ResNet34;
 *  2. memory contention: a background bus master consuming a fraction
 *     of the shared 128-bit bus (modeled with soc::SharedBus) erodes
 *     the accelerator's effective bandwidth -> inference latency;
 *  3. closed-loop check: a 2x2-mesh SoC vs the baseline 4x4 at the
 *     paper's 9 m/s s-shape mission.
 */

#include <cstdio>
#include <string>

#include "core/experiment.hh"
#include "dnn/engine.hh"
#include "soc/mem.hh"

using namespace rose;

namespace {

double
latencyWith(const gemmini::GemminiConfig &g, int depth)
{
    dnn::ExecutionEngine engine(soc::configA(), g);
    return engine.latencySeconds(dnn::makeResNet(depth));
}

} // namespace

int
main()
{
    std::printf("Ablation 1: Gemmini mesh / scratchpad sweep "
                "(BOOM host, isolated inference latency)\n\n");
    std::printf("%-8s %-10s %-14s %-14s\n", "mesh", "spad[KiB]",
                "ResNet14[ms]", "ResNet34[ms]");
    for (int mesh : {2, 4, 8, 16}) {
        for (uint32_t spad_kib : {128u, 256u, 512u}) {
            gemmini::GemminiConfig g;
            g.meshRows = g.meshCols = mesh;
            g.scratchpadBytes = spad_kib * 1024;
            g.accumulatorBytes = spad_kib * 256; // keep 4:1 ratio
            std::printf("%dx%-6d %-10u %-14.0f %-14.0f\n", mesh, mesh,
                        spad_kib, latencyWith(g, 14) * 1e3,
                        latencyWith(g, 34) * 1e3);
        }
    }
    std::printf("\nExpected shape: latency saturates with mesh size "
                "(host overhead dominates the small nets) — exactly "
                "why end-to-end evaluation matters; scratchpad capacity "
                "is secondary at these layer sizes.\n");

    // ------------------------------------------------------------------
    std::printf("\nAblation 2: shared-bus contention (background "
                "traffic vs inference latency)\n\n");
    std::printf("%-14s %-16s %-14s %-14s\n", "bg-traffic", "eff-bw[B/cy]",
                "ResNet14[ms]", "ResNet34[ms]");
    soc::SharedBus bus(16.0);
    for (double frac : {0.0, 0.5, 0.75, 0.875, 0.9375}) {
        gemmini::GemminiConfig g;
        g.busBytesPerCycle = bus.effectiveBandwidth(frac);
        std::printf("%-14.1f %-16.1f %-14.0f %-14.0f\n", frac * 100.0,
                    g.busBytesPerCycle, latencyWith(g, 14) * 1e3,
                    latencyWith(g, 34) * 1e3);
    }
    std::printf("\nExpected shape: the double-buffered accelerator is "
                "compute-bound and tolerates moderate contention, then "
                "degrades once effective bandwidth crosses the "
                "compute/memory balance point — the kind of threshold "
                "only a system-level model exposes.\n");

    // ------------------------------------------------------------------
    std::printf("\nAblation 3: closed-loop effect of mesh size "
                "(s-shape @ 9 m/s, ResNet34 controller)\n\n");
    std::printf("%-8s %-12s %-10s %-6s\n", "mesh", "infer[ms]",
                "mission", "coll");
    for (int mesh : {2, 4, 8}) {
        gemmini::GemminiConfig g;
        g.meshRows = g.meshCols = mesh;

        core::CosimConfig cfg =
            core::parseMissionSpec("world=s-shape depth=34 velocity=9")
                .toConfig();
        cfg.app.gemmini = g;
        core::CoSimulation sim(cfg);
        core::MissionResult r = sim.run();
        std::printf("%dx%-6d %-12.0f %-10s %-6llu\n", mesh, mesh,
                    latencyWith(g, 34) * 1e3,
                    core::missionTimeString(r).c_str(),
                    (unsigned long long)r.collisions);
    }
    return 0;
}
