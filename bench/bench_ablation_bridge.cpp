/**
 * @file
 * Ablation: RoSÉ bridge hardware-queue sizing.
 *
 * The bridge's RX queue must stage at least one camera frame
 * (Section 3.4's hardware queues are finite SRAM). This sweep sizes
 * the RX FIFO against the camera resolution and reports drops and the
 * closed-loop consequence: an undersized bridge silently discards
 * sensor data, and the control loop starves — a sizing bug this
 * infrastructure exposes pre-silicon.
 */

#include <cstdio>

#include "core/experiment.hh"

int
main()
{
    using namespace rose;

    // One 64x48 8-bit frame is 3072 B + 9 B of packet framing.
    std::printf("Ablation: bridge RX FIFO sizing (tunnel @ 3 m/s, "
                "ResNet14, 64x48 camera = ~3.1 KiB/frame)\n\n");
    std::printf("%-12s %-10s %-8s %-10s %-10s %-8s\n", "rx-fifo[B]",
                "mission", "coll", "rx-pkts", "dropped", "infer");

    for (size_t rx_bytes : {1024u, 2048u, 4096u, 65536u}) {
        core::CosimConfig cfg =
            core::parseMissionSpec("sim-seconds=20").toConfig();
        cfg.bridgeCfg.rxFifoBytes = rx_bytes;

        core::CoSimulation sim(cfg);
        core::MissionResult r = sim.run();
        const bridge::BridgeStats &bs = sim.bridge().stats();
        std::printf("%-12zu %-10s %-8llu %-10llu %-10llu %-8llu\n",
                    rx_bytes, core::missionTimeString(r).c_str(),
                    (unsigned long long)r.collisions,
                    (unsigned long long)bs.rxPackets,
                    (unsigned long long)bs.rxDropped,
                    (unsigned long long)r.inferences);
    }

    std::printf("\nExpected shape: below one frame (~3.1 KiB) every "
                "image is dropped and the mission never starts; at or "
                "above one frame the loop runs normally. Sizing "
                "guidance: >= one frame plus slack for coalesced "
                "responses.\n");
    return 0;
}
