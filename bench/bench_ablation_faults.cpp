/**
 * @file
 * Ablation: closed-loop robustness under transport faults, and the
 * resilience layer's recovery behavior on top of it.
 *
 * Part 1 (transport hardening, PR 1): the FaultInjectTransport
 * decorator drops data packets on the synchronizer<->bridge link while
 * the sync control plane stays protected. The app's sensor-timeout /
 * retry path degrades gracefully (extra latency per lost frame)
 * instead of deadlocking.
 *
 * Part 2 (mission supervisor): the protection comes off, so a single
 * lost SyncGrant/SyncDone aborts an unsupervised mission. The sweep
 * compares unsupervised vs supervised runs across drop rates: the
 * supervisor restores the latest checkpoint and rerolls the injector
 * seed, converting hard aborts into completed simulated time.
 *
 * Part 3 (degraded-mode control): heavy data-plane loss with the
 * classical fallback enabled — the app trades DNN inference for a
 * proportional controller during sensor starvation instead of coasting
 * blind.
 *
 * Results (all parts) are written to BENCH_resilience.json. Each
 * sweep point is an independent seeded simulation run through the
 * deterministic parallel map (--jobs N; output identical for any N).
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch.hh"
#include "core/experiment.hh"
#include "core/supervisor.hh"

namespace {

using namespace rose;

/** One drop-rate point with the stats read off the live simulation. */
struct FaultRow
{
    core::MissionResult result;
    bridge::FaultStats faults;
    uint64_t sensorRetries = 0;
};

/** One recovery-sweep point (unsupervised/supervised pair). */
struct RecoveryRow
{
    double dropProb = 0.0;
    core::MissionResult bare;
    core::MissionResult supervised;
    core::SupervisorStats sup;
};

/** One degraded-mode point. */
struct DegradedRow
{
    double dropProb = 0.0;
    core::MissionResult result;
    uint64_t degradedCommands = 0;
};

core::MissionSpec
baseSpec(double max_sim_seconds)
{
    core::MissionSpec spec;
    spec.maxSimSeconds = max_sim_seconds;
    return spec;
}

void
jsonMission(std::ostream &os, const core::MissionResult &r,
            double max_sim_seconds)
{
    os << "{\"status\": \"" << core::missionStatusName(r.status)
       << "\", \"mission_time\": " << r.missionTime
       << ", \"sim_time_fraction\": "
       << (max_sim_seconds > 0.0 ? r.missionTime / max_sim_seconds : 0.0)
       << ", \"collisions\": " << r.collisions
       << ", \"inferences\": " << r.inferences
       << ", \"distance_m\": " << r.distanceTravelled << "}";
}

} // namespace

int
main(int argc, char **argv)
{
    core::BatchCli cli = core::parseBatchCli(argc, argv);

    // ---------------- Part 1: protected sync, graceful retries ------
    std::printf("Ablation: transport packet loss (tunnel @ 3 m/s, "
                "ResNet14, seeded fault injection, sync packets "
                "protected)\n\n");
    std::printf("%-10s %-10s %-8s %-10s %-10s %-10s %-8s %-8s\n",
                "drop-p", "mission", "coll", "pkts", "dropped",
                "retries", "infer", "error");

    const std::vector<double> drops = {0.0, 0.02, 0.05, 0.1, 0.2};
    std::vector<FaultRow> rows = core::parallelIndexed<FaultRow>(
        drops.size(), cli.jobs, [&drops](size_t i) {
            core::MissionSpec spec = baseSpec(30.0);
            core::CosimConfig cfg = spec.toConfig();
            cfg.faults.enabled = true;
            cfg.faults.dropProb = drops[i];
            cfg.faults.seed = 0xab1a;

            core::CoSimulation sim(cfg);
            FaultRow row;
            row.result = sim.run();
            if (const bridge::FaultStats *fs = sim.faultStats())
                row.faults = *fs;
            row.sensorRetries = sim.app().sensorRetries();
            return row;
        });

    for (size_t i = 0; i < drops.size(); ++i) {
        const FaultRow &row = rows[i];
        std::printf("%-10.2f %-10s %-8llu %-10llu %-10llu %-10llu "
                    "%-8llu %-8s\n",
                    drops[i],
                    core::missionTimeString(row.result).c_str(),
                    (unsigned long long)row.result.collisions,
                    (unsigned long long)(row.faults.sent +
                                         row.faults.received),
                    (unsigned long long)row.faults.dropped,
                    (unsigned long long)row.sensorRetries,
                    (unsigned long long)row.result.inferences,
                    row.result.transportError ? "yes" : "-");
    }

    // ---------------- Part 2: supervisor recovery sweep -------------
    constexpr double kRecoverySimSeconds = 8.0;
    std::printf("\nRecovery sweep: unprotected sync control "
                "(any lost grant aborts), supervisor off vs on "
                "(checkpoint every 20 periods, reroll-seed retry)\n\n");
    std::printf("%-10s %-14s %-8s %-14s %-8s %-9s %-6s\n", "drop-p",
                "bare", "t/Tmax", "supervised", "t/Tmax", "restores",
                "cold");

    const std::vector<double> hostile = {0.0005, 0.001, 0.002, 0.005};
    std::vector<RecoveryRow> rec = core::parallelIndexed<RecoveryRow>(
        hostile.size(), cli.jobs, [&hostile](size_t i) {
            core::MissionSpec spec = baseSpec(kRecoverySimSeconds);
            spec.faults.enabled = true;
            spec.faults.protectSyncPackets = false;
            spec.faults.dropProb = hostile[i];
            spec.faults.seed = 0xab1a + i;

            RecoveryRow row;
            row.dropProb = hostile[i];
            row.bare = core::runMission(spec);

            core::SupervisorConfig sup;
            sup.checkpointPeriods = 20;
            sup.checkpointRingSize = 4;
            sup.maxRetries = 100;
            sup.faultPolicy = core::FaultRetryPolicy::RerollSeed;
            core::MissionSupervisor supervisor(spec.toConfig(), sup);
            row.supervised = supervisor.run();
            row.sup = supervisor.stats();
            return row;
        });

    for (const RecoveryRow &row : rec) {
        std::printf(
            "%-10.4f %-14s %-8.2f %-14s %-8.2f %-9llu %-6llu\n",
            row.dropProb, core::missionStatusName(row.bare.status),
            row.bare.missionTime / kRecoverySimSeconds,
            core::missionStatusName(row.supervised.status),
            row.supervised.missionTime / kRecoverySimSeconds,
            (unsigned long long)row.sup.restores,
            (unsigned long long)row.sup.coldRestarts);
    }

    // ---------------- Part 3: degraded-mode control ------------------
    constexpr double kDegradedSimSeconds = 8.0;
    std::printf("\nDegraded-mode sweep: heavy data-plane loss "
                "(sync protected), classical fallback enabled\n\n");
    std::printf("%-10s %-12s %-10s %-11s %-10s %-10s\n", "drop-p",
                "status", "intervals", "fallbacks", "infer", "dist-m");

    const std::vector<double> heavy = {0.1, 0.25, 0.4};
    std::vector<DegradedRow> deg = core::parallelIndexed<DegradedRow>(
        heavy.size(), cli.jobs, [&heavy](size_t i) {
            core::MissionSpec spec = baseSpec(kDegradedSimSeconds);
            spec.degradedMode = true;
            spec.faults.enabled = true;
            spec.faults.dropProb = heavy[i];
            spec.faults.seed = 0xab1a;

            DegradedRow row;
            row.dropProb = heavy[i];
            row.result = core::runMission(spec);
            for (const auto &d : row.result.degradedIntervals)
                row.degradedCommands += d.commands;
            return row;
        });

    for (const DegradedRow &row : deg) {
        std::printf("%-10.2f %-12s %-10zu %-11llu %-10llu %-10.1f\n",
                    row.dropProb,
                    core::missionStatusName(row.result.status),
                    row.result.degradedIntervals.size(),
                    (unsigned long long)row.degradedCommands,
                    (unsigned long long)row.result.inferences,
                    row.result.distanceTravelled);
    }

    // ---------------- JSON report ------------------------------------
    std::ostringstream js;
    js.precision(6);
    js << "{\n  \"bench\": \"ablation_faults\",\n  \"retry_sweep\": [";
    for (size_t i = 0; i < drops.size(); ++i) {
        js << (i ? ",\n    " : "\n    ") << "{\"drop_prob\": "
           << drops[i] << ", \"sensor_retries\": "
           << rows[i].sensorRetries << ", \"dropped\": "
           << rows[i].faults.dropped << ", \"mission\": ";
        jsonMission(js, rows[i].result, 30.0);
        js << "}";
    }
    js << "\n  ],\n  \"recovery_sweep\": [";
    for (size_t i = 0; i < rec.size(); ++i) {
        js << (i ? ",\n    " : "\n    ") << "{\"drop_prob\": "
           << rec[i].dropProb << ", \"unsupervised\": ";
        jsonMission(js, rec[i].bare, kRecoverySimSeconds);
        js << ", \"supervised\": ";
        jsonMission(js, rec[i].supervised, kRecoverySimSeconds);
        js << ", \"checkpoints\": " << rec[i].sup.checkpointsTaken
           << ", \"restores\": " << rec[i].sup.restores
           << ", \"cold_restarts\": " << rec[i].sup.coldRestarts
           << ", \"retries\": " << rec[i].sup.retriesUsed << "}";
    }
    js << "\n  ],\n  \"degraded_sweep\": [";
    for (size_t i = 0; i < deg.size(); ++i) {
        js << (i ? ",\n    " : "\n    ") << "{\"drop_prob\": "
           << deg[i].dropProb << ", \"degraded_intervals\": "
           << deg[i].result.degradedIntervals.size()
           << ", \"fallback_commands\": " << deg[i].degradedCommands
           << ", \"mission\": ";
        jsonMission(js, deg[i].result, kDegradedSimSeconds);
        js << "}";
    }
    js << "\n  ]\n}\n";

    const char *json_path = "BENCH_resilience.json";
    std::ofstream out(json_path);
    if (out) {
        out << js.str();
        std::printf("\nresilience report written to %s\n", json_path);
    }

    std::printf(
        "\nExpected shape: with sync protection on, loss costs retries "
        "and inference rate, never a hang. With protection off, the "
        "unsupervised column aborts at the first lost grant while the "
        "supervised column recovers to the full simulated horizon. "
        "Under heavy loss the degraded-mode app swaps starved DNN "
        "iterations for classical-fallback commands and keeps moving.\n");
    return 0;
}
