/**
 * @file
 * Ablation: DNN controller vs classical vision-aided MPC on the same
 * SoC and mission — the paper's Section 6 extension class
 * ("classical algorithms ... build upon iterative optimization
 * algorithms ... [with] data-dependent runtime behaviors"). Reports
 * the per-loop compute-time distribution (the classical loop's
 * variance comes entirely from data-dependent solver iterations) and
 * the mission-level outcomes, per SoC.
 *
 * Each SoC's DNN/MPC mission pair is an independent work item run
 * through the deterministic parallel map (--jobs N; output identical
 * for any N).
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/batch.hh"
#include "core/experiment.hh"
#include "util/stats.hh"

namespace {

/** Both companion-software variants on one SoC. */
struct SocRow
{
    rose::core::MissionResult dnn;
    rose::core::MpcMissionResult mpc;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace rose;

    core::BatchCli cli = core::parseBatchCli(argc, argv);

    std::printf("Ablation: DNN vs classical MPC companion software "
                "(tunnel @ 3 m/s)\n\n");
    std::printf("%-4s %-10s %-8s %-7s %-7s %-9s %-12s %-14s\n", "SoC",
                "app", "mission", "coll", "loops", "rate[Hz]",
                "lat[ms]", "iters min/avg/max");

    const std::vector<const char *> socs = {"A", "B"};
    std::vector<SocRow> rows = core::parallelIndexed<SocRow>(
        socs.size(), cli.jobs, [&socs](size_t i) {
            core::MissionSpec spec = core::parseMissionSpec("sim-seconds=40");
            spec.socName = socs[i];

            SocRow row;
            row.dnn = core::runMission(spec);
            row.mpc = core::runMpcMission(spec);
            return row;
        });

    for (size_t i = 0; i < socs.size(); ++i) {
        const char *soc_name = socs[i];
        const core::MissionResult &dnn = rows[i].dnn;
        const core::MpcMissionResult &mpc = rows[i].mpc;

        std::printf("%-4s %-10s %-8s %-7llu %-7llu %-9.1f %-12.0f %-14s\n",
                    soc_name, "trail-dnn",
                    core::missionTimeString(dnn).c_str(),
                    (unsigned long long)dnn.collisions,
                    (unsigned long long)dnn.inferences,
                    dnn.missionTime > 0
                        ? double(dnn.inferences) / dnn.missionTime
                        : 0.0,
                    dnn.avgInferenceLatency * 1e3, "-");

        ScalarStat iters;
        for (const runtime::MpcRecord &rec : mpc.log)
            iters.sample(double(rec.solverIterations));
        std::printf("%-4s %-10s %7.2fs %-7llu %-7zu %-9.1f %-12.1f "
                    "%2.0f/%4.1f/%2.0f\n",
                    soc_name, "mpc",
                    mpc.missionTime,
                    (unsigned long long)mpc.collisions, mpc.log.size(),
                    mpc.missionTime > 0
                        ? double(mpc.log.size()) / mpc.missionTime
                        : 0.0,
                    mpc.avgLatencySeconds() * 1e3, iters.min(),
                    iters.mean(), iters.max());
    }

    std::printf("\nExpected shape: the classical loop runs an order of "
                "magnitude faster than the DNN pipeline and uses no "
                "accelerator, but its per-loop compute is "
                "data-dependent (iteration spread), the behavior class "
                "the paper's Section 6 targets.\n");
    return 0;
}
