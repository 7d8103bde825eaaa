/**
 * @file
 * The golden corpus, as data: each row is a mission in the MissionSpec
 * text form (core/experiment.hh, applied onto MissionSpec{}), the
 * transport it runs over, and the checked-in FNV-1a hash of its
 * canonical trajectory CSV with its sample and collision counts.
 * test_golden runs every row, and runs the in-process rows four ways
 * (locally, in a batch, through rosed, and resumed from a mid-mission
 * checkpoint file). Silent physics/timing drift — a changed integrator
 * constant, a reordered RNG draw, an off-by-one sync period — fails
 * there instead of quietly corrupting every number in EXPERIMENTS.md.
 *
 * When a change *intentionally* alters simulation behavior, regenerate
 * the rows: run test_golden with ROSE_REGEN_GOLDEN=1 and paste the
 * printed rows over kGoldenCorpus (the test fails in regen mode so CI
 * can never pass on unpinned values). The trajectory CSV format itself
 * is part of the hashed surface (see core::trajectoryCsvString).
 */

#ifndef ROSE_TESTS_GOLDEN_CORPUS_HH
#define ROSE_TESTS_GOLDEN_CORPUS_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/cosim.hh"
#include "core/experiment.hh"

namespace rose::test {

struct GoldenRow
{
    const char *spec; ///< canonical text form (formatMissionSpec)
    core::TransportKind transport;
    uint64_t hash; ///< fnv1a(trajectoryCsvString(result))
    size_t samples;
    uint64_t collisions;
};

constexpr core::TransportKind kInProc = core::TransportKind::InProcess;
constexpr core::TransportKind kTcp = core::TransportKind::Tcp;

/*
 * The canonical mission is golden A: tunnel, ResNet14 @ 3 m/s, +20
 * degree initial heading (exercises the correction transient), seed 1,
 * 10 simulated seconds, on SoC config A; B and C are Table 2's others.
 *
 * The dynamic rows leave 3 m/s where the Equation 5 deadline never
 * forces a switch: at 3 m/s A and B always fit ResNet14 and C never
 * does. 6 m/s makes A and B fall back to ResNet6 near the walls; C's
 * CPU-only ResNet14 fits the budget only at walking pace.
 *
 * The s-shape row is the only one whose corridor bends, so it is the
 * one that pins the raycaster against a non-constant centerline.
 *
 * The yaw-0 row flies straight down the tunnel, where the heading
 * state stays near zero for the whole mission and the CSV prints the
 * last bits of values like yaw = -5.7e-12. That makes it the row that
 * catches a compiler fusing a*b+c into an FMA under an FMA-capable
 * -march (the build pins -ffp-contract=off for exactly this reason).
 *
 * The zigzag row pins the raycaster against a piecewise-linear
 * centerline with rounded corners (it passes the x = 15 m corner), and
 * so the zigzag world's slope bound end to end. The rover row pins the
 * pose estimator at the rover's 0.8 m camera mast instead of the
 * quadrotor's 1.5 m cruise altitude.
 *
 * The next two rows leave the 10 M-cycle sync. The first runs golden A
 * at 1 M-cycle sync over loopback TCP: ten times the periods, each a
 * real socket round trip, with the same rendered images. The second is
 * golden A for 0.2 s at 20 k-cycle sync: 10,000 samples, most of them
 * before the first command arrives, so the CSV is dense with zero
 * command cells and tiny lateral offsets — the cells the formatter's
 * fast path and its fallbacks must both get right.
 *
 * The two faulted rows run golden A for 2 s with every kind of injected
 * fault: in-process at the default sync, and over loopback TCP at
 * 1 M-cycle sync. The injector's operation clock advances on every
 * send() and recv() call, so these rows pin the number and order of
 * transport calls the lockstep loop makes, not just its packets.
 *
 * The degraded row flies golden B's dynamic runtime at 9 m/s with the
 * classical fallback enabled: near the walls even ResNet6 misses the
 * Equation 5 deadline, so the deadline-miss trigger hands control to
 * the fallback controller and back. The last four rows are golden A
 * with the other static classifier depths of the zoo.
 */
inline constexpr GoldenRow kGoldenCorpus[] = {
    {"yaw=20 sim-seconds=10", kInProc,
     0x2b24ad514f06c3cbULL, 1000, 0},
    {"soc=B yaw=20 sim-seconds=10", kInProc,
     0x02771540364e358fULL, 1000, 0},
    {"soc=C yaw=20 sim-seconds=10", kInProc,
     0x0e337585f9a29f6aULL, 1000, 27},
    {"velocity=6 yaw=20 mode=dynamic sim-seconds=10", kInProc,
     0x1fbdc1290899c590ULL, 911, 0},
    {"soc=B velocity=6 yaw=20 mode=dynamic sim-seconds=10", kInProc,
     0x363ece69e58dc178ULL, 970, 0},
    {"soc=C velocity=0.3 yaw=20 mode=dynamic sim-seconds=10", kInProc,
     0x9cc8dbbd0aa604b7ULL, 1000, 1},
    {"world=s-shape yaw=20 sim-seconds=10", kInProc,
     0x6f0fd34ac7ad97b9ULL, 1000, 0},
    {"seed=2 sim-seconds=10", kInProc,
     0x5cef5ccc941df9abULL, 1000, 0},
    {"world=zigzag yaw=20 sim-seconds=10", kInProc,
     0xa7be05975ffafcc3ULL, 1000, 0},
    {"vehicle=rover yaw=20 sim-seconds=10", kInProc,
     0xe61ec6e9f8e9c160ULL, 1000, 0},
    {"yaw=20 sync-granularity=1000000 sim-seconds=10", kTcp,
     0x037fb031e79ae46bULL, 10001, 0},
    {"yaw=20 sync-granularity=20000 sim-seconds=0.2", kInProc,
     0xdd1cdc85dbc18acfULL, 10000, 0},
    {"yaw=20 sim-seconds=2 fault.enabled=1 fault.drop=0.05 "
     "fault.corrupt=0.02 fault.reorder=0.05 fault.delay=0.05 "
     "fault.seed=2021", kInProc,
     0xf406280d13073940ULL, 200, 0},
    {"yaw=20 sync-granularity=1000000 sim-seconds=2 fault.enabled=1 "
     "fault.drop=0.05 fault.corrupt=0.02 fault.reorder=0.05 "
     "fault.delay=0.05 fault.seed=2021", kTcp,
     0x3974ae862a717a19ULL, 2001, 0},
    {"soc=B velocity=9 yaw=20 mode=dynamic sim-seconds=10 degraded=1",
     kInProc,
     0xb87e452b9afd931fULL, 1000, 8},
    {"depth=6 yaw=20 sim-seconds=10", kInProc,
     0xc7d61abacb9c48f4ULL, 1000, 0},
    {"depth=11 yaw=20 sim-seconds=10", kInProc,
     0xfdc8115f1fe607ffULL, 1000, 0},
    {"depth=18 yaw=20 sim-seconds=10", kInProc,
     0xa61749d572bebfedULL, 1000, 0},
    {"depth=34 yaw=20 sim-seconds=10", kInProc,
     0x12f929fdfa0352e5ULL, 1000, 0},
};

/*
 * Two missions the spec cannot express, each golden A with one thing
 * changed in code: the vision-aided MPC companion app in place of the
 * DNN controller (core::runMpcMission), and a 50 % multitenant
 * background tenant (CosimConfig::background). The MPC hash covers
 * missionTime, the collision count and every MpcRecord as text rows
 * (test_golden states the layout); the background hash is the
 * trajectory's,
 * also reached by a supervisor resumed from a mid-mission checkpoint,
 * so the checkpoint's Background section is pinned with it.
 */
inline constexpr uint64_t kMpcGoldenAHash = 0x8e875241959409bbULL;
inline constexpr uint64_t kBackgroundGoldenAHash = 0x8ce6f44fe768faa5ULL;

/** Golden A, B and C: the canonical mission on each of Table 2's SoC
 *  configs, the corpus's first three rows. */
inline constexpr std::span<const GoldenRow> kCanonicalRows{kGoldenCorpus, 3};

/** The spec of golden A, B or C by SoC name, parsed from its row. */
inline core::MissionSpec
goldenSpec(std::string_view soc)
{
    for (const GoldenRow &row : kCanonicalRows) {
        core::MissionSpec spec = core::parseMissionSpec(row.spec);
        if (spec.socName == soc)
            return spec;
    }
    throw std::invalid_argument("no golden row for SoC " +
                                std::string(soc));
}

} // namespace rose::test

#endif // ROSE_TESTS_GOLDEN_CORPUS_HH
