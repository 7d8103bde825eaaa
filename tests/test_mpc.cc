/**
 * @file
 * Tests for the classical MPC workload (the paper's Section 6
 * future-directions application class): solver correctness and
 * convergence, data-dependent iteration counts, and closed-loop
 * navigation through the full co-simulation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.hh"
#include "runtime/mpc_app.hh"

using namespace rose;
using namespace rose::runtime;

// ---------------------------------------------------------------- solver

TEST(MpcSolver, ZeroErrorZeroControl)
{
    MpcConfig cfg;
    int iters = 0;
    std::vector<double> u = solveMpc(0.0, 0.0, cfg, iters);
    ASSERT_EQ(int(u.size()), cfg.horizon);
    for (double v : u)
        EXPECT_NEAR(v, 0.0, 1e-9);
    EXPECT_LE(iters, 2);
}

TEST(MpcSolver, CorrectsTowardCenterline)
{
    MpcConfig cfg;
    int iters = 0;
    // Offset left (positive): the optimizer must steer right
    // (negative yaw rate) to bring the offset down.
    std::vector<double> u = solveMpc(1.0, 0.0, cfg, iters);
    EXPECT_LT(u.front(), -0.1);

    // Heading left with no offset: also steer right.
    u = solveMpc(0.0, 0.3, cfg, iters);
    EXPECT_LT(u.front(), -0.1);

    // Mirror image.
    u = solveMpc(-1.0, 0.0, cfg, iters);
    EXPECT_GT(u.front(), 0.1);
}

TEST(MpcSolver, ReducesCost)
{
    MpcConfig cfg;
    int iters = 0;
    double final_cost = 0.0;
    solveMpc(1.0, 0.2, cfg, iters, &final_cost);

    // Cost of the zero-control rollout for comparison.
    MpcConfig one_iter = cfg;
    one_iter.maxIterations = 0;
    int iters0 = 0;
    double zero_cost = 0.0;
    solveMpc(1.0, 0.2, one_iter, iters0, &zero_cost);

    EXPECT_LT(final_cost, 0.5 * zero_cost);
}

TEST(MpcSolver, RespectsControlBounds)
{
    MpcConfig cfg;
    cfg.maxYawRate = 0.8;
    int iters = 0;
    std::vector<double> u = solveMpc(1.8, 0.4, cfg, iters);
    for (double v : u)
        EXPECT_LE(std::abs(v), 0.8 + 1e-12);
}

TEST(MpcSolver, IterationsAreDataDependent)
{
    // The Section 6 property RoSE exists to capture: a small tracking
    // error converges in fewer iterations than a large one.
    MpcConfig cfg;
    int small_it = 0, large_it = 0;
    solveMpc(0.02, 0.005, cfg, small_it);
    solveMpc(1.5, 0.35, cfg, large_it);
    EXPECT_LT(small_it, cfg.maxIterations);
    EXPECT_NE(small_it, large_it);
}

TEST(MpcSolver, DeterministicForSameInput)
{
    MpcConfig cfg;
    int ia = 0, ib = 0;
    std::vector<double> a = solveMpc(0.7, -0.1, cfg, ia);
    std::vector<double> b = solveMpc(0.7, -0.1, cfg, ib);
    EXPECT_EQ(ia, ib);
    EXPECT_EQ(a, b);
}

// ------------------------------------------------------------ closed loop

TEST(MpcMission, NavigatesTunnel)
{
    core::MissionSpec spec;
    spec.world = "tunnel";
    spec.velocity = 3.0;
    spec.maxSimSeconds = 40.0;
    core::MpcMissionResult r = core::runMpcMission(spec);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.collisions, 0u);
    EXPECT_GT(r.log.size(), 200u); // fast classical loop
    // No accelerator work in the classical app.
    EXPECT_EQ(r.socStats.accelBusyCycles, 0u);
}

TEST(MpcMission, RuntimeVariabilityObserved)
{
    core::MissionSpec spec;
    spec.world = "s-shape";
    spec.velocity = 3.0;
    spec.maxSimSeconds = 60.0;
    core::MpcMissionResult r = core::runMpcMission(spec);
    ASSERT_TRUE(r.completed);
    int min_it = 1 << 30, max_it = 0;
    for (const MpcRecord &rec : r.log) {
        min_it = std::min(min_it, rec.solverIterations);
        max_it = std::max(max_it, rec.solverIterations);
    }
    // Through the curves the error varies, so iteration counts spread.
    EXPECT_GT(max_it, min_it + 5);
}

TEST(MpcMission, FasterLoopThanDnn)
{
    // The classical loop runs at a much higher control rate than the
    // DNN pipeline on the same SoC (ms-scale vs ~90 ms-scale).
    core::MissionSpec spec;
    spec.world = "tunnel";
    spec.velocity = 3.0;
    spec.maxSimSeconds = 30.0;

    core::MpcMissionResult mpc = core::runMpcMission(spec);
    core::MissionResult dnn = core::runMission(spec);
    ASSERT_TRUE(mpc.completed);
    ASSERT_TRUE(dnn.completed());
    EXPECT_GT(mpc.log.size(), 3 * dnn.inferences);
    EXPECT_LT(mpc.avgLatencySeconds(), dnn.avgInferenceLatency);
}
