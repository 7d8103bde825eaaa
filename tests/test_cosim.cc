/**
 * @file
 * Integration tests of the full co-simulation: end-to-end missions
 * across configs, determinism, TCP transport parity, granularity
 * effects, the host throughput model, and experiment helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/cosim.hh"
#include "core/experiment.hh"
#include "core/hostmodel.hh"

using namespace rose;
using namespace rose::core;

namespace {

MissionSpec
tunnelSpec()
{
    MissionSpec s;
    s.world = "tunnel";
    s.socName = "A";
    s.modelDepth = 14;
    s.velocity = 3.0;
    s.maxSimSeconds = 40.0;
    return s;
}

} // namespace

TEST(Cosim, TunnelMissionCompletes)
{
    MissionResult r = runMission(tunnelSpec());
    EXPECT_TRUE(r.completed());
    EXPECT_EQ(r.collisions, 0u);
    EXPECT_GT(r.missionTime, 10.0);
    EXPECT_LT(r.missionTime, 30.0);
    EXPECT_GT(r.inferences, 50u);
    EXPECT_GT(r.avgSpeed, 2.0);
    EXPECT_FALSE(r.trajectory.empty());
    EXPECT_GT(r.simulatedCycles, Cycles(1e9));
}

TEST(Cosim, AngledStartsRecover)
{
    for (double yaw : {-20.0, 20.0}) {
        MissionSpec s = tunnelSpec();
        s.initialYawDeg = yaw;
        MissionResult r = runMission(s);
        EXPECT_TRUE(r.completed()) << "yaw " << yaw;
        EXPECT_EQ(r.collisions, 0u) << "yaw " << yaw;
    }
}

TEST(Cosim, CpuOnlyConfigCannotNavigate)
{
    // Figure 10(c): config C's multi-second inference latency.
    MissionSpec s = tunnelSpec();
    s.socName = "C";
    s.initialYawDeg = 20.0;
    s.maxSimSeconds = 30.0;
    MissionResult r = runMission(s);
    EXPECT_GT(r.collisions, 0u);
    EXPECT_GT(r.avgInferenceLatency, 1.0); // seconds, not ms
}

TEST(Cosim, DeterministicAcrossRuns)
{
    MissionSpec s = tunnelSpec();
    s.seed = 99;
    MissionResult a = runMission(s);
    MissionResult b = runMission(s);
    EXPECT_EQ(a.completed(), b.completed());
    EXPECT_DOUBLE_EQ(a.missionTime, b.missionTime);
    EXPECT_EQ(a.inferences, b.inferences);
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
    for (size_t i = 0; i < a.trajectory.size(); i += 37) {
        EXPECT_DOUBLE_EQ(a.trajectory[i].position.y,
                         b.trajectory[i].position.y);
    }
}

TEST(Cosim, SeedsProduceDifferentTrajectories)
{
    MissionSpec a = tunnelSpec(), b = tunnelSpec();
    a.seed = 1;
    b.seed = 2;
    MissionResult ra = runMission(a);
    MissionResult rb = runMission(b);
    // Same outcome class, different noise realizations.
    EXPECT_NE(ra.trajectory.back().position.y,
              rb.trajectory.back().position.y);
}

TEST(Cosim, TcpTransportMatchesInProcess)
{
    // The real-socket transport must carry the co-simulation to the
    // same deterministic result as the in-process channel.
    MissionSpec s = tunnelSpec();
    s.maxSimSeconds = 10.0;

    CosimConfig inproc = s.toConfig();
    inproc.transport = TransportKind::InProcess;
    CosimConfig tcp = s.toConfig();
    tcp.transport = TransportKind::Tcp;

    CoSimulation sim_a(inproc);
    MissionResult ra = sim_a.run();
    CoSimulation sim_b(tcp);
    MissionResult rb = sim_b.run();

    EXPECT_EQ(ra.inferences, rb.inferences);
    ASSERT_FALSE(ra.trajectory.empty());
    ASSERT_EQ(ra.trajectory.size(), rb.trajectory.size());
    EXPECT_DOUBLE_EQ(ra.trajectory.back().position.x,
                     rb.trajectory.back().position.x);
    EXPECT_DOUBLE_EQ(ra.trajectory.back().position.y,
                     rb.trajectory.back().position.y);
}

TEST(Cosim, TcpPeriodReadsOncePerEndpoint)
{
    // Fault-free lockstep over TCP: each endpoint reads its socket once
    // per period, and only the configure handshake ever reads an empty
    // socket (the bridge's second read after CfgStepSize).
    MissionSpec s = tunnelSpec();
    s.syncGranularity = kMegaCycles;
    s.maxSimSeconds = 2.0;
    CosimConfig cfg = s.toConfig();
    cfg.transport = TransportKind::Tcp;
    CoSimulation sim(cfg);
    sim.run();

    const bridge::TcpSyscalls sc = sim.tcpSyscalls();
    ASSERT_GT(sim.periods(), 1000u);
    EXPECT_LE(sc.recvs, 2 * sim.periods() + 2);
    EXPECT_LE(sc.emptyRecvs, 1u);
    EXPECT_GE(sc.sends, 2 * sim.periods());

    std::ostringstream os;
    sim.printSummary(os);
    EXPECT_NE(os.str().find("tcp.recvCallsPerPeriod"), std::string::npos);
}

TEST(Cosim, CoarseGranularityInflatesLatency)
{
    // Figure 16(c): artificial latency grows with sync granularity.
    MissionSpec fine = tunnelSpec();
    fine.syncGranularity = 10 * kMegaCycles;
    fine.maxSimSeconds = 12.0;
    MissionSpec coarse = tunnelSpec();
    coarse.syncGranularity = 400 * kMegaCycles;
    coarse.maxSimSeconds = 12.0;

    MissionResult rf = runMission(fine);
    MissionResult rc = runMission(coarse);
    ASSERT_GT(rf.inferences, 0u);
    ASSERT_GT(rc.inferences, 0u);
    EXPECT_GT(rc.avgInferenceLatency, 2.5 * rf.avgInferenceLatency);
    // Fine granularity sits only slightly above the ~83 ms compute.
    EXPECT_LT(rf.avgInferenceLatency, 0.12);
    EXPECT_GT(rf.avgInferenceLatency, 0.08);
}

TEST(Cosim, GranularityPreservesSimulatedTimebase)
{
    // Whatever the granularity, env time and SoC time advance in
    // lockstep per Equation 1.
    for (Cycles g : {10 * kMegaCycles, 50 * kMegaCycles}) {
        MissionSpec s = tunnelSpec();
        s.syncGranularity = g;
        s.maxSimSeconds = 5.0;
        CosimConfig cfg = s.toConfig();
        CoSimulation sim(cfg);
        for (int i = 0; i < 20; ++i)
            sim.stepPeriod();
        double env_t = sim.environment().simTime();
        double soc_t = sim.socSim().nowSeconds();
        EXPECT_NEAR(env_t, soc_t, 0.011); // within one frame
    }
}

TEST(Cosim, StatsPlumbedThrough)
{
    MissionSpec s = tunnelSpec();
    s.maxSimSeconds = 6.0;
    CosimConfig cfg = s.toConfig();
    CoSimulation sim(cfg);
    MissionResult r = sim.run();
    const sync::SyncStats &ss = sim.synchronizer().stats();
    EXPECT_EQ(ss.periods, sim.periods());
    EXPECT_EQ(ss.grantsSent, ss.donesReceived);
    EXPECT_GT(ss.imageRequests, 0u);
    // Every serviced request lands in the bridge RX queue, except a
    // response still in flight when the run ends.
    EXPECT_GE(ss.imageRequests, sim.bridge().stats().rxPackets);
    EXPECT_LE(ss.imageRequests, sim.bridge().stats().rxPackets + 1);
    EXPECT_GT(r.accelActivityFactor, 0.0);
}

// ------------------------------------------------------------ hostmodel

TEST(HostModel, TwoBottleneckRegimes)
{
    HostModel h;
    // Throughput is monotone in granularity and approaches the FPGA
    // rate from below.
    double prev = 0.0;
    for (Cycles g : granularitySweep()) {
        double thr = h.throughputHz(g);
        EXPECT_GT(thr, prev);
        EXPECT_LT(thr, h.fpgaRateHz);
        prev = thr;
    }
    // Fine grain is sync-overhead bound; coarse grain is not.
    EXPECT_GT(h.syncOverheadFraction(1 * kMegaCycles), 0.5);
    EXPECT_LT(h.syncOverheadFraction(400 * kMegaCycles), 0.05);
}

TEST(HostModel, SweepCoversPaperRange)
{
    std::vector<Cycles> sweep = granularitySweep();
    EXPECT_EQ(sweep.front(), 10 * kMegaCycles);
    EXPECT_EQ(sweep.back(), 400 * kMegaCycles);
}

// ----------------------------------------------------------- experiment

TEST(Experiment, SpecRoundTrip)
{
    MissionSpec s;
    s.world = "s-shape";
    s.socName = "B";
    s.modelDepth = 18;
    s.velocity = 9.0;
    CosimConfig cfg = s.toConfig();
    EXPECT_EQ(cfg.env.worldName, "s-shape");
    EXPECT_EQ(cfg.soc.cpu, soc::CpuModel::Rocket);
    EXPECT_EQ(cfg.app.modelDepth, 18);
    EXPECT_DOUBLE_EQ(cfg.app.policy.forwardVelocity, 9.0);
    EXPECT_NE(s.label().find("s-shape"), std::string::npos);
    EXPECT_NE(s.label().find("ResNet18"), std::string::npos);
}

TEST(Experiment, TrajectoryCsvWritten)
{
    MissionSpec s = tunnelSpec();
    s.maxSimSeconds = 3.0;
    MissionResult r = runMission(s);
    std::string path = "/tmp/rose_test_traj.csv";
    writeTrajectoryCsv(path, r);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header.substr(0, 7), "t,x,y,z");
    size_t lines = 0;
    std::string line;
    while (std::getline(in, line))
        ++lines;
    EXPECT_EQ(lines, r.trajectory.size());
    std::remove(path.c_str());
}

TEST(Experiment, MissionTimeString)
{
    MissionResult r;
    r.status = MissionStatus::TimedOut;
    EXPECT_EQ(missionTimeString(r), "DNF");
    r.status = MissionStatus::Completed;
    r.missionTime = 12.345;
    EXPECT_EQ(missionTimeString(r), "12.35s");
}

// ------------------------------------------------------------- morphology

TEST(Cosim, RoverMorphologyEndToEnd)
{
    // The artifact's "car vs drone" option: identical SoC/software
    // stack, ground-vehicle dynamics in the environment.
    MissionSpec s;
    s.world = "tunnel";
    s.vehicle = "rover";
    s.modelDepth = 14;
    s.velocity = 4.0;
    s.maxSimSeconds = 40.0;
    MissionResult r = runMission(s);
    EXPECT_TRUE(r.completed());
    EXPECT_EQ(r.collisions, 0u);
    EXPECT_GT(r.avgSpeed, 3.0);
    // Ground vehicle: never leaves the mast height.
    for (const TrajectorySample &ts : r.trajectory)
        EXPECT_NEAR(ts.position.z, 0.8, 1e-6);
}

TEST(Cosim, DynamicRuntimeReactsToPillar)
{
    // Section 5.3 in its sharpest form: a pillar ahead collapses the
    // depth reading, the Equation 5 deadline tightens, and the
    // dynamic runtime swaps in the small model with argmax.
    MissionSpec s;
    s.world = "tunnel";
    s.mode = runtime::RuntimeMode::Dynamic;
    s.modelDepth = 14;
    s.velocity = 3.0;
    s.maxSimSeconds = 12.0;
    CosimConfig cfg = s.toConfig();
    cfg.env.obstacles.push_back({14.0, 0.0, 0.5});
    CoSimulation sim(cfg);
    MissionResult r = sim.run();

    bool saw_small = false, saw_big = false;
    for (const runtime::InferenceRecord &rec : r.inferenceLog) {
        saw_small |= rec.modelDepth == 6 && rec.usedArgmax;
        saw_big |= rec.modelDepth == 14;
    }
    EXPECT_TRUE(saw_big);   // far from the pillar: big model
    EXPECT_TRUE(saw_small); // approaching the pillar: small + argmax
}

TEST(Cosim, SummaryReportContainsKeyStats)
{
    MissionSpec s = tunnelSpec();
    s.maxSimSeconds = 2.0;
    CosimConfig cfg = s.toConfig();
    CoSimulation sim(cfg);
    sim.run();
    std::ostringstream os;
    sim.printSummary(os);
    std::string out = os.str();
    for (const char *key :
         {"sim.periods", "sync.imageRequests", "bridge.rxPackets",
          "soc.totalCycles", "soc.accelActivityFactor",
          "soc.energyJoules", "app.inferences"}) {
        EXPECT_NE(out.find(key), std::string::npos) << key;
    }
    // In-process runs make no syscalls, so they print no TCP counts.
    EXPECT_EQ(out.find("tcp."), std::string::npos);
}
