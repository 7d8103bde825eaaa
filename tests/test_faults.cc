/**
 * @file
 * Tests for the fault-injecting transport decorator and for closed-loop
 * graceful degradation: a full CoSimulation mission under packet loss
 * must finish (or fail with a clear TransportError), never deadlock.
 */

#include <gtest/gtest.h>

#include <set>

#include "bridge/fault_inject.hh"
#include "bridge/transport.hh"
#include "core/experiment.hh"

using namespace rose;
using namespace rose::bridge;

namespace {

/** Wrap one end of an in-process pair with fault injection. */
struct FaultHarness
{
    std::unique_ptr<Transport> cleanEnd;
    std::unique_ptr<FaultInjectTransport> faulty;

    explicit FaultHarness(const FaultConfig &cfg)
    {
        auto [a, b] = makeInProcPair();
        cleanEnd = std::move(a);
        faulty = std::make_unique<FaultInjectTransport>(std::move(b),
                                                        cfg);
    }
};

} // namespace

TEST(FaultInject, ZeroProbabilitiesAreTransparent)
{
    FaultConfig cfg;
    FaultHarness h(cfg);
    for (int i = 0; i < 100; ++i)
        h.faulty->send(encodeDepthResp(double(i)));
    Packet p;
    for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(h.cleanEnd->recv(p));
        EXPECT_DOUBLE_EQ(decodeDepthResp(p), double(i));
    }
    EXPECT_FALSE(h.cleanEnd->recv(p));
    EXPECT_EQ(h.faulty->stats().dropped, 0u);
    EXPECT_EQ(h.faulty->stats().sent, 100u);
}

TEST(FaultInject, DropsAtRoughlyConfiguredRate)
{
    FaultConfig cfg;
    cfg.dropProb = 0.3;
    cfg.seed = 99;
    FaultHarness h(cfg);
    const int n = 2000;
    for (int i = 0; i < n; ++i)
        h.faulty->send(encodeDepthResp(double(i)));

    Packet p;
    int delivered = 0;
    while (h.cleanEnd->recv(p))
        ++delivered;
    const FaultStats &fs = h.faulty->stats();
    EXPECT_EQ(uint64_t(delivered), fs.sent);
    EXPECT_EQ(fs.sent + fs.dropped, uint64_t(n));
    // 3-sigma band around the 30% drop rate.
    EXPECT_NEAR(double(fs.dropped) / n, 0.3, 0.031);
}

TEST(FaultInject, SyncPacketsProtectedByDefault)
{
    FaultConfig cfg;
    cfg.dropProb = 1.0; // drop every eligible packet
    FaultHarness h(cfg);
    h.faulty->send(encodeSyncGrant(1000));
    h.faulty->send(encodeDepthResp(1.0));
    h.faulty->send(encodeSyncDone(1000));
    h.faulty->send(encodeCfgStepSize(500));

    Packet p;
    std::vector<PacketType> got;
    while (h.cleanEnd->recv(p))
        got.push_back(p.type);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0], PacketType::SyncGrant);
    EXPECT_EQ(got[1], PacketType::SyncDone);
    EXPECT_EQ(got[2], PacketType::CfgStepSize);
    EXPECT_EQ(h.faulty->stats().dropped, 1u);
}

TEST(FaultInject, UnprotectedSyncPacketsAreEligible)
{
    FaultConfig cfg;
    cfg.dropProb = 1.0;
    cfg.protectSyncPackets = false;
    FaultHarness h(cfg);
    h.faulty->send(encodeSyncGrant(1000));
    Packet p;
    EXPECT_FALSE(h.cleanEnd->recv(p));
    EXPECT_EQ(h.faulty->stats().dropped, 1u);
}

TEST(FaultInject, CorruptionPreservesFraming)
{
    FaultConfig cfg;
    cfg.corruptProb = 1.0;
    FaultHarness h(cfg);
    Packet ref = encodeVelocityCmd({1.0, 2.0, 3.0});
    const int n = 50;
    for (int i = 0; i < n; ++i)
        h.faulty->send(ref);

    Packet p;
    int received = 0, differing = 0;
    while (h.cleanEnd->recv(p)) {
        ++received;
        EXPECT_EQ(p.type, ref.type);
        ASSERT_EQ(p.payload.size(), ref.payload.size());
        if (p.payload != ref.payload)
            ++differing;
    }
    EXPECT_EQ(received, n);
    // Every packet had exactly one bit flipped.
    EXPECT_EQ(differing, n);
    EXPECT_EQ(h.faulty->stats().corrupted, uint64_t(n));
}

TEST(FaultInject, DelayedPacketsEventuallyDeliverInOrder)
{
    FaultConfig cfg;
    cfg.delayProb = 1.0;
    cfg.delayOpsMin = 1;
    cfg.delayOpsMax = 3;
    FaultHarness h(cfg);
    const int n = 20;
    for (int i = 0; i < n; ++i)
        h.faulty->send(encodeDepthResp(double(i)));

    // Each further operation advances the decorator's op clock and
    // releases due packets; everything must surface eventually.
    Packet p;
    std::vector<double> got;
    for (int spin = 0; spin < 200 && int(got.size()) < n; ++spin) {
        h.faulty->send(encodeSyncGrant(1)); // advances the op clock
        while (h.cleanEnd->recv(p)) {
            if (p.type == PacketType::DepthResp)
                got.push_back(decodeDepthResp(p));
        }
    }
    ASSERT_EQ(int(got.size()), n);
    // Delay is FIFO: relative order of delayed packets is preserved.
    for (int i = 0; i < n; ++i)
        EXPECT_DOUBLE_EQ(got[i], double(i));
    EXPECT_EQ(h.faulty->stats().delayed, uint64_t(n));
}

TEST(FaultInject, ReorderSwapsAdjacentPackets)
{
    FaultConfig cfg;
    cfg.reorderProb = 1.0;
    cfg.seed = 7;
    FaultHarness h(cfg);
    h.faulty->send(encodeDepthResp(1.0)); // held
    h.faulty->send(encodeDepthResp(2.0)); // overtakes, releases held

    Packet p;
    ASSERT_TRUE(h.cleanEnd->recv(p));
    EXPECT_DOUBLE_EQ(decodeDepthResp(p), 2.0);
    ASSERT_TRUE(h.cleanEnd->recv(p));
    EXPECT_DOUBLE_EQ(decodeDepthResp(p), 1.0);
    EXPECT_EQ(h.faulty->stats().reordered, 1u);
}

TEST(FaultInject, ReceiveSideFaultsApply)
{
    // Faults must also hit inbound traffic: wrap the receiving end.
    FaultConfig cfg;
    cfg.dropProb = 1.0;
    auto [a, b] = makeInProcPair();
    FaultInjectTransport faulty(std::move(b), cfg);
    a->send(encodeDepthResp(1.0));
    a->send(encodeSyncDone(5));
    Packet p;
    // The data packet is dropped on receive; the protected SyncDone
    // still arrives.
    ASSERT_TRUE(faulty.recv(p));
    EXPECT_EQ(p.type, PacketType::SyncDone);
    EXPECT_FALSE(faulty.recv(p));
    EXPECT_EQ(faulty.stats().dropped, 1u);
}

TEST(FaultInject, DeterministicUnderSeed)
{
    auto run = [](uint64_t seed) {
        FaultConfig cfg;
        cfg.dropProb = 0.2;
        cfg.delayProb = 0.1;
        cfg.seed = seed;
        FaultHarness h(cfg);
        for (int i = 0; i < 300; ++i)
            h.faulty->send(encodeDepthResp(double(i)));
        Packet p;
        std::vector<double> got;
        while (h.cleanEnd->recv(p))
            got.push_back(decodeDepthResp(p));
        return got;
    };
    EXPECT_EQ(run(42), run(42));
    EXPECT_NE(run(42), run(43));
}

// --------------------------------------- closed-loop graceful degradation

namespace {

core::MissionSpec
shortTunnelSpec()
{
    core::MissionSpec s;
    s.world = "tunnel";
    s.socName = "A";
    s.modelDepth = 14;
    s.velocity = 3.0;
    s.maxSimSeconds = 40.0;
    return s;
}

} // namespace

TEST(FaultMission, CompletesUnderFivePercentDrop)
{
    // Acceptance: a full mission with >= 5% packet drop must complete
    // (or fail with a clear TransportError) — graceful degradation,
    // never a deadlock. With the sensor-retry timeout the tunnel
    // mission is expected to still finish.
    core::CosimConfig cfg = shortTunnelSpec().toConfig();
    cfg.faults.enabled = true;
    cfg.faults.dropProb = 0.05;
    cfg.faults.seed = 2024;

    core::CoSimulation sim(cfg);
    core::MissionResult r = sim.run();

    ASSERT_NE(sim.faultStats(), nullptr);
    EXPECT_GT(sim.faultStats()->dropped, 0u) << "faults never fired";
    if (r.transportError)
        FAIL() << "unexpected transport error: "
               << r.transportErrorMessage;
    EXPECT_TRUE(r.completed())
        << "mission should survive 5% drop via sensor retries";
    EXPECT_GT(sim.app().sensorRetries(), 0u);
}

TEST(FaultMission, HeavyLossDegradesButNeverDeadlocks)
{
    core::CosimConfig cfg = shortTunnelSpec().toConfig();
    cfg.maxSimSeconds = 15.0;
    cfg.faults.enabled = true;
    cfg.faults.dropProb = 0.35;
    cfg.faults.corruptProb = 0.0;
    cfg.faults.delayProb = 0.1;
    cfg.faults.seed = 7;

    core::CoSimulation sim(cfg);
    core::MissionResult r = sim.run();
    // Whatever the outcome, the run terminates and reports: either the
    // mission ran to its time limit / completion, or a transport error
    // carries a diagnostic.
    if (r.transportError) {
        EXPECT_FALSE(r.transportErrorMessage.empty());
    } else {
        EXPECT_GT(r.missionTime, 0.0);
    }
}

TEST(FaultMission, SensorTimeoutDefaultsWhenFaultsEnabled)
{
    core::CosimConfig cfg = shortTunnelSpec().toConfig();
    cfg.faults.enabled = true;
    cfg.faults.dropProb = 0.01;
    core::CoSimulation sim(cfg);
    EXPECT_EQ(sim.app().config().sensorTimeoutCycles,
              3 * cfg.sync.cyclesPerSync);
}
