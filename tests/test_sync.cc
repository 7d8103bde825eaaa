/**
 * @file
 * Tests of the lockstep synchronizer (Algorithm 1) against a scripted
 * SoC side: grants, frame advance per Equation 1, request/response
 * latency semantics (responses become visible one period later), and
 * actuation dispatch.
 */

#include <gtest/gtest.h>

#include "bridge/rose_bridge.hh"
#include "bridge/target_driver.hh"
#include "bridge/transport.hh"
#include "sync/synchronizer.hh"

using namespace rose;
using namespace rose::bridge;
using namespace rose::sync;

namespace {

/** Co-simulation harness with a hand-driven SoC side. */
struct Harness
{
    env::EnvConfig envCfg;
    std::unique_ptr<env::EnvSim> env;
    std::unique_ptr<Transport> syncEnd;
    std::unique_ptr<Transport> bridgeEnd;
    std::unique_ptr<RoseBridge> bridge;
    std::unique_ptr<TargetDriver> driver;
    std::unique_ptr<Synchronizer> sync;

    explicit Harness(SyncConfig cfg = {})
    {
        envCfg.turbulenceForceStd = 0.0;
        // Frame rate must match the sync clocks (100 Hz default here).
        envCfg.frameHz = cfg.clocks.envFrameHz;
        env = std::make_unique<env::EnvSim>(envCfg);
        auto [a, b] = makeInProcPair();
        syncEnd = std::move(a);
        bridgeEnd = std::move(b);
        bridge = std::make_unique<RoseBridge>(*bridgeEnd);
        driver = std::make_unique<TargetDriver>(*bridge);
        sync = std::make_unique<Synchronizer>(*env, *syncEnd, cfg);
        sync->configure();
        bridge->hostService();
    }

    /** Run one full period with an optional SoC-side script. */
    template <typename Fn>
    void
    period(Fn &&soc_script)
    {
        sync->beginPeriod();
        bridge->hostService(); // deliver grant + queued responses
        soc_script();
        bridge->completeSync(bridge->cycleBudget());
        bridge->consumeCycles(bridge->cycleBudget());
        bridge->hostService(); // flush TX + SyncDone
        sync->endPeriod();
    }

    void
    idlePeriod()
    {
        period([] {});
    }
};

} // namespace

TEST(Synchronizer, ConfigureSetsBridgeStepSize)
{
    SyncConfig cfg;
    cfg.cyclesPerSync = 20 * kMegaCycles;
    Harness h(cfg);
    EXPECT_EQ(h.bridge->cyclesPerSync(), 20 * kMegaCycles);
}

TEST(Synchronizer, Equation1FrameAdvance)
{
    // 10M cycles at 1 GHz against 100 Hz frames -> 1 frame per period.
    SyncConfig cfg;
    cfg.cyclesPerSync = 10 * kMegaCycles;
    cfg.clocks = {1.0e9, 100.0};
    Harness h(cfg);
    h.idlePeriod();
    EXPECT_EQ(h.env->frameCount(), 1u);
    // 400M cycles -> 40 frames per period (Figure 16's extreme).
    SyncConfig coarse;
    coarse.cyclesPerSync = 400 * kMegaCycles;
    coarse.clocks = {1.0e9, 100.0};
    Harness h2(coarse);
    h2.idlePeriod();
    EXPECT_EQ(h2.env->frameCount(), 40u);
}

TEST(Synchronizer, FractionalFramesCarry)
{
    // 15M cycles at 1 GHz / 100 Hz = 1.5 frames per period: frame
    // counts must alternate 1, 2, 1, 2 without drift.
    SyncConfig cfg;
    cfg.cyclesPerSync = 15 * kMegaCycles;
    cfg.clocks = {1.0e9, 100.0};
    Harness h(cfg);
    for (int i = 0; i < 10; ++i)
        h.idlePeriod();
    EXPECT_EQ(h.env->frameCount(), 15u);
}

TEST(Synchronizer, GrantBudgetReachesBridge)
{
    SyncConfig cfg;
    cfg.cyclesPerSync = 1000;
    Harness h(cfg);
    h.sync->beginPeriod();
    h.bridge->hostService();
    EXPECT_EQ(h.bridge->cycleBudget(), 1000u);
    h.bridge->completeSync(1000);
    h.bridge->consumeCycles(1000);
    h.bridge->hostService();
    h.sync->endPeriod();
    EXPECT_EQ(h.sync->stats().donesReceived, 1u);
}

TEST(Synchronizer, ImageRequestAnsweredNextPeriod)
{
    SyncConfig cfg;
    cfg.cyclesPerSync = 10 * kMegaCycles;
    Harness h(cfg);

    // Period 1: SoC requests an image. No response yet.
    h.period([&] { ASSERT_TRUE(h.driver->txSend(encodeImageReq())); });
    EXPECT_EQ(h.sync->stats().imageRequests, 1u);
    EXPECT_EQ(h.driver->rxCount(), 0u);

    // Period 2: the response is delivered at the boundary.
    bool got = false;
    h.period([&] {
        auto p = h.driver->rxPop();
        ASSERT_TRUE(p.has_value());
        EXPECT_EQ(p->type, PacketType::ImageResp);
        env::Image img;
        decodeImageRespInto(*p, img);
        EXPECT_EQ(img.width, h.envCfg.camera.width);
        got = true;
    });
    EXPECT_TRUE(got);
}

TEST(Synchronizer, ImuAndDepthServed)
{
    Harness h;
    h.period([&] {
        ASSERT_TRUE(h.driver->txSend(encodeImuReq()));
        ASSERT_TRUE(h.driver->txSend(encodeDepthReq()));
    });
    h.period([&] {
        auto a = h.driver->rxPop();
        auto b = h.driver->rxPop();
        ASSERT_TRUE(a && b);
        EXPECT_EQ(a->type, PacketType::ImuResp);
        EXPECT_EQ(b->type, PacketType::DepthResp);
        // Straight down the tunnel: depth is max range.
        EXPECT_NEAR(decodeDepthResp(*b), h.envCfg.depthMaxRange, 0.5);
    });
    EXPECT_EQ(h.sync->stats().imuRequests, 1u);
    EXPECT_EQ(h.sync->stats().depthRequests, 1u);
}

TEST(Synchronizer, VelocityCommandActuatesEnvironment)
{
    Harness h;
    // Let the drone take off first (50 idle periods = 0.5 s).
    for (int i = 0; i < 200; ++i)
        h.idlePeriod();
    h.period([&] {
        ASSERT_TRUE(
            h.driver->txSend(encodeVelocityCmd({2.0, 0.0, 0.0})));
    });
    EXPECT_EQ(h.sync->stats().velocityCommands, 1u);
    EXPECT_TRUE(h.sync->lastCommand().valid);
    EXPECT_DOUBLE_EQ(h.sync->lastCommand().forward, 2.0);

    double x0 = h.env->kinematics().position.x;
    for (int i = 0; i < 300; ++i)
        h.idlePeriod();
    EXPECT_GT(h.env->kinematics().position.x, x0 + 3.0);
}

TEST(Synchronizer, StatsCountPeriods)
{
    Harness h;
    for (int i = 0; i < 5; ++i)
        h.idlePeriod();
    EXPECT_EQ(h.sync->stats().periods, 5u);
    EXPECT_EQ(h.sync->stats().grantsSent, 5u);
    EXPECT_EQ(h.sync->stats().donesReceived, 5u);
    EXPECT_NEAR(h.sync->grantedSimTime(), 5 * 0.01, 1e-9);
}

TEST(SynchronizerDeathTest, DoublBeginPanics)
{
    Harness h;
    h.sync->beginPeriod();
    EXPECT_DEATH(h.sync->beginPeriod(), "period");
}

TEST(Synchronizer, SimulationAbstractionHolds)
{
    // The SoC only ever sees data packets: after a full period with
    // sensor traffic, nothing in the RX queue is a sync packet.
    Harness h;
    h.period([&] {
        h.driver->txSend(encodeImuReq());
        h.driver->txSend(encodeDepthReq());
    });
    h.period([&] {
        while (auto p = h.driver->rxPop())
            EXPECT_TRUE(isDataPacket(p->type));
    });
}

TEST(Synchronizer, FramesPerPeriodAgreesWithSteppedFrames)
{
    // 15M cycles at 1 GHz / 100 Hz = 1.5 frames per period. The value
    // framesPerPeriod() reports must equal what the next endPeriod()
    // actually steps, including the fractional carry (1, 2, 1, 2, ...).
    SyncConfig cfg;
    cfg.cyclesPerSync = 15 * kMegaCycles;
    cfg.clocks = {1.0e9, 100.0};
    Harness h(cfg);
    for (int i = 0; i < 8; ++i) {
        Frames predicted = h.sync->framesPerPeriod();
        Frames before = h.env->frameCount();
        h.idlePeriod();
        EXPECT_EQ(h.env->frameCount() - before, predicted)
            << "period " << i;
    }
}

// -------------------------------------------- deadlines and dead peers

TEST(Synchronizer, MissingSyncDoneAbortsWithDiagnostic)
{
    // Driving the lockstep out of order (endPeriod with no SoC
    // execution) must abort loudly, not warn and plough on.
    Harness h;
    h.sync->beginPeriod();
    EXPECT_THROW(h.sync->endPeriod(), bridge::TransportError);
}

TEST(Synchronizer, TcpPeerCloseAbortsEndPeriod)
{
    env::EnvConfig ecfg;
    ecfg.turbulenceForceStd = 0.0;
    SyncConfig scfg;
    ecfg.frameHz = scfg.clocks.envFrameHz;
    env::EnvSim env(ecfg);

    auto [server, client] = TcpTransport::makeLoopbackPair();
    Synchronizer sync(env, *server, scfg);
    sync.configure();
    sync.beginPeriod();
    client.reset(); // SoC simulator dies mid-period

    try {
        sync.endPeriod();
        FAIL() << "endPeriod() must throw on a dead peer";
    } catch (const bridge::TransportError &e) {
        EXPECT_NE(std::string(e.what()).find("closed before SyncDone"),
                  std::string::npos);
    }
}

TEST(Synchronizer, TcpStalledPeerHitsSyncDeadline)
{
    env::EnvConfig ecfg;
    ecfg.turbulenceForceStd = 0.0;
    SyncConfig scfg;
    scfg.syncDeadlineMs = 100; // keep the test fast
    ecfg.frameHz = scfg.clocks.envFrameHz;
    env::EnvSim env(ecfg);

    auto [server, client] = TcpTransport::makeLoopbackPair();
    Synchronizer sync(env, *server, scfg);
    sync.configure();
    sync.beginPeriod();
    // The peer stays connected but never answers: the deadline, not an
    // infinite no-SyncDone loop, ends the period.
    try {
        sync.endPeriod();
        FAIL() << "endPeriod() must throw on a stalled peer";
    } catch (const bridge::TransportError &e) {
        EXPECT_NE(std::string(e.what()).find("deadline"),
                  std::string::npos);
    }
    EXPECT_GE(sync.stats().deadlineWaits, 1u);
}

// ------------------------------------------------ Equation 1 property

/** Equation 1 conservation across granularities: frames stepped per
 *  cycles granted must match soc_clock/frame_rate for any period. */
class SyncGranularityProperty
    : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SyncGranularityProperty, FrameCycleRatioConserved)
{
    SyncConfig cfg;
    cfg.cyclesPerSync = GetParam() * 100'000; // 0.1M .. 40M
    cfg.clocks = {1.0e9, 100.0};
    Harness h(cfg);
    const int periods = 50;
    for (int i = 0; i < periods; ++i)
        h.idlePeriod();

    double cycles_granted =
        double(h.sync->stats().grantsSent) * double(cfg.cyclesPerSync);
    double expected_frames =
        cycles_granted / (cfg.clocks.socClockHz / cfg.clocks.envFrameHz);
    // Fractional-frame carry keeps the long-run ratio exact to within
    // one frame.
    EXPECT_NEAR(double(h.sync->stats().framesStepped), expected_frames,
                1.0);
    // Env time and granted SoC time agree to within one frame.
    EXPECT_NEAR(h.env->simTime(), h.sync->grantedSimTime(), 0.011);
}

INSTANTIATE_TEST_SUITE_P(Granularities, SyncGranularityProperty,
                         ::testing::Values(1, 3, 7, 10, 15, 33, 100,
                                           400));
