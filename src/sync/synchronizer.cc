#include "synchronizer.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "util/logging.hh"
#include "util/serde.hh"

namespace rose::sync {

Synchronizer::Synchronizer(env::EnvSim &env, bridge::Transport &transport,
                           const SyncConfig &cfg)
    : env_(env), transport_(transport), cfg_(cfg)
{
    rose_assert(cfg_.cyclesPerSync > 0, "sync period must be positive");
}

void
Synchronizer::configure()
{
    transport_.send(bridge::encodeCfgStepSize(cfg_.cyclesPerSync));
    configured_ = true;
}

double
Synchronizer::exactFramesPerPeriod() const
{
    return static_cast<double>(cfg_.cyclesPerSync) /
           (cfg_.clocks.socClockHz / cfg_.clocks.envFrameHz);
}

Frames
Synchronizer::framesPerPeriod() const
{
    // Include the fractional-frame carry so the reported count is the
    // count endPeriod() will actually step (1.5 frames/period reports
    // 1, 2, 1, 2, ... in lockstep with the environment).
    return static_cast<Frames>(exactFramesPerPeriod() + frameCarry_);
}

double
Synchronizer::grantedSimTime() const
{
    return cfg_.clocks.cyclesToSeconds(stats_.grantsSent *
                                       cfg_.cyclesPerSync);
}

void
Synchronizer::beginPeriod()
{
    rose_assert(configured_, "configure() must precede beginPeriod()");
    rose_assert(!periodOpen_, "previous period still open");
    transport_.send(bridge::encodeSyncGrant(cfg_.cyclesPerSync));
    ++stats_.grantsSent;
    periodOpen_ = true;
}

void
Synchronizer::endPeriod()
{
    rose_assert(periodOpen_, "endPeriod() without beginPeriod()");

    // Poll everything the SoC side produced during the period. Data
    // packets turn into environment API calls; their responses are
    // queued on the transport and reach the SoC's RX queue at the next
    // bridge host-service, i.e. the next period boundary — this is the
    // artificial synchronization latency Figure 16 measures.
    //
    // The SoC side sends SyncDone as the last packet of its period, so
    // once it is seen every data packet of the period has been drained.
    // Until then: on a blocking transport (TCP) the bytes may simply be
    // in flight, so wait — but never past the sync deadline, and never
    // on a peer that is known dead. The deadline counts from the
    // first wait, so a period that never waits never reads the clock.
    using clock = std::chrono::steady_clock;
    std::optional<clock::time_point> t0;
    bool done_seen = false;
    bridge::Packet p;
    while (true) {
        while (transport_.recv(p)) {
            if (p.type == bridge::PacketType::SyncDone) {
                done_seen = true;
                ++stats_.donesReceived;
            } else {
                servicePacket(p);
            }
        }
        if (done_seen)
            break;

        if (transport_.state() != bridge::TransportState::Open) {
            throw bridge::TransportError(detail::concat(
                "sync period ", stats_.periods + 1,
                ": bridge transport closed before SyncDone (SoC "
                "simulator died mid-period)"));
        }
        if (!transport_.supportsWait()) {
            // In-process lockstep cannot block: the SoC must have
            // finished its grant before this boundary, so a missing
            // SyncDone means the caller drove the loop out of order.
            throw bridge::TransportError(detail::concat(
                "sync period ", stats_.periods + 1,
                " ended without SyncDone on a non-blocking transport "
                "(SyncDone lost to fault injection, or lockstep driven "
                "out of order)"));
        }
        const auto now = clock::now();
        if (!t0)
            t0 = now;
        auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now - *t0)
                          .count();
        if (cfg_.syncDeadlineMs > 0 &&
            waited >= long(cfg_.syncDeadlineMs)) {
            throw bridge::TransportError(detail::concat(
                "sync period ", stats_.periods + 1, ": no SyncDone "
                "within the ", cfg_.syncDeadlineMs, " ms deadline — "
                "the SoC side is stalled (grant lost, peer wedged, or "
                "deadline too tight for this sync granularity)"));
        }
        // Bounded wait; short slices keep the deadline check live even
        // if the peer trickles unrelated bytes.
        int slice = 50;
        if (cfg_.syncDeadlineMs > 0) {
            slice = std::min<long>(slice,
                                   long(cfg_.syncDeadlineMs) - waited);
        }
        ++stats_.deadlineWaits;
        transport_.waitReadable(slice);
    }

    // Advance the environment by the matching frames (Equation 1),
    // carrying fractional frames so long runs do not drift.
    double exact = exactFramesPerPeriod() + frameCarry_;
    Frames whole = static_cast<Frames>(exact);
    frameCarry_ = exact - static_cast<double>(whole);
    env_.stepFrames(whole);
    stats_.framesStepped += whole;

    ++stats_.periods;
    periodOpen_ = false;
}

void
Synchronizer::servicePacket(const bridge::Packet &p)
{
    using bridge::PacketType;
    switch (p.type) {
      case PacketType::ImuReq:
        ++stats_.imuRequests;
        transport_.send(bridge::encodeImuResp(env_.getImu()));
        break;
      case PacketType::ImageReq: {
        ++stats_.imageRequests;
        const env::CameraConfig &cam = env_.cameraConfig();
        bridge::Packet resp = bridge::encodeImageResp(cam.width, cam.height);
        env_.renderImage(bridge::imageRespPixels(resp));
        transport_.send(resp);
        break;
      }
      case PacketType::DepthReq:
        ++stats_.depthRequests;
        transport_.send(bridge::encodeDepthResp(env_.getDepth()));
        break;
      case PacketType::VelocityCmd: {
        ++stats_.velocityCommands;
        bridge::VelocityCmdPayload v = bridge::decodeVelocityCmd(p);
        env_.commandVelocity(v.forward, v.lateral, v.yawRate);
        lastCmd_ = {true, v.forward, v.lateral, v.yawRate,
                    env_.simTime()};
        break;
      }
      default:
        ++stats_.unknownPackets;
        rose_warn("synchronizer: unhandled packet ",
                  bridge::packetTypeName(p.type));
        break;
    }
}

void
Synchronizer::saveState(StateWriter &w) const
{
    w.u64(stats_.periods);
    w.u64(stats_.grantsSent);
    w.u64(stats_.donesReceived);
    w.u64(stats_.imuRequests);
    w.u64(stats_.imageRequests);
    w.u64(stats_.depthRequests);
    w.u64(stats_.velocityCommands);
    w.u64(stats_.framesStepped);
    w.u64(stats_.unknownPackets);
    w.u64(stats_.deadlineWaits);
    w.boolean(lastCmd_.valid);
    w.f64(lastCmd_.forward);
    w.f64(lastCmd_.lateral);
    w.f64(lastCmd_.yawRate);
    w.f64(lastCmd_.envTime);
    w.boolean(configured_);
    w.boolean(periodOpen_);
    w.f64(frameCarry_);
}

void
Synchronizer::restoreState(StateReader &r)
{
    stats_.periods = r.u64();
    stats_.grantsSent = r.u64();
    stats_.donesReceived = r.u64();
    stats_.imuRequests = r.u64();
    stats_.imageRequests = r.u64();
    stats_.depthRequests = r.u64();
    stats_.velocityCommands = r.u64();
    stats_.framesStepped = r.u64();
    stats_.unknownPackets = r.u64();
    stats_.deadlineWaits = r.u64();
    lastCmd_.valid = r.boolean();
    lastCmd_.forward = r.f64();
    lastCmd_.lateral = r.f64();
    lastCmd_.yawRate = r.f64();
    lastCmd_.envTime = r.f64();
    configured_ = r.boolean();
    periodOpen_ = r.boolean();
    frameCarry_ = r.f64();
}

} // namespace rose::sync
