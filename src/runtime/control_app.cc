#include "control_app.hh"

#include <bit>
#include <limits>

#include "util/logging.hh"
#include "util/serde.hh"

namespace rose::runtime {

ControlApp::ControlApp(bridge::TargetDriver &driver,
                       const soc::SocConfig &soc, const AppConfig &cfg)
    : driver_(driver), soc_(soc), cfg_(cfg),
      bigModel_(dnn::sharedResNet(cfg.modelDepth)),
      smallModel_(dnn::sharedResNet(cfg.smallModelDepth)),
      bigClassifier_(*bigModel_, Rng(cfg.seed), cfg.estimator),
      smallClassifier_(*smallModel_, Rng(cfg.seed ^ 0x5a11ULL),
                       cfg.estimator),
      engine_(soc, cfg.gemmini, cfg.engine),
      bigSchedule_(engine_.scheduleShared(*bigModel_)),
      smallSchedule_(engine_.scheduleShared(*smallModel_))
{
}

std::string
ControlApp::workloadName() const
{
    if (cfg_.mode == RuntimeMode::Static)
        return "trailnav-static-" + bigModel_->name;
    return "trailnav-dynamic-" + bigModel_->name + "/" +
           smallModel_->name;
}

soc::Action
ControlApp::ioAction(const char *label)
{
    uint64_t accesses = driver_.takeAccessCount();
    Cycles c = accesses * soc_.cpuParams.mmioAccessCycles;
    return soc::Action::compute(c ? c : 1, soc::Unit::Io, label);
}

soc::Action
ControlApp::next(const soc::SocContext &ctx)
{
    switch (state_) {
      case State::Boot: {
        state_ = State::SendRequests;
        return soc::Action::compute(cfg_.bootCycles, soc::Unit::Cpu,
                                    "boot");
      }

      case State::SendRequests: {
        current_ = InferenceRecord{};
        current_.requestCycle = ctx.now;
        if (!driver_.txSend(bridge::encodeImageReq()))
            rose_warn("control app: image request backpressured");
        if (cfg_.mode == RuntimeMode::Dynamic) {
            if (!driver_.txSend(bridge::encodeDepthReq()))
                rose_warn("control app: depth request backpressured");
        }
        sawDepth_ = false;
        haveImage_ = false;
        state_ = State::AwaitResponses;
        return ioAction("sensor-request");
      }

      case State::AwaitResponses: {
        state_ = State::ReadResponses;
        return soc::Action::waitRx("sensor-wait",
                                   cfg_.sensorTimeoutCycles);
      }

      case State::ReadResponses: {
        bool got_any = false;
        while (auto p = driver_.rxPop()) {
            got_any = true;
            switch (p->type) {
              case bridge::PacketType::ImageResp:
                bridge::decodeImageRespInto(*p, image_);
                haveImage_ = true;
                break;
              case bridge::PacketType::DepthResp:
                depth_ = bridge::decodeDepthResp(*p);
                sawDepth_ = true;
                break;
              default:
                rose_warn("control app: unexpected packet ",
                          bridge::packetTypeName(p->type));
                break;
            }
        }
        bool need_depth =
            cfg_.mode == RuntimeMode::Dynamic && !sawDepth_;
        if (!haveImage_ || need_depth) {
            if (!got_any && cfg_.sensorTimeoutCycles > 0) {
                // The wait timed out with nothing delivered: the
                // request or its response was lost in transit.
                // Re-issue the requests instead of waiting forever.
                ++sensorRetries_;
                ++consecutiveSensorRetries_;
                if (cfg_.degraded.enabled &&
                    consecutiveSensorRetries_ >=
                        cfg_.degraded.maxConsecutiveSensorRetries) {
                    // The sensor path is dead for now: hold the
                    // classical fallback instead of stalling.
                    enterDegraded("sensor-timeout", ctx.now);
                    return ioAction("degraded-enter");
                }
                state_ = State::SendRequests;
                return ioAction("sensor-retry");
            }
            // Response split across boundaries; keep waiting.
            state_ = State::AwaitResponses;
            return ioAction("sensor-poll");
        }
        consecutiveSensorRetries_ = 0;
        current_.responseCycle = ctx.now;
        current_.depthMeters =
            cfg_.mode == RuntimeMode::Dynamic ? depth_ : 0.0;

        // --- Model selection -----------------------------------------
        activeDepth_ = cfg_.modelDepth;
        current_.usedArgmax = false;
        if (cfg_.mode == RuntimeMode::Dynamic) {
            double big_lat =
                double(bigSchedule_->totalCycles) / soc_.clockHz;
            double small_lat =
                double(smallSchedule_->totalCycles) / soc_.clockHz;
            double budget = cfg_.deadline.processDeadline(
                depth_, cfg_.policy.forwardVelocity);
            current_.deadlineSeconds = budget;
            if (budget < cfg_.deadlineSafetyFactor * big_lat) {
                activeDepth_ = cfg_.smallModelDepth;
                current_.usedArgmax = true;
            }
            // Even the small model cannot meet the budget: that is a
            // deadline miss. Enough of them in a row and the DNN path
            // is declared unhealthy — classical fallback.
            if (budget < small_lat) {
                ++consecutiveDeadlineMisses_;
                if (cfg_.degraded.enabled &&
                    consecutiveDeadlineMisses_ >=
                        cfg_.degraded.maxDeadlineMisses) {
                    enterDegraded("deadline-miss", ctx.now);
                    return ioAction("degraded-enter");
                }
            } else {
                consecutiveDeadlineMisses_ = 0;
            }
        }
        current_.modelDepth = activeDepth_;

        // --- Functional inference + timed schedule -------------------
        bool use_small = activeDepth_ == cfg_.smallModelDepth &&
                         cfg_.mode == RuntimeMode::Dynamic;
        lastOutput_ = use_small ? smallClassifier_.infer(image_)
                                : bigClassifier_.infer(image_);
        const dnn::InferenceSchedule &sched =
            use_small ? *smallSchedule_ : *bigSchedule_;
        queue_.assign(sched.actions.begin(), sched.actions.end());
        if (cfg_.mode == RuntimeMode::Dynamic) {
            queue_.push_front(soc::Action::compute(
                cfg_.dualSessionOverhead, soc::Unit::Cpu,
                "dual-session"));
        }
        state_ = State::Inference;
        return ioAction("sensor-read");
      }

      case State::Inference: {
        if (!queue_.empty()) {
            soc::Action a = queue_.front();
            queue_.pop_front();
            return a;
        }
        state_ = State::SendCommand;
        [[fallthrough]];
      }

      case State::SendCommand: {
        PolicyConfig policy = cfg_.policy;
        policy.argmaxPolicy = current_.usedArgmax;
        current_.command = computeCommand(lastOutput_, policy);
        if (!driver_.txSend(bridge::encodeVelocityCmd(current_.command)))
            rose_warn("control app: command backpressured");
        current_.commandCycle = ctx.now;
        records_.push_back(current_);
        state_ = State::SendRequests;
        return ioAction("command-send");
      }

      case State::Degraded: {
        // One classical-control iteration: steer on the last valid
        // pose estimate at derated speed. Cheap on the CPU, no
        // sensors, no DNN — the vehicle keeps moving while the
        // vision path is unhealthy.
        bridge::VelocityCmdPayload cmd = computeClassicalCommand(
            lastOutput_, cfg_.policy, cfg_.degraded);
        if (!driver_.txSend(bridge::encodeVelocityCmd(cmd)))
            rose_warn("control app: degraded command backpressured");
        ++degraded_.back().commands;
        if (degradedIterLeft_ > 0)
            --degradedIterLeft_;
        if (degradedIterLeft_ == 0) {
            // Hold expired: close the interval and re-probe sensors.
            degraded_.back().endCycle = ctx.now;
            state_ = State::SendRequests;
        }
        return soc::Action::compute(cfg_.degraded.holdCycles,
                                    soc::Unit::Cpu, "degraded-hold");
      }
    }
    rose_panic("unreachable control-app state");
}

namespace {

void
saveAction(StateWriter &w, const soc::Action &a)
{
    w.u8(uint8_t(a.kind));
    w.u64(a.cycles);
    w.u8(uint8_t(a.unit));
}

soc::Action
loadAction(StateReader &r)
{
    soc::Action a;
    a.kind = soc::Action::Kind(r.u8());
    a.cycles = r.u64();
    a.unit = soc::Unit(r.u8());
    a.what = "";
    return a;
}

void
saveRecord(StateWriter &w, const InferenceRecord &rec)
{
    w.u64(rec.requestCycle);
    w.u64(rec.responseCycle);
    w.u64(rec.commandCycle);
    w.u32(uint32_t(rec.modelDepth));
    w.boolean(rec.usedArgmax);
    w.f64(rec.deadlineSeconds);
    w.f64(rec.depthMeters);
    w.f64(rec.command.forward);
    w.f64(rec.command.lateral);
    w.f64(rec.command.yawRate);
}

InferenceRecord
loadRecord(StateReader &r)
{
    InferenceRecord rec;
    rec.requestCycle = r.u64();
    rec.responseCycle = r.u64();
    rec.commandCycle = r.u64();
    rec.modelDepth = int(r.u32());
    rec.usedArgmax = r.boolean();
    rec.deadlineSeconds = r.f64();
    rec.depthMeters = r.f64();
    rec.command.forward = r.f64();
    rec.command.lateral = r.f64();
    rec.command.yawRate = r.f64();
    return rec;
}

void
saveOutput(StateWriter &w, const dnn::ClassifierOutput &o)
{
    for (float p : o.angular.probs)
        w.f32(p);
    for (float p : o.lateral.probs)
        w.f32(p);
    w.f64(o.rawHeadingRad);
    w.f64(o.rawOffsetM);
    w.boolean(o.valid);
}

dnn::ClassifierOutput
loadOutput(StateReader &r)
{
    dnn::ClassifierOutput o;
    for (float &p : o.angular.probs)
        p = r.f32();
    for (float &p : o.lateral.probs)
        p = r.f32();
    o.rawHeadingRad = r.f64();
    o.rawOffsetM = r.f64();
    o.valid = r.boolean();
    return o;
}

// The App section stores the cached image as its raw in-memory image:
// format v1 writes each pixel as a little-endian IEEE-754 f32, which on
// a little-endian host is exactly the vector's bytes.
static_assert(std::endian::native == std::endian::little,
              "checkpoint image block assumes a little-endian host");
static_assert(sizeof(float) == 4 && std::numeric_limits<float>::is_iec559,
              "image pixels must be IEEE-754 binary32");

} // namespace

void
ControlApp::saveState(StateWriter &w) const
{
    w.u8(uint8_t(state_));
    w.u32(uint32_t(queue_.size()));
    for (const soc::Action &a : queue_)
        saveAction(w, a);
    w.boolean(haveImage_);
    if (haveImage_) {
        w.u32(uint32_t(image_.width));
        w.u32(uint32_t(image_.height));
        w.bytes(reinterpret_cast<const uint8_t *>(image_.pixels.data()),
                image_.pixels.size() * sizeof(float));
    }
    w.f64(depth_);
    w.boolean(sawDepth_);
    saveRecord(w, current_);
    saveOutput(w, lastOutput_);
    w.u32(uint32_t(activeDepth_));
    w.u32(uint32_t(records_.size()));
    for (const InferenceRecord &rec : records_)
        saveRecord(w, rec);
    w.u64(sensorRetries_);
    w.u64(consecutiveSensorRetries_);
    w.u64(consecutiveDeadlineMisses_);
    w.u64(degradedIterLeft_);
    w.u32(uint32_t(degraded_.size()));
    for (const DegradedInterval &di : degraded_) {
        w.u64(di.startCycle);
        w.u64(di.endCycle);
        w.u64(di.commands);
        w.str(di.reason);
    }
    bigClassifier_.saveState(w);
    smallClassifier_.saveState(w);
}

void
ControlApp::restoreState(StateReader &r)
{
    state_ = State(r.u8());
    queue_.clear();
    uint32_t nq = r.u32();
    for (uint32_t i = 0; i < nq; ++i)
        queue_.push_back(loadAction(r));
    haveImage_ = r.boolean();
    if (haveImage_) {
        const uint32_t width = r.u32();
        const uint32_t height = r.u32();
        // Bound the untrusted size by the bytes present before sizing
        // anything with it, then copy the pixels back as one block.
        const size_t n = size_t(width) * height;
        if (n > r.remaining() / sizeof(float))
            throw SerdeError("checkpoint image overruns its section");
        image_.width = int(width);
        image_.height = int(height);
        image_.pixels.resize(n);
        r.bytes(reinterpret_cast<uint8_t *>(image_.pixels.data()),
                n * sizeof(float));
    }
    depth_ = r.f64();
    sawDepth_ = r.boolean();
    current_ = loadRecord(r);
    lastOutput_ = loadOutput(r);
    activeDepth_ = int(r.u32());
    records_.clear();
    uint32_t nr = r.u32();
    records_.reserve(nr);
    for (uint32_t i = 0; i < nr; ++i)
        records_.push_back(loadRecord(r));
    sensorRetries_ = r.u64();
    consecutiveSensorRetries_ = r.u64();
    consecutiveDeadlineMisses_ = r.u64();
    degradedIterLeft_ = r.u64();
    degraded_.clear();
    uint32_t nd = r.u32();
    for (uint32_t i = 0; i < nd; ++i) {
        DegradedInterval di;
        di.startCycle = r.u64();
        di.endCycle = r.u64();
        di.commands = r.u64();
        di.reason = r.str();
        degraded_.push_back(std::move(di));
    }
    bigClassifier_.restoreState(r);
    smallClassifier_.restoreState(r);
}

void
ControlApp::enterDegraded(const char *reason, Cycles now)
{
    DegradedInterval di;
    di.startCycle = now;
    di.reason = reason;
    degraded_.push_back(di);
    degradedIterLeft_ = cfg_.degraded.holdIterations;
    consecutiveSensorRetries_ = 0;
    consecutiveDeadlineMisses_ = 0;
    state_ = State::Degraded;
}

} // namespace rose::runtime
