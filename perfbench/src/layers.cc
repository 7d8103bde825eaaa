#include "layers.hh"

#include <cmath>
#include <fstream>
#include <stdexcept>

#include "bridge/rose_bridge.hh"
#include "bridge/target_driver.hh"
#include "core/experiment.hh"
#include "env/envsim.hh"
#include "runtime/control_app.hh"
#include "soc/socsim.hh"
#include "sync/synchronizer.hh"
#include "util/hash.hh"

namespace rosebench {

using namespace rose;

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    int64_t origin = spans_.empty() ? 0 : spans_.front().t0;
    for (const Span &s : spans_)
        origin = std::min(origin, s.t0);
    os << "[\n";
    bool first = true;
    for (const Span &s : spans_) {
        if (!first)
            os << ",\n";
        first = false;
        os << "  {\"name\": \"" << s.name << "\", \"cat\": \"host\", "
           << "\"ph\": \"X\", \"ts\": " << double(s.t0 - origin) / 1e3
           << ", \"dur\": " << double(s.t1 - s.t0) / 1e3
           << ", \"pid\": 2, \"tid\": " << s.id << "}";
    }
    os << "\n]\n";
    return bool(os);
}

LayerTimes &
LayerTimes::operator+=(const LayerTimes &o)
{
    total += o.total;
    build += o.build;
    syncBegin += o.syncBegin;
    syncEnd += o.syncEnd;
    socRun += o.socRun;
    transportSync += o.transportSync;
    transportSyncBegin += o.transportSyncBegin;
    transportSoc += o.transportSoc;
    transportSocInApp += o.transportSocInApp;
    app += o.app;
    serviceImage += o.serviceImage;
    serviceCmd += o.serviceCmd;
    serviceOther += o.serviceOther;
    periods += o.periods;
    frames += o.frames;
    imageRequests += o.imageRequests;
    mmioReads += o.mmioReads;
    packets += o.packets;
    wireBytes += o.wireBytes;
    actions += o.actions;
    inferences += o.inferences;
    return *this;
}

void
TimedTransport::account(int64_t t0, int64_t t1)
{
    int64_t d = t1 - t0;
    if (side_ == Side::Sync) {
        probe_.t.transportSync += d;
        if (servicing_)
            transportSinceRecv_ += d;
        probe_.span("bridge.transport_sync", t0, t1);
    } else {
        probe_.t.transportSoc += d;
        if (probe_.inApp)
            probe_.t.transportSocInApp += d;
        probe_.span("bridge.transport_soc", t0, t1);
    }
}

void
TimedTransport::send(const bridge::Packet &p)
{
    int64_t t0 = nowNs();
    inner_->send(p);
    account(t0, nowNs());
    ++packets_;
}

bool
TimedTransport::recv(bridge::Packet &out)
{
    int64_t t0 = nowNs();
    if (servicing_) {
        // The synchronizer came back for the next packet: everything
        // since the previous recv() returned, except its own sends,
        // was spent servicing that packet.
        int64_t d = t0 - serviceStart_ - transportSinceRecv_;
        const char *name;
        if (servicedType_ == bridge::PacketType::ImageReq) {
            probe_.t.serviceImage += d;
            name = "sync.service_image";
        } else if (servicedType_ == bridge::PacketType::VelocityCmd) {
            probe_.t.serviceCmd += d;
            name = "sync.service_cmd";
        } else {
            probe_.t.serviceOther += d;
            name = "sync.service_other";
        }
        probe_.span(name, serviceStart_, t0);
        servicing_ = false;
    }
    bool got = inner_->recv(out);
    int64_t t1 = nowNs();
    account(t0, t1);
    if (got && side_ == Side::Sync &&
        out.type != bridge::PacketType::SyncDone) {
        servicing_ = true;
        servicedType_ = out.type;
        serviceStart_ = t1;
        transportSinceRecv_ = 0;
    }
    return got;
}

bool
TimedTransport::waitReadable(int timeout_ms)
{
    int64_t t0 = nowNs();
    bool r = inner_->waitReadable(timeout_ms);
    account(t0, nowNs());
    return r;
}

soc::Action
TimedWorkload::next(const soc::SocContext &ctx)
{
    int64_t t0 = nowNs();
    probe_.inApp = true;
    soc::Action a = inner_.next(ctx);
    probe_.inApp = false;
    int64_t t1 = nowNs();
    probe_.t.app += t1 - t0;
    probe_.span("runtime.app", t0, t1);
    return a;
}

TracedMission
runTracedMission(const core::CosimConfig &cfg_in, SpanLog *spans,
                 uint64_t id)
{
    if (cfg_in.faults.enabled || cfg_in.background.enabled)
        throw std::invalid_argument(
            "traced loop supports neither fault injection nor a "
            "background tenant");

    Probe probe;
    probe.spans = spans;
    probe.id = id;
    TracedMission out;
    const int64_t start = nowNs();

    // Same wiring and order as core::CoSimulation's constructor.
    core::CosimConfig cfg = cfg_in;
    cfg.env.frameHz = cfg.sync.clocks.envFrameHz;
    auto env = std::make_unique<env::EnvSim>(cfg.env);

    std::unique_ptr<bridge::Transport> sync_raw, soc_raw;
    if (cfg.transport == core::TransportKind::Tcp) {
        auto [server, client] = bridge::TcpTransport::makeLoopbackPair();
        sync_raw = std::move(server);
        soc_raw = std::move(client);
    } else {
        auto [a, b] = bridge::makeInProcPair();
        sync_raw = std::move(a);
        soc_raw = std::move(b);
    }
    TimedTransport sync_end(std::move(sync_raw), probe,
                            TimedTransport::Side::Sync);
    TimedTransport soc_end(std::move(soc_raw), probe,
                           TimedTransport::Side::Soc);

    bridge::RoseBridge rbridge(soc_end, cfg.bridgeCfg);
    bridge::TargetDriver driver(rbridge);
    runtime::ControlApp app(driver, cfg.soc, cfg.app);
    TimedWorkload workload(app, probe);
    soc::SocSim soc(rbridge, workload, cfg.soc);
    sync::Synchronizer sync(*env, sync_end, cfg.sync);
    sync.configure();
    rbridge.hostService();

    const int64_t built = nowNs();
    probe.t.build = built - start;
    probe.span("core.build", start, built);

    Vec3 prev_pos = env->kinematics().position;
    double speed_sum = 0.0, max_speed = 0.0, distance = 0.0;
    uint64_t periods = 0;
    while (env->simTime() < cfg.maxSimSeconds) {
        int64_t t0 = nowNs();
        int64_t ts0 = probe.t.transportSync;
        sync.beginPeriod();
        int64_t t1 = nowNs();
        probe.t.transportSyncBegin += probe.t.transportSync - ts0;
        soc.runPeriod();
        int64_t t2 = nowNs();
        sync.endPeriod();
        int64_t t3 = nowNs();
        probe.t.syncBegin += t1 - t0;
        probe.t.socRun += t2 - t1;
        probe.t.syncEnd += t3 - t2;
        probe.span("sync.begin", t0, t1);
        probe.span("soc.run_period", t1, t2);
        probe.span("sync.end", t2, t3);
        ++periods;

        // CoSimulation::stepPeriod's bookkeeping and sample().
        flight::VehicleState k = env->kinematics();
        double sp = std::hypot(k.velocity.x, k.velocity.y);
        speed_sum += sp;
        max_speed = std::max(max_speed, sp);
        distance += (k.position - prev_pos).norm();
        prev_pos = k.position;
        if (periods % cfg.samplePeriods == 0) {
            core::TrajectorySample s;
            s.time = env->simTime();
            s.position = k.position;
            s.yaw = k.attitude.yaw();
            s.speed = sp;
            s.lateralOffset = env->lateralOffset();
            s.collisions = env->collisionInfo().count;
            const sync::LastCommand &cmd = sync.lastCommand();
            if (cmd.valid) {
                s.cmdForward = cmd.forward;
                s.cmdLateral = cmd.lateral;
                s.cmdYawRate = cmd.yawRate;
            }
            out.trajectory.push_back(s);
        }
        if (env->missionComplete())
            break;
    }
    const int64_t end = nowNs();
    probe.t.total = end - start;
    probe.span("core.mission", start, end);

    const sync::SyncStats &ss = sync.stats();
    probe.t.periods = ss.periods;
    probe.t.frames = uint64_t(env->frameCount());
    probe.t.imageRequests = ss.imageRequests;
    probe.t.mmioReads = rbridge.stats().mmioReads;
    probe.t.packets = sync_end.packets() + soc_end.packets();
    probe.t.wireBytes = sync_end.bytesSent() + soc_end.bytesSent();
    probe.t.actions = soc.stats().actionsIssued;
    probe.t.inferences = app.inferenceCount();
    out.times = probe.t;
    return out;
}

uint64_t
trajectoryHash(const std::vector<core::TrajectorySample> &trajectory)
{
    return fnv1a(core::trajectoryCsvString(trajectory));
}

} // namespace rosebench
