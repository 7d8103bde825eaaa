/**
 * @file
 * Per-layer host-time tracing of one co-simulated mission, measured
 * from outside the library.
 *
 * The traced loop rebuilds what core::CoSimulation wires together
 * (EnvSim, a transport pair, RoseBridge, TargetDriver, ControlApp,
 * SocSim, Synchronizer) from their public headers and inserts
 * decorators at the two seams the library already uses for its own
 * wrappers: both bridge::Transport ends (like FaultInjectTransport)
 * and the soc::Workload (like TimeSharedWorkload). Nothing inside the
 * library is instrumented. The trajectory a traced mission produces
 * must hash equal to the untraced core::runMission of the same spec;
 * the benchmark checks that on every traced sample.
 *
 * Self times partition the traced total exactly:
 *
 *   total = core.build + sync.grant + bridge.transport_sync
 *         + soc.engine + runtime.app + bridge.transport_soc
 *         + sync.service_image + sync.service_cmd
 *         + sync.service_other + env.step + core.loop_other
 *
 * where every term but core.loop_other is measured and core.loop_other
 * is the explicit remainder (trajectory sampling, loop bookkeeping,
 * timer overhead).
 */

#ifndef ROSEBENCH_LAYERS_HH
#define ROSEBENCH_LAYERS_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bridge/transport.hh"
#include "core/cosim.hh"
#include "soc/workload.hh"

namespace rosebench {

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One host-time span (Chrome-trace "complete" event). */
struct Span
{
    const char *name = "";
    int64_t t0 = 0;
    int64_t t1 = 0;
    /** Mission or request the span belongs to. */
    uint64_t id = 0;
};

/** In-memory span store, written out once the run ends. */
class SpanLog
{
  public:
    explicit SpanLog(size_t max_spans = 400'000) : max_(max_spans) {}

    void
    add(const char *name, int64_t t0, int64_t t1, uint64_t id)
    {
        if (spans_.size() < max_)
            spans_.push_back({name, t0, t1, id});
        else
            ++dropped_;
    }

    const std::vector<Span> &spans() const { return spans_; }
    uint64_t dropped() const { return dropped_; }

    /** Write the spans as a Chrome-trace JSON array (the format
     *  soc::ActionTrace::writeChromeTrace emits), one tid per id. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    size_t max_;
    uint64_t dropped_ = 0;
    std::vector<Span> spans_;
};

/** Host time per layer, summed over the missions of one sample [ns]. */
struct LayerTimes
{
    int64_t total = 0;
    int64_t build = 0;         ///< component construction + configure
    int64_t syncBegin = 0;     ///< beginPeriod, inclusive
    int64_t syncEnd = 0;       ///< endPeriod, inclusive
    int64_t socRun = 0;        ///< runPeriod, inclusive
    int64_t transportSync = 0; ///< sync-side send/recv/wait
    int64_t transportSyncBegin = 0; ///< ... of it inside beginPeriod
    int64_t transportSoc = 0;  ///< bridge-side send/recv/wait
    int64_t transportSocInApp = 0; ///< ... of it nested in the app
    int64_t app = 0;           ///< ControlApp::next, inclusive
    int64_t serviceImage = 0;  ///< ImageReq: render + encode
    int64_t serviceCmd = 0;    ///< VelocityCmd: decode + actuate
    int64_t serviceOther = 0;  ///< IMU / depth requests

    // Counts (exact for a given spec).
    uint64_t periods = 0;
    uint64_t frames = 0;
    uint64_t imageRequests = 0;
    uint64_t mmioReads = 0;
    uint64_t packets = 0;
    uint64_t wireBytes = 0;
    uint64_t actions = 0;
    uint64_t inferences = 0;

    int64_t grant() const { return syncBegin - transportSyncBegin; }
    int64_t appSelf() const { return app - transportSocInApp; }
    int64_t engine() const
    {
        return socRun - app - (transportSoc - transportSocInApp);
    }
    int64_t envStep() const
    {
        return syncEnd - (transportSync - transportSyncBegin) -
               serviceImage - serviceCmd - serviceOther;
    }
    int64_t loopOther() const
    {
        return total - build - grant() - transportSync - engine() -
               appSelf() - transportSoc - serviceImage - serviceCmd -
               serviceOther - envStep();
    }

    LayerTimes &operator+=(const LayerTimes &o);
};

/**
 * Shared accumulator the decorators and the traced loop write into.
 * Single-threaded: one probe per traced mission.
 */
struct Probe
{
    LayerTimes t;
    SpanLog *spans = nullptr; ///< null: aggregate only
    uint64_t id = 0;
    bool inApp = false;

    void
    span(const char *name, int64_t t0, int64_t t1)
    {
        if (spans)
            spans->add(name, t0, t1, id);
    }
};

/**
 * Transport decorator: forwards every call unchanged and times it.
 * The synchronizer-side instance also attributes the time between a
 * data packet's recv() and the synchronizer's next recv() (minus the
 * sends in between) to servicing that packet's type.
 */
class TimedTransport : public rose::bridge::Transport
{
  public:
    enum class Side { Sync, Soc };

    TimedTransport(std::unique_ptr<rose::bridge::Transport> inner,
                   Probe &probe, Side side)
        : inner_(std::move(inner)), probe_(probe), side_(side) {}

    void send(const rose::bridge::Packet &p) override;
    bool recv(rose::bridge::Packet &out) override;
    rose::bridge::TransportState state() const override
    { return inner_->state(); }
    bool supportsWait() const override { return inner_->supportsWait(); }
    bool waitReadable(int timeout_ms) override;
    uint64_t bytesSent() const override { return inner_->bytesSent(); }
    uint64_t bytesReceived() const override
    { return inner_->bytesReceived(); }
    bool checkpointable() const override
    { return inner_->checkpointable(); }
    void saveState(rose::StateWriter &w) const override
    { inner_->saveState(w); }
    void restoreState(rose::StateReader &r) override
    { inner_->restoreState(r); }

    uint64_t packets() const { return packets_; }

  private:
    void account(int64_t t0, int64_t t1);

    std::unique_ptr<rose::bridge::Transport> inner_;
    Probe &probe_;
    Side side_;
    uint64_t packets_ = 0;
    /** Sync side: packet being serviced since its recv() returned. */
    bool servicing_ = false;
    rose::bridge::PacketType servicedType_{};
    int64_t serviceStart_ = 0;
    int64_t transportSinceRecv_ = 0;
};

/** soc::Workload decorator timing the application's next(). */
class TimedWorkload : public rose::soc::Workload
{
  public:
    TimedWorkload(rose::soc::Workload &inner, Probe &probe)
        : inner_(inner), probe_(probe) {}

    std::string workloadName() const override
    { return inner_.workloadName(); }
    rose::soc::Action next(const rose::soc::SocContext &ctx) override;

  private:
    rose::soc::Workload &inner_;
    Probe &probe_;
};

/** A traced mission: its trajectory (for the hash check) and times. */
struct TracedMission
{
    std::vector<rose::core::TrajectorySample> trajectory;
    LayerTimes times;
};

/**
 * Run one mission through the decorated loop. Supports the configs
 * the benchmark uses: in-process or TCP transport, no fault injection,
 * no background tenant (throws std::invalid_argument otherwise).
 */
TracedMission runTracedMission(const rose::core::CosimConfig &cfg,
                               SpanLog *spans, uint64_t id);

/** FNV-1a of the canonical trajectory CSV (the golden-hash surface). */
uint64_t trajectoryHash(
    const std::vector<rose::core::TrajectorySample> &trajectory);

} // namespace rosebench

#endif // ROSEBENCH_LAYERS_HH
