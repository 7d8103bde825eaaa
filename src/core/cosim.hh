/**
 * @file
 * RoSÉ co-simulation top: wires the environment simulator, the
 * SimpleFlight-class flight controller (inside EnvSim), the RoSÉ
 * bridge, the synchronizer, the SoC cycle engine, and the
 * companion-computer application into one lockstep co-simulation
 * (Figures 3 and 5), and runs missions to produce the metrics the
 * evaluation section reports.
 *
 * This is the library's primary public entry point; see
 * examples/quickstart.cc.
 */

#ifndef ROSE_CORE_COSIM_HH
#define ROSE_CORE_COSIM_HH

#include <array>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "bridge/fault_inject.hh"
#include "bridge/rose_bridge.hh"
#include "bridge/target_driver.hh"
#include "bridge/transport.hh"
#include "core/checkpoint.hh"
#include "env/envsim.hh"
#include "runtime/control_app.hh"
#include "soc/config.hh"
#include "soc/energy.hh"
#include "soc/multitenant.hh"
#include "soc/socsim.hh"
#include "sync/synchronizer.hh"

namespace rose::core {

/** Transport selection between synchronizer and bridge. */
enum class TransportKind
{
    InProcess, ///< default: shared-memory channel
    Tcp,       ///< real loopback TCP sockets (the paper's transport)
};

/** Optional co-tenant sharing the companion computer (Section 1's
 *  resource-contention motivation). */
struct BackgroundConfig
{
    bool enabled = false;
    /** Work per background batch [cycles]; always-busy when idle=0. */
    Cycles batchCycles = 200'000;
    Cycles idleCycles = 0;
    /** Scheduler quanta: background share = bg / (fg + bg). */
    Cycles fgQuantum = 100'000;
    Cycles bgQuantum = 100'000;
};

/** Full co-simulation configuration. */
struct CosimConfig
{
    env::EnvConfig env;
    soc::SocConfig soc = soc::configA();
    sync::SyncConfig sync;
    runtime::AppConfig app;
    BackgroundConfig background;
    bridge::BridgeConfig bridgeCfg;
    TransportKind transport = TransportKind::InProcess;
    /**
     * Transport fault injection (drop/corrupt/reorder/delay) applied to
     * the synchronizer↔bridge link. When enabled, the control app's
     * sensor timeout defaults to three sync periods (if not set
     * explicitly) so the target software recovers from lost packets.
     */
    bridge::FaultConfig faults;

    /** Stop after this much environment time [s]. */
    double maxSimSeconds = 60.0;

    /** Record one trajectory sample every N sync periods. */
    uint64_t samplePeriods = 1;
};

/** One trajectory sample. */
struct TrajectorySample
{
    double time = 0.0;
    Vec3 position;
    double yaw = 0.0;
    double speed = 0.0;
    double lateralOffset = 0.0;
    uint64_t collisions = 0;
    double cmdForward = 0.0;
    double cmdLateral = 0.0;
    double cmdYawRate = 0.0;
};

/**
 * How a mission ended. `Degraded` still reached the goal, but spent
 * part of the flight under the classical fallback controller.
 */
enum class MissionStatus
{
    Completed, ///< reached the corridor end inside the time limit
    TimedOut,  ///< hit maxSimSeconds without finishing
    Crashed,   ///< aborted on an exception (transport, divergence, ...)
    Degraded,  ///< completed, but with degraded-control intervals
};

/** Human-readable status name ("completed", "crashed", ...). */
const char *missionStatusName(MissionStatus s);

/** Mission outcome and metrics. */
struct MissionResult
{
    /** Structured outcome: the one field saying how the run ended. */
    MissionStatus status = MissionStatus::TimedOut;
    /** Reached the goal (Degraded also counts as completed). */
    bool
    completed() const
    {
        return status == MissionStatus::Completed ||
               status == MissionStatus::Degraded;
    }
    /** Diagnostic for Crashed/TimedOut outcomes (empty otherwise). */
    std::string failureReason;
    /** The run aborted on a bridge::TransportError (dead peer, corrupt
     *  wire, sync deadline) rather than finishing or timing out. */
    bool transportError = false;
    /** Diagnostic from the transport failure (empty otherwise). */
    std::string transportErrorMessage;
    /** Environment time at completion (or at timeout) [s]. */
    double missionTime = 0.0;
    uint64_t collisions = 0;
    double avgSpeed = 0.0;
    double maxSpeed = 0.0;
    double distanceTravelled = 0.0;

    uint64_t inferences = 0;
    /** Mean image-request-to-command latency [s] (Figure 16c). */
    double avgInferenceLatency = 0.0;
    /** Accelerator activity factor (Figure 13). */
    double accelActivityFactor = 0.0;
    /** Full SoC engine counters (cycle-exact; parity-tested across
     *  serial and batched execution). */
    soc::SocStats socStats;

    std::vector<TrajectorySample> trajectory;
    std::vector<runtime::InferenceRecord> inferenceLog;
    /** Intervals flown under the classical fallback controller. */
    std::vector<runtime::DegradedInterval> degradedIntervals;

    /** Mission energy of the companion SoC [J] and its average power
     *  [W] under the default soc::EnergyModel. */
    double energyJoules = 0.0;
    double avgPowerWatts = 0.0;

    /** Wall-clock cost of the run and simulated cycles (Figure 15). */
    double wallSeconds = 0.0;
    Cycles simulatedCycles = 0;

    /** Effective simulation rate [simulated MHz of the SoC clock]. */
    double
    simulationRateMHz() const
    {
        return wallSeconds > 0.0
                   ? double(simulatedCycles) / wallSeconds / 1e6
                   : 0.0;
    }
};

/** The co-simulation. */
class CoSimulation
{
  public:
    explicit CoSimulation(const CosimConfig &cfg);
    ~CoSimulation();

    CoSimulation(const CoSimulation &) = delete;
    CoSimulation &operator=(const CoSimulation &) = delete;

    /** Run one synchronization period (Algorithm 1 body). */
    void stepPeriod();

    /**
     * Run until mission completion or the simulated-time limit.
     *
     * @return metrics of the mission.
     */
    MissionResult run();

    /**
     * Build a MissionResult from the state accumulated so far without
     * running anything — what run() returns, minus wall-clock time.
     * The supervisor uses this to report partial metrics after an
     * unrecoverable failure.
     */
    MissionResult collectResult() const;

    /** True when the transports support in-memory checkpointing
     *  (in-process channel yes, TCP no). */
    bool checkpointable() const;

    /**
     * Snapshot the full co-simulation state. Seals the trajectory's
     * open tail into an immutable chunk and shares the chunk list with
     * the snapshot, so no sample is copied. Throws CheckpointError
     * when the transport cannot be checkpointed (TCP).
     */
    Checkpoint checkpoint();

    /**
     * Restore a snapshot previously taken from an identically
     * configured co-simulation (configFingerprint must match; fault /
     * transport / time-limit knobs may differ). Resuming afterwards is
     * bit-identical to never having stopped. The trajectory comes
     * from the snapshot's chunks, or from samples inline in its blob
     * (a snapshot read from disk). Throws CheckpointError on
     * version/config mismatch or a sample count that disagrees with
     * the chunks, and SerdeError on corrupt state.
     */
    void restore(const Checkpoint &ck);

    // --- component access (read-mostly; for tests and custom loops) --
    env::EnvSim &environment() { return *env_; }
    soc::SocSim &socSim() { return *soc_; }
    sync::Synchronizer &synchronizer() { return *sync_; }
    bridge::RoseBridge &bridge() { return *bridge_; }
    runtime::ControlApp &app() { return *app_; }
    const CosimConfig &config() const { return cfg_; }

    /** Fault-injection stats, or nullptr when faults are disabled. */
    const bridge::FaultStats *faultStats() const
    {
        return faults_ ? &faults_->stats() : nullptr;
    }

    /** Fault injector, or nullptr when faults are disabled. The
     *  supervisor reseeds it between retries. */
    bridge::FaultInjectTransport *faultInjector() { return faults_; }

    /** Syscalls of both TCP endpoints, summed; zero in-process. */
    bridge::TcpSyscalls tcpSyscalls() const;

    /** Periods executed so far. */
    uint64_t periods() const { return periods_; }

    /**
     * Write a gem5-style stats summary of all components (sync,
     * bridge, SoC engine, energy) to the stream.
     */
    void printSummary(std::ostream &os) const;

  private:
    void sample();
    size_t sampleCount() const { return sealedSamples_ + tail_.size(); }

    CosimConfig cfg_;
    std::unique_ptr<env::EnvSim> env_;
    bridge::FaultInjectTransport *faults_ = nullptr; ///< owned via syncEnd_
    std::unique_ptr<bridge::Transport> syncEnd_;
    std::unique_ptr<bridge::Transport> bridgeEnd_;
    /** The TCP endpoints inside syncEnd_ and bridgeEnd_, if any. */
    std::array<const bridge::TcpTransport *, 2> tcpEnds_{};
    std::unique_ptr<bridge::RoseBridge> bridge_;
    std::unique_ptr<bridge::TargetDriver> driver_;
    std::unique_ptr<runtime::ControlApp> app_;
    std::unique_ptr<soc::BackgroundLoad> backgroundLoad_;
    std::unique_ptr<soc::TimeSharedWorkload> timeShared_;
    std::unique_ptr<soc::SocSim> soc_;
    std::unique_ptr<sync::Synchronizer> sync_;

    uint64_t periods_ = 0;
    // The trajectory: chunks sealed by checkpoint() (shared with the
    // snapshots that hold them), then the samples since the last one.
    std::vector<TrajectoryChunk> chunks_;
    size_t sealedSamples_ = 0;
    std::vector<TrajectorySample> tail_;

    // Mission-metric accumulators, updated per period so they survive
    // checkpoint/restore (they live in the Cosim checkpoint section).
    double speedSum_ = 0.0;
    double maxSpeed_ = 0.0;
    uint64_t speedN_ = 0;
    Vec3 prevPos_;
    double distance_ = 0.0;
};

} // namespace rose::core

#endif // ROSE_CORE_COSIM_HH
