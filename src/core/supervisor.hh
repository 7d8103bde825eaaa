/**
 * @file
 * Mission supervisor: a watchdog-and-retry harness around
 * CoSimulation::run() (the resilience layer's control plane).
 *
 * Long fault-injection campaigns die in uninteresting ways: a dropped
 * packet stalls the lockstep, a corrupted payload throws mid-decode,
 * injected turbulence drives the physics non-finite. Unsupervised,
 * each such event forfeits the whole mission (and with it the wall
 * hours already simulated). The supervisor instead:
 *
 *  - snapshots the full co-simulation every N sync periods into a
 *    small in-memory ring, and hands each snapshot to one observer;
 *  - watches for hangs (the PR-1 sync deadline turns a dead transport
 *    into an exception; a wall-clock budget backstops everything
 *    else) and divergence (non-finite physics state throws
 *    env::DivergenceError; a position-bound check catches the
 *    finite-but-absurd case);
 *  - on failure, restores the latest checkpoint and resumes, with a
 *    configurable fault-injector policy (keep the RNG, reroll the
 *    seed so the same packet is not re-dropped deterministically, or
 *    disable injection outright) and bounded retries;
 *  - when the transport itself cannot be checkpointed (TCP), falls
 *    back to a cold restart, optionally switching to the in-process
 *    transport.
 *
 * Checkpoint restore is bit-exact, so a supervised run that never
 * trips a watchdog produces exactly the unsupervised trajectory — the
 * golden-trace tests rely on this.
 */

#ifndef ROSE_CORE_SUPERVISOR_HH
#define ROSE_CORE_SUPERVISOR_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/cosim.hh"

namespace rose::core {

/** What to do to the fault injector after a restore. */
enum class FaultRetryPolicy
{
    Keep,       ///< keep the injector RNG where the snapshot left it
    RerollSeed, ///< reseed per retry so the failure is not replayed
    Disable,    ///< rebuild without fault injection (clean retry)
};

/** Supervisor knobs. */
struct SupervisorConfig
{
    /** Snapshot cadence [sync periods]; 0 disables checkpointing
     *  (every failure then becomes a cold restart). */
    uint64_t checkpointPeriods = 50;
    /** In-memory snapshots retained (oldest evicted). */
    size_t checkpointRingSize = 3;
    /** Recovery attempts before giving up and reporting Crashed. */
    int maxRetries = 3;
    FaultRetryPolicy faultPolicy = FaultRetryPolicy::RerollSeed;
    /** On a transport failure under TCP, retry on the in-process
     *  channel instead (TCP state cannot be checkpointed). */
    bool fallbackToInProc = true;
    /** Divergence guard: abort-and-recover when the vehicle strays
     *  further than this from the origin [m]; 0 disables. */
    double positionBoundM = 1000.0;
    /** Wall-clock budget for the whole supervised mission [s]; the
     *  mission is cut off (TimedOut) when exceeded; 0 disables. */
    double wallClockBudgetSeconds = 0.0;
    /**
     * When non-empty, run() first tries to resume from this ROSECKPT
     * file (a previous incarnation's persisted snapshot — rosed's
     * crash recovery uses the per-job checkpoint it wrote before
     * dying). Any problem — missing file, corrupt bytes, config
     * fingerprint mismatch, non-checkpointable transport — falls back
     * to a normal cold start; resume never fails a mission.
     */
    std::string resumeFromPath;
    /**
     * When set, called on the supervising thread after each snapshot
     * enters the ring: the one place anything outside the loop sees a
     * running mission. The snapshot carries its period, simTime and
     * sealed trajectory chunks (the trajectory so far, in capture
     * order); rosed persists it for a journaled job, hands the chunks
     * to its encoder thread and publishes progress from it. A later
     * restore can abandon chunks passed here; the chunks themselves
     * stay immutable. An observer that throws fails the mission as a
     * failing checkpoint does: a CheckpointError with the exception's
     * message, then a restore from the ring and a retry.
     */
    std::function<void(const Checkpoint &)> snapshotObserver;
};

/** One recovery-relevant event, for logs and tests. */
struct SupervisorEvent
{
    uint64_t period = 0; ///< sync periods executed when it happened
    std::string what;    ///< e.g. "restore: transport error: ..."
};

/** Counters describing what the supervisor had to do. */
struct SupervisorStats
{
    uint64_t checkpointsTaken = 0;
    uint64_t restores = 0;     ///< warm recoveries from the ring
    uint64_t coldRestarts = 0; ///< rebuilds (no usable checkpoint)
    uint64_t diskResumes = 0;  ///< warm starts from resumeFromPath
    int retriesUsed = 0;
    std::vector<SupervisorEvent> events;
};

/**
 * Runs one mission under supervision. Singleshot: construct, call
 * run() once, inspect stats().
 */
class MissionSupervisor
{
  public:
    MissionSupervisor(const CosimConfig &cfg,
                      const SupervisorConfig &sup = {});
    ~MissionSupervisor();

    /**
     * Run the mission to completion, recovering from failures per the
     * configured policy. Never throws on mission failure: retries
     * exhausted (or unrecoverable setup errors) yield a Crashed
     * result carrying the last failure reason.
     */
    MissionResult run();

    const SupervisorStats &stats() const { return stats_; }

    /** The supervised co-simulation (valid after run() started; for
     *  tests). */
    CoSimulation *simulation() { return sim_.get(); }

  private:
    void note(uint64_t period, std::string what);
    void maybeCheckpoint();
    /** Apply the fault/transport retry policy. @return true when the
     *  simulation must be rebuilt (cold path). */
    bool adjustForRetry(bool transport_failure);
    void rebuild();

    CosimConfig cfg_;
    SupervisorConfig sup_;
    CheckpointRing ring_;
    SupervisorStats stats_;
    std::unique_ptr<CoSimulation> sim_;
};

} // namespace rose::core

#endif // ROSE_CORE_SUPERVISOR_HH
