/**
 * @file
 * The RoSÉ synchronizer (Section 3.4, Algorithm 1).
 *
 * Runs the lockstep synchronization loop between the environment
 * simulator and the (FireSim-equivalent) SoC simulator. A
 * synchronization period is defined in SoC clock cycles; the matching
 * number of environment frames follows Equation 1:
 *
 *     airsim_steps / firesim_steps = soc_clock_freq / airsim_frame_freq
 *
 * The synchronizer owns the environment side: it decodes data packets
 * received from the bridge into environment API calls (sensor samples,
 * actuation) and encodes the results back into packets, exactly as the
 * paper's synchronizer translates RoSÉ I/O packets into AirSim RPC
 * calls. It never exposes simulator internals to the SoC.
 *
 * In-process lockstep: the caller (the co-simulation top) alternates
 * beginPeriod() / SoC execution / endPeriod(); see cosim.hh.
 */

#ifndef ROSE_SYNC_SYNCHRONIZER_HH
#define ROSE_SYNC_SYNCHRONIZER_HH

#include <cstdint>

#include "bridge/packet.hh"
#include "bridge/transport.hh"
#include "env/envsim.hh"
#include "util/units.hh"

namespace rose::sync {

/** Synchronization parameters. */
struct SyncConfig
{
    /** Synchronization granularity in SoC cycles (Figure 16 sweeps
     *  this from 10M to 400M). */
    Cycles cyclesPerSync = 10 * kMegaCycles;
    /** Clock relationship between the two simulators. */
    ClockRatio clocks{1.0e9, 100.0};
    /**
     * Wall-clock deadline for the SoC side to report SyncDone after a
     * period's packets are drained [ms]. Only meaningful on transports
     * that can block (TCP); endPeriod() throws bridge::TransportError
     * with a diagnostic when it expires, instead of looping forever on
     * a stalled or dead SoC simulator. 0 disables the deadline.
     */
    uint32_t syncDeadlineMs = 5000;
};

/** Counters for evaluating synchronizer behavior. */
struct SyncStats
{
    uint64_t periods = 0;
    uint64_t grantsSent = 0;
    uint64_t donesReceived = 0;
    uint64_t imuRequests = 0;
    uint64_t imageRequests = 0;
    uint64_t depthRequests = 0;
    uint64_t velocityCommands = 0;
    uint64_t framesStepped = 0;
    uint64_t unknownPackets = 0;
    /** Bounded waits taken for a late SyncDone (TCP in-flight data). */
    uint64_t deadlineWaits = 0;
};

/** Most recent actuation command observed (for trajectory logging). */
struct LastCommand
{
    bool valid = false;
    double forward = 0.0;
    double lateral = 0.0;
    double yawRate = 0.0;
    double envTime = 0.0;
};

/** Lockstep synchronizer. */
class Synchronizer
{
  public:
    /**
     * @param env the environment simulator (owned by the caller).
     * @param transport endpoint facing the RoSÉ bridge.
     */
    Synchronizer(env::EnvSim &env, bridge::Transport &transport,
                 const SyncConfig &cfg);

    /**
     * Send the step-size configuration to the bridge
     * (set_firesim_steps in Algorithm 1). Must be called once before
     * the first period.
     */
    void configure();

    /**
     * Start a synchronization period: allocate execution tokens to the
     * SoC simulator by sending a SyncGrant for cyclesPerSync.
     */
    void beginPeriod();

    /**
     * Finish a synchronization period: poll packets from the SoC side,
     * translate data packets into environment API calls (responses are
     * sent back through the transport and become visible to the SoC at
     * the next period), verify SyncDone arrived, and advance the
     * environment by the matching number of frames.
     *
     * On a blocking-capable transport (TCP) this waits up to
     * SyncConfig::syncDeadlineMs for the SoC side's SyncDone.
     *
     * @throws bridge::TransportError when the peer closed, the wire
     *         corrupted, or no SyncDone arrived within the deadline —
     *         a loud diagnostic instead of an infinite lockstep spin.
     */
    void endPeriod();

    /**
     * Environment frames the next endPeriod() will step: the Equation 1
     * ratio plus the fractional-frame carry accumulated so far, so this
     * always agrees with the frames actually stepped — including on
     * non-integer cycle/frame ratios.
     */
    Frames framesPerPeriod() const;

    const SyncConfig &config() const { return cfg_; }
    const SyncStats &stats() const { return stats_; }
    const LastCommand &lastCommand() const { return lastCmd_; }

    /** Total simulated SoC time granted so far [s]. */
    double grantedSimTime() const;

    /** Serialize period bookkeeping (stats, last command, carry). */
    void saveState(StateWriter &w) const;
    void restoreState(StateReader &r);

  private:
    void servicePacket(const bridge::Packet &p);

    /** Equation 1 frames per period before integer truncation. */
    double exactFramesPerPeriod() const;

    env::EnvSim &env_;
    bridge::Transport &transport_;
    SyncConfig cfg_;
    SyncStats stats_;
    LastCommand lastCmd_;
    bool configured_ = false;
    bool periodOpen_ = false;
    /** Fractional-frame accumulator so non-integer ratios stay exact. */
    double frameCarry_ = 0.0;
};

} // namespace rose::sync

#endif // ROSE_SYNC_SYNCHRONIZER_HH
