/**
 * @file
 * Fault-injecting transport decorator.
 *
 * The paper's bridge abstracts a physical IO interface (UART, Ethernet,
 * a camera link — Section 3.2); real links drop, corrupt, reorder, and
 * delay traffic. FaultInjectTransport wraps any Transport and injects
 * those faults with configurable, seeded probabilities, so closed-loop
 * experiments can measure how mission behavior degrades under packet
 * loss — a robustness ablation the co-simulation infrastructure enables
 * pre-silicon.
 *
 * Faults are applied at packet granularity in both directions:
 *
 *  - drop: the packet vanishes.
 *  - corrupt: a random payload bit flips (framing stays intact; the
 *    fail-stop payload decoders are the next line of defense).
 *  - reorder: the packet is held and released after the next packet in
 *    the same direction (an adjacent swap).
 *  - delay: the packet is held for a few transport operations before
 *    delivery, modeling link-level retransmission latency.
 *
 * Synchronization packets (SyncGrant/SyncDone/CfgStepSize) are
 * protected by default: they model the simulation control channel, not
 * the lossy IO interface, and dropping them would stall the lockstep —
 * which the sync deadline would then report as a TransportError.
 */

#ifndef ROSE_BRIDGE_FAULT_INJECT_HH
#define ROSE_BRIDGE_FAULT_INJECT_HH

#include <deque>
#include <memory>
#include <optional>

#include "bridge/transport.hh"
#include "util/rng.hh"

namespace rose::bridge {

/** Fault-injection knobs. Probabilities are per packet and mutually
 *  exclusive (their sum must not exceed 1). */
struct FaultConfig
{
    /** Convenience gate for co-simulation wiring. */
    bool enabled = false;

    double dropProb = 0.0;
    double corruptProb = 0.0;
    double reorderProb = 0.0;
    double delayProb = 0.0;

    /** Delay duration in transport operations (sends/recvs observed by
     *  the decorator), drawn uniformly from [min, max]. */
    uint64_t delayOpsMin = 2;
    uint64_t delayOpsMax = 8;

    /** Keep the simulation control channel reliable (see file docs). */
    bool protectSyncPackets = true;

    uint64_t seed = 0xfa017;

    bool operator==(const FaultConfig &) const = default;
};

/**
 * Why @p cfg cannot drive a FaultInjectTransport, or nullptr when it
 * can: each probability in [0, 1], their sum at most 1, and
 * delayOpsMin <= delayOpsMax. The decorator asserts it; mission-spec
 * validation (core::validateMissionSpec) reports it.
 */
const char *faultConfigError(const FaultConfig &cfg);

/** What the decorator did to the traffic. */
struct FaultStats
{
    uint64_t sent = 0;      ///< packets forwarded to the inner send
    uint64_t received = 0;  ///< packets delivered out of recv
    uint64_t dropped = 0;
    uint64_t corrupted = 0;
    uint64_t reordered = 0;
    uint64_t delayed = 0;
};

/** The decorator. */
class FaultInjectTransport : public Transport
{
  public:
    /** Wrap an owned inner transport. */
    FaultInjectTransport(std::unique_ptr<Transport> inner,
                         const FaultConfig &cfg);

    /** Wrap a borrowed inner transport (caller keeps ownership). */
    FaultInjectTransport(Transport &inner, const FaultConfig &cfg);

    ~FaultInjectTransport() override;

    void send(const Packet &p) override;
    bool recv(Packet &out) override;

    TransportState state() const override { return inner_->state(); }
    bool supportsWait() const override { return inner_->supportsWait(); }
    bool waitReadable(int timeout_ms) override
    {
        return inner_->waitReadable(timeout_ms);
    }
    uint64_t bytesSent() const override { return inner_->bytesSent(); }
    uint64_t bytesReceived() const override
    {
        return inner_->bytesReceived();
    }

    const FaultStats &stats() const { return stats_; }
    Transport &inner() { return *inner_; }

    /** Checkpointable iff the wrapped transport is. */
    bool checkpointable() const override
    {
        return inner_->checkpointable();
    }

    /**
     * Serialize decorator state only (stats, fault RNG, operation
     * clock, held/reordered packets). The inner transport saves its
     * own state separately — the co-simulation serializes inner and
     * decorator as distinct checkpoint sections so the fault layer
     * can be disabled on a retry without invalidating the snapshot.
     */
    void saveState(StateWriter &w) const override;
    void restoreState(StateReader &r) override;

    /**
     * Re-seed the fault RNG. A restored checkpoint replays the exact
     * RNG stream that produced the fatal fault; the supervisor's
     * RerollSeed retry policy calls this after restore so the retry
     * explores a different fault schedule instead of re-dying
     * deterministically.
     */
    void reseed(uint64_t seed) { rng_.reseed(seed); }

  private:
    enum class Verdict
    {
        Deliver,
        Drop,
        Corrupt,
        Reorder,
        Delay,
    };

    Verdict classify(const Packet &p);
    void corrupt(Packet &p);
    uint64_t delayDraw();
    void flushDelayedTx();

    struct Held
    {
        Packet pkt;
        uint64_t dueOp;
    };

    std::unique_ptr<Transport> owned_;
    Transport *inner_;
    FaultConfig cfg_;
    FaultStats stats_;
    Rng rng_;

    /** Operation clock: each send()/recv() call advances it; delayed
     *  packets are released when it passes their due op. */
    uint64_t op_ = 0;

    std::deque<Held> delayedTx_;
    std::deque<Held> delayedRx_;
    std::optional<Packet> reorderTx_;
    std::optional<Packet> reorderRx_;
};

} // namespace rose::bridge

#endif // ROSE_BRIDGE_FAULT_INJECT_HH
