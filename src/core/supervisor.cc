#include "supervisor.hh"

#include <chrono>
#include <stdexcept>

#include "util/logging.hh"
#include "util/serde.hh"

namespace rose::core {

namespace {

/** Golden-ratio increment: decorrelates per-retry injector seeds. */
constexpr uint64_t kSeedIncrement = 0x9e3779b97f4a7c15ULL;

} // namespace

MissionSupervisor::MissionSupervisor(const CosimConfig &cfg,
                                     const SupervisorConfig &sup)
    : cfg_(cfg), sup_(sup),
      ring_(sup.checkpointRingSize ? sup.checkpointRingSize : 1)
{
}

MissionSupervisor::~MissionSupervisor() = default;

void
MissionSupervisor::note(uint64_t period, std::string what)
{
    rose_inform("supervisor [period ", period, "]: ", what);
    stats_.events.push_back({period, std::move(what)});
}

void
MissionSupervisor::rebuild()
{
    sim_ = std::make_unique<CoSimulation>(cfg_);
}

void
MissionSupervisor::maybeCheckpoint()
{
    if (sup_.checkpointPeriods == 0 || !sim_->checkpointable())
        return;
    if (sim_->periods() % sup_.checkpointPeriods != 0)
        return;
    ring_.push(sim_->checkpoint());
    ++stats_.checkpointsTaken;
    if (!sup_.snapshotObserver)
        return;
    try {
        sup_.snapshotObserver(ring_.latest());
    } catch (const std::exception &e) {
        throw CheckpointError(e.what());
    }
}

bool
MissionSupervisor::adjustForRetry(bool transport_failure)
{
    bool cold = false;
    if (sup_.faultPolicy == FaultRetryPolicy::Disable &&
        cfg_.faults.enabled) {
        // The injector is baked into the transport stack at
        // construction; dropping it means rebuilding. The checkpoint's
        // Faults section is simply skipped on restore.
        cfg_.faults.enabled = false;
        cold = true;
        note(sim_ ? sim_->periods() : 0,
             "fault injection disabled for retry");
    }
    if (transport_failure && cfg_.transport == TransportKind::Tcp &&
        sup_.fallbackToInProc) {
        cfg_.transport = TransportKind::InProcess;
        cold = true;
        note(sim_ ? sim_->periods() : 0,
             "transport fallback: tcp -> in-process");
    }
    return cold;
}

MissionResult
MissionSupervisor::run()
{
    auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&t0] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    // Cross-process warm start: seed the ring from a snapshot a
    // previous incarnation persisted and restore it, so the mission
    // continues from where that process died instead of replaying
    // from zero. Restore is bit-exact (trajectory-so-far included),
    // so the final trace is identical to an uninterrupted run.
    if (!sup_.resumeFromPath.empty()) {
        try {
            Checkpoint ck = readCheckpointFile(sup_.resumeFromPath);
            rebuild();
            if (sim_->checkpointable()) {
                sim_->restore(ck);
                ring_.push(std::move(ck));
                ++stats_.diskResumes;
                note(sim_->periods(),
                     "resumed from disk checkpoint " +
                         sup_.resumeFromPath);
            } else {
                note(0, "disk checkpoint ignored: transport is not "
                        "checkpointable; cold start");
            }
        } catch (const std::exception &e) {
            note(0, std::string("disk resume unavailable (") +
                        e.what() + "); cold start");
            sim_.reset();
        }
    }

    std::string last_failure;
    while (true) {
        bool transport_failure = false;
        try {
            if (!sim_)
                rebuild();

            while (sim_->environment().simTime() < cfg_.maxSimSeconds) {
                if (sup_.wallClockBudgetSeconds > 0.0 &&
                    elapsed() > sup_.wallClockBudgetSeconds) {
                    note(sim_->periods(), "wall-clock budget exhausted");
                    MissionResult r = sim_->collectResult();
                    r.status = MissionStatus::TimedOut;
                    r.failureReason =
                        "wall-clock budget exhausted (" +
                        std::to_string(sup_.wallClockBudgetSeconds) +
                        " s)";
                    r.wallSeconds = elapsed();
                    return r;
                }

                sim_->stepPeriod();

                if (sup_.positionBoundM > 0.0) {
                    Vec3 p = sim_->environment().kinematics().position;
                    if (p.norm() > sup_.positionBoundM)
                        throw env::DivergenceError(
                            "position out of bounds: |p| = " +
                            std::to_string(p.norm()) + " m exceeds " +
                            std::to_string(sup_.positionBoundM) + " m");
                }

                maybeCheckpoint();

                if (sim_->environment().missionComplete())
                    break;
            }

            MissionResult r = sim_->collectResult();
            r.wallSeconds = elapsed();
            return r;
        } catch (const bridge::TransportError &e) {
            transport_failure = true;
            last_failure = std::string("transport error: ") + e.what();
        } catch (const bridge::PayloadError &e) {
            last_failure = std::string("payload error: ") + e.what();
        } catch (const env::DivergenceError &e) {
            last_failure = std::string("divergence: ") + e.what();
        } catch (const SerdeError &e) {
            last_failure = std::string("serde error: ") + e.what();
        } catch (const CheckpointError &e) {
            last_failure = std::string("checkpoint error: ") + e.what();
        } catch (const std::invalid_argument &e) {
            // Bad configuration (unknown world/vehicle/SoC): retrying
            // cannot help.
            MissionResult r;
            r.status = MissionStatus::Crashed;
            r.failureReason =
                std::string("configuration error: ") + e.what();
            r.wallSeconds = elapsed();
            return r;
        }

        rose_warn("supervisor caught mission failure: ", last_failure);

        if (stats_.retriesUsed >= sup_.maxRetries) {
            note(sim_ ? sim_->periods() : 0,
                 "retries exhausted: " + last_failure);
            MissionResult r =
                sim_ ? sim_->collectResult() : MissionResult{};
            r.status = MissionStatus::Crashed;
            r.failureReason = last_failure + " (after " +
                              std::to_string(stats_.retriesUsed) +
                              " recovery attempts)";
            r.wallSeconds = elapsed();
            return r;
        }
        ++stats_.retriesUsed;

        bool cold = adjustForRetry(transport_failure);
        try {
            if (cold)
                sim_.reset();
            if (!sim_)
                rebuild();

            // Prefer a warm restore from the ring; fall back through
            // older snapshots if the newest refuses to load, and to a
            // cold restart when none is usable.
            bool restored = false;
            while (!ring_.empty() && sim_->checkpointable()) {
                try {
                    sim_->restore(ring_.latest());
                    restored = true;
                    ++stats_.restores;
                    note(sim_->periods(), "restored checkpoint @ " +
                                              std::to_string(
                                                  ring_.latest().period) +
                                              " after " + last_failure);
                    break;
                } catch (const std::exception &e) {
                    note(sim_->periods(),
                         std::string("checkpoint restore failed, "
                                     "dropping snapshot: ") +
                             e.what());
                    ring_.dropLatest();
                }
            }
            if (!restored) {
                // The live instance went through a failure and cannot
                // be rewound; restart the mission from scratch.
                if (!cold)
                    sim_.reset();
                if (!sim_)
                    rebuild();
                ++stats_.coldRestarts;
                note(0, "cold restart after " + last_failure);
            }

            if (sup_.faultPolicy == FaultRetryPolicy::RerollSeed) {
                if (bridge::FaultInjectTransport *f =
                        sim_->faultInjector()) {
                    uint64_t seed =
                        cfg_.faults.seed +
                        kSeedIncrement * uint64_t(stats_.retriesUsed);
                    f->reseed(seed);
                    note(sim_->periods(),
                         "fault injector reseeded for retry " +
                             std::to_string(stats_.retriesUsed));
                }
            }
        } catch (const std::exception &e) {
            // Recovery itself failed (e.g. transport rebuild error):
            // report what we know rather than throwing out of run().
            MissionResult r =
                sim_ ? sim_->collectResult() : MissionResult{};
            r.status = MissionStatus::Crashed;
            r.failureReason = last_failure +
                              "; recovery failed: " + e.what();
            r.wallSeconds = elapsed();
            return r;
        }
    }
}

} // namespace rose::core
