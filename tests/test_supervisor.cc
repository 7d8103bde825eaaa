/**
 * @file
 * Tests for the mission supervisor (watchdog + checkpoint/retry) and
 * the degraded-mode fallback controller: a fault profile that kills an
 * unsupervised mission must complete under supervision; watchdogs
 * (position bound, wall clock) must trip and report; supervision must
 * be invisible on a clean run (golden hash); and a crashing batch slot
 * must not take down its neighbors.
 */

#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/batch.hh"
#include "core/cosim.hh"
#include "core/experiment.hh"
#include "core/supervisor.hh"
#include "golden_corpus.hh"
#include "util/hash.hh"

using namespace rose;
using namespace rose::core;

namespace {

/**
 * A fault profile hostile enough to abort an unsupervised mission:
 * with the sync-control protection off, a single dropped SyncGrant or
 * SyncDone stalls the lockstep and surfaces as a TransportError.
 */
bridge::FaultConfig
hostileFaults()
{
    bridge::FaultConfig f;
    f.enabled = true;
    f.protectSyncPackets = false;
    f.dropProb = 0.002;
    f.seed = 0xfa017;
    return f;
}

} // namespace

TEST(Supervisor, RecoversMissionThatAbortsUnsupervised)
{
    core::MissionSpec spec = test::goldenSpec("A");
    spec.maxSimSeconds = 6.0;
    spec.faults = hostileFaults();
    CosimConfig cfg = spec.toConfig();

    // Unsupervised: the first lost sync packet is fatal.
    MissionResult bare = runMission(spec);
    ASSERT_EQ(bare.status, MissionStatus::Crashed);
    EXPECT_FALSE(bare.failureReason.empty());
    EXPECT_LT(bare.missionTime, spec.maxSimSeconds);

    // Supervised: checkpoint every 20 periods, reroll the injector
    // seed on every retry so the same grant is not re-dropped.
    SupervisorConfig sup;
    sup.checkpointPeriods = 20;
    sup.checkpointRingSize = 4;
    sup.maxRetries = 50;
    sup.faultPolicy = FaultRetryPolicy::RerollSeed;
    MissionSupervisor supervisor(cfg, sup);
    MissionResult r = supervisor.run();

    EXPECT_NE(r.status, MissionStatus::Crashed)
        << "supervised mission still crashed: " << r.failureReason;
    // The mission ran to its simulated-time limit (the canonical
    // corridor takes longer than 6 s), not to an abort.
    EXPECT_GE(r.missionTime, spec.maxSimSeconds - 1e-9);
    EXPECT_GT(supervisor.stats().restores, 0u)
        << "the hostile profile never tripped — test is vacuous";
    EXPECT_GT(supervisor.stats().checkpointsTaken, 0u);
    EXPECT_LE(supervisor.stats().retriesUsed, sup.maxRetries);
}

TEST(Supervisor, DisablePolicyFinishesFirstRetry)
{
    core::MissionSpec spec = test::goldenSpec("A");
    spec.maxSimSeconds = 6.0;
    spec.faults = hostileFaults();
    CosimConfig cfg = spec.toConfig();

    SupervisorConfig sup;
    sup.checkpointPeriods = 20;
    sup.maxRetries = 3;
    sup.faultPolicy = FaultRetryPolicy::Disable;
    MissionSupervisor supervisor(cfg, sup);
    MissionResult r = supervisor.run();

    EXPECT_NE(r.status, MissionStatus::Crashed)
        << "clean retry still crashed: " << r.failureReason;
    EXPECT_GE(r.missionTime, spec.maxSimSeconds - 1e-9);
    // One failure, one clean rebuild: faults off means no second trip.
    EXPECT_LE(supervisor.stats().retriesUsed, 1);
}

TEST(Supervisor, CleanRunMatchesGoldenTrace)
{
    // Supervision (including periodic checkpoint capture) must be
    // bit-invisible on a mission that never trips a watchdog.
    constexpr uint64_t kGoldenA = 0x2b24ad514f06c3cbULL;

    CosimConfig cfg = test::goldenSpec("A").toConfig();
    SupervisorConfig sup;
    sup.checkpointPeriods = 100;
    MissionSupervisor supervisor(cfg, sup);
    MissionResult r = supervisor.run();

    EXPECT_EQ(r.status, MissionStatus::TimedOut); // corridor > 10 s
    EXPECT_EQ(supervisor.stats().restores, 0u);
    EXPECT_EQ(fnv1a(core::trajectoryCsvString(r)), kGoldenA)
        << "supervised clean run diverged from the golden trace";
}

TEST(Supervisor, PositionBoundWatchdogTripsAndExhausts)
{
    // A bound tighter than the corridor: flight deterministically
    // exceeds it, every restore replays into the same wall, and the
    // supervisor gives up with a diagnosis instead of looping forever.
    CosimConfig cfg = test::goldenSpec("A").toConfig();
    SupervisorConfig sup;
    sup.checkpointPeriods = 50;
    sup.maxRetries = 2;
    sup.positionBoundM = 5.0;
    MissionSupervisor supervisor(cfg, sup);
    MissionResult r = supervisor.run();

    EXPECT_EQ(r.status, MissionStatus::Crashed);
    EXPECT_NE(r.failureReason.find("position out of bounds"),
              std::string::npos)
        << r.failureReason;
    EXPECT_EQ(supervisor.stats().retriesUsed, 2);
    EXPECT_GT(supervisor.stats().restores, 0u);
}

TEST(Supervisor, WallClockBudgetCutsMissionOff)
{
    CosimConfig cfg = test::goldenSpec("A").toConfig();
    cfg.maxSimSeconds = 60.0;

    // Size the budget from this host: the same mission, unbudgeted,
    // flies the whole tunnel. A quarter of its wall time ends the
    // budgeted run well before completion however fast the host is.
    MissionResult full = MissionSupervisor(cfg, SupervisorConfig{}).run();
    ASSERT_EQ(full.status, MissionStatus::Completed);
    ASSERT_GT(full.wallSeconds, 0.0);

    SupervisorConfig sup;
    sup.wallClockBudgetSeconds = full.wallSeconds / 4.0;
    MissionSupervisor supervisor(cfg, sup);
    MissionResult r = supervisor.run();

    EXPECT_EQ(r.status, MissionStatus::TimedOut);
    EXPECT_NE(r.failureReason.find("wall-clock"), std::string::npos);
    EXPECT_LT(r.missionTime, full.missionTime);
}

TEST(Supervisor, DiskResumeMatchesUninterruptedRun)
{
    // Crash-recovery contract rosed leans on: a mission resumed from
    // a persisted checkpoint file (a previous incarnation's snapshot)
    // finishes with a trajectory bit-identical to an uninterrupted
    // run — restore is bit-exact and the remainder is deterministic.
    constexpr uint64_t kGoldenA = 0x2b24ad514f06c3cbULL;
    const std::string path = "supervisor_test_resume.ckpt";
    std::remove(path.c_str());

    CosimConfig cfg = test::goldenSpec("A").toConfig();
    {
        SupervisorConfig sup;
        sup.checkpointPeriods = 100;
        sup.snapshotObserver = [&path](const Checkpoint &ck) {
            writeCheckpointFile(path, ck);
        };
        MissionSupervisor first(cfg, sup);
        MissionResult r = first.run();
        ASSERT_GT(first.stats().checkpointsTaken, 0u);
        ASSERT_EQ(fnv1a(core::trajectoryCsvString(r)), kGoldenA);
        // The file now holds the last snapshot the "dead" incarnation
        // persisted; a real crash just stops the overwrites earlier.
    }

    SupervisorConfig sup;
    sup.checkpointPeriods = 100;
    sup.resumeFromPath = path;
    MissionSupervisor resumed(cfg, sup);
    MissionResult r = resumed.run();
    EXPECT_EQ(resumed.stats().diskResumes, 1u)
        << "resume silently fell back to a cold start";
    EXPECT_EQ(fnv1a(core::trajectoryCsvString(r)), kGoldenA)
        << "disk-resumed trajectory diverged from the golden trace";
    std::remove(path.c_str());
}

namespace {

/** A golden-A mission whose snapshot observer is @p observer. */
struct ObservedRun
{
    MissionResult result;
    SupervisorStats stats;
};

ObservedRun
runObserved(std::function<void(const Checkpoint &)> observer)
{
    SupervisorConfig sup;
    sup.checkpointPeriods = 100;
    sup.snapshotObserver = std::move(observer);
    MissionSupervisor supervisor(test::goldenSpec("A").toConfig(), sup);
    ObservedRun run;
    run.result = supervisor.run();
    run.stats = supervisor.stats();
    return run;
}

/** Two runs took the same recovery path. */
void
expectSameRecovery(const ObservedRun &a, const ObservedRun &b)
{
    EXPECT_EQ(a.result.status, b.result.status);
    EXPECT_EQ(a.stats.checkpointsTaken, b.stats.checkpointsTaken);
    EXPECT_EQ(a.stats.restores, b.stats.restores);
    EXPECT_EQ(a.stats.coldRestarts, b.stats.coldRestarts);
    EXPECT_EQ(a.stats.retriesUsed, b.stats.retriesUsed);
    ASSERT_EQ(a.stats.events.size(), b.stats.events.size());
    for (size_t i = 0; i < a.stats.events.size(); ++i)
        EXPECT_EQ(a.stats.events[i].period, b.stats.events[i].period);
    EXPECT_EQ(fnv1a(core::trajectoryCsvString(a.result)),
              fnv1a(core::trajectoryCsvString(b.result)));
}

} // namespace

TEST(Supervisor, ThrowingObserverFailsLikeAFailingDiskWrite)
{
    // The observer is where rosed writes a journaled job's checkpoint
    // file, so any throw from it must take the path a failing disk
    // write takes: a CheckpointError, a restore of the snapshot just
    // taken, and a retry.
    constexpr uint64_t kGoldenA = 0x2b24ad514f06c3cbULL;
    const std::string bad = "no_such_dir/supervisor_test.ckpt";
    const std::string good = "supervisor_test_observer.ckpt";

    // Every snapshot fails: the retries run out and the mission
    // crashes with the failure's message.
    ObservedRun disk = runObserved([&](const Checkpoint &ck) {
        writeCheckpointFile(bad, ck);
    });
    ObservedRun thrown = runObserved([](const Checkpoint &) {
        throw std::runtime_error("observer down");
    });
    EXPECT_EQ(disk.result.status, MissionStatus::Crashed);
    EXPECT_EQ(disk.stats.restores, 3u);
    EXPECT_EQ(disk.result.failureReason.rfind("checkpoint error: ", 0), 0u)
        << disk.result.failureReason;
    EXPECT_EQ(thrown.result.failureReason,
              "checkpoint error: observer down (after 3 recovery "
              "attempts)");
    expectSameRecovery(disk, thrown);

    // Only the first snapshot fails: one restore, then the golden
    // trajectory.
    int calls = 0;
    ObservedRun diskOnce = runObserved([&](const Checkpoint &ck) {
        writeCheckpointFile(calls++ == 0 ? bad : good, ck);
    });
    calls = 0;
    ObservedRun thrownOnce = runObserved([&](const Checkpoint &) {
        if (calls++ == 0)
            throw std::runtime_error("observer down");
    });
    std::remove(good.c_str());
    EXPECT_NE(diskOnce.result.status, MissionStatus::Crashed);
    EXPECT_EQ(diskOnce.stats.restores, 1u);
    EXPECT_EQ(fnv1a(core::trajectoryCsvString(diskOnce.result)), kGoldenA);
    expectSameRecovery(diskOnce, thrownOnce);
}

TEST(Supervisor, CorruptResumeFileFallsBackToColdStart)
{
    // resumeFromPath is best-effort by contract: garbage bytes (or a
    // checkpoint for a different config) must cost nothing but a log
    // note — never a failed mission, never an abort.
    constexpr uint64_t kGoldenA = 0x2b24ad514f06c3cbULL;
    const std::string path = "supervisor_test_corrupt.ckpt";
    {
        std::ofstream f(path, std::ios::binary);
        f << "ROSECKPT but not really \x01\x02\x03 garbage";
    }

    SupervisorConfig sup;
    sup.checkpointPeriods = 100;
    sup.resumeFromPath = path;
    MissionSupervisor supervisor(test::goldenSpec("A").toConfig(), sup);
    MissionResult r = supervisor.run();
    EXPECT_EQ(supervisor.stats().diskResumes, 0u);
    EXPECT_EQ(fnv1a(core::trajectoryCsvString(r)), kGoldenA)
        << "cold fallback diverged from the golden trace";
    std::remove(path.c_str());

    // A missing file is equally benign.
    sup.resumeFromPath = "no_such_checkpoint_anywhere.ckpt";
    MissionSupervisor missing(test::goldenSpec("A").toConfig(), sup);
    EXPECT_EQ(fnv1a(core::trajectoryCsvString(missing.run())),
              kGoldenA);
    EXPECT_EQ(missing.stats().diskResumes, 0u);
}

TEST(Supervisor, BadConfigurationIsNotRetried)
{
    CosimConfig cfg = test::goldenSpec("A").toConfig();
    cfg.env.worldName = "atlantis";
    MissionSupervisor supervisor(cfg, {});
    MissionResult r = supervisor.run();

    EXPECT_EQ(r.status, MissionStatus::Crashed);
    EXPECT_NE(r.failureReason.find("configuration error"),
              std::string::npos);
    EXPECT_EQ(supervisor.stats().retriesUsed, 0);
}

// ------------------------------------------------------- degraded mode

TEST(DegradedMode, SensorStarvationTripsClassicalFallback)
{
    // Heavy loss on the data plane (sync control protected): sensor
    // retries exhaust and the app drops to the classical controller
    // instead of stalling mid-corridor.
    core::MissionSpec spec = test::goldenSpec("A");
    spec.maxSimSeconds = 6.0;
    spec.degradedMode = true;
    spec.faults.enabled = true;
    spec.faults.dropProb = 0.35;
    spec.faults.protectSyncPackets = true;

    MissionResult r = runMission(spec);

    ASSERT_FALSE(r.degradedIntervals.empty())
        << "loss profile never exhausted the sensor retries";
    const runtime::DegradedInterval &d = r.degradedIntervals.front();
    EXPECT_EQ(d.reason, "sensor-timeout");
    EXPECT_GT(d.commands, 0u);
    EXPECT_GT(d.endCycle, d.startCycle);
    // Degraded flight still makes forward progress.
    EXPECT_GT(r.distanceTravelled, 1.0);
    if (r.completed()) {
        EXPECT_EQ(r.status, MissionStatus::Degraded);
    }
}

TEST(DegradedMode, DisabledByDefaultKeepsRetrying)
{
    core::MissionSpec spec = test::goldenSpec("A");
    spec.maxSimSeconds = 3.0;
    spec.faults.enabled = true;
    spec.faults.dropProb = 0.35;
    spec.faults.protectSyncPackets = true;

    MissionResult r = runMission(spec);
    EXPECT_TRUE(r.degradedIntervals.empty());
}

// ------------------------------------------------------ batch isolation

TEST(BatchIsolation, CrashingSlotDoesNotPoisonTheBatch)
{
    // Three missions on two worker threads; the middle one has an
    // invalid SoC name and crashes at construction. The batch must
    // return results for every slot.
    std::vector<core::MissionSpec> specs;
    for (int i = 0; i < 3; ++i) {
        core::MissionSpec s = test::goldenSpec("A");
        s.maxSimSeconds = 1.0;
        s.seed = uint64_t(i + 1);
        specs.push_back(s);
    }
    specs[1].socName = "Z";

    std::vector<MissionResult> results = runMissionBatch(specs, 2);
    ASSERT_EQ(results.size(), 3u);

    EXPECT_EQ(results[1].status, MissionStatus::Crashed);
    EXPECT_NE(results[1].failureReason.find("unknown SoC config"),
              std::string::npos);

    for (size_t i : {size_t(0), size_t(2)}) {
        SCOPED_TRACE(i);
        EXPECT_NE(results[i].status, MissionStatus::Crashed);
        EXPECT_GT(results[i].trajectory.size(), 0u);
        EXPECT_GT(results[i].missionTime, 0.9);
    }

    // Determinism: the surviving slots match their serial runs.
    MissionResult serial0 = runMission(specs[0]);
    EXPECT_EQ(core::trajectoryCsvString(results[0]),
              core::trajectoryCsvString(serial0));
}

TEST(BatchIsolation, MidMissionCrashStillReportsOtherSlots)
{
    // Slot 0 crashes *mid-mission* (unprotected sync traffic under
    // loss), not at construction; slot 1 is clean.
    std::vector<core::MissionSpec> specs;
    core::MissionSpec faulty = test::goldenSpec("A");
    faulty.maxSimSeconds = 6.0;
    faulty.faults.enabled = true;
    faulty.faults.protectSyncPackets = false;
    faulty.faults.dropProb = 0.002;
    specs.push_back(faulty);

    core::MissionSpec clean = test::goldenSpec("A");
    clean.maxSimSeconds = 1.0;
    specs.push_back(clean);

    std::vector<MissionResult> results = runMissionBatch(specs, 2);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, MissionStatus::Crashed);
    EXPECT_NE(results[1].status, MissionStatus::Crashed);
    EXPECT_GT(results[1].missionTime, 0.9);
}

TEST(MissionStatus, NamesAreStable)
{
    EXPECT_STREQ(missionStatusName(MissionStatus::Completed),
                 "completed");
    EXPECT_STREQ(missionStatusName(MissionStatus::TimedOut),
                 "timed-out");
    EXPECT_STREQ(missionStatusName(MissionStatus::Crashed), "crashed");
    EXPECT_STREQ(missionStatusName(MissionStatus::Degraded),
                 "degraded");
}
