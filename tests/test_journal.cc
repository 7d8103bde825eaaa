/**
 * @file
 * Durability-edge tests for the write-ahead job journal
 * (serve/journal.hh) plus the shared backoff helper (util/backoff.hh).
 *
 * The journal's contract under fire is what crash recovery stands on:
 * a torn tail (crash mid-append) or a corrupt record must truncate
 * recovery at the last intact record — never abort — while a header
 * from a different format or config fingerprint must be refused
 * outright. These tests drive byte-level damage (targeted and seeded)
 * through replayBytes() and full reopen cycles through JobJournal
 * itself.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "serve/journal.hh"
#include "util/backoff.hh"
#include "util/hash.hh"
#include "util/rng.hh"

using namespace rose;
using namespace rose::serve;

namespace {

core::MissionSpec
testSpec(uint64_t seed)
{
    core::MissionSpec spec;
    spec.world = "tunnel";
    spec.socName = "A";
    spec.modelDepth = 14;
    spec.velocity = 3.0;
    spec.initialYawDeg = 20.0;
    spec.seed = seed;
    spec.maxSimSeconds = 1.5;
    return spec;
}

/** A marshalled result whose trajectory has @p samples samples. */
ServedResult
testResult(size_t samples)
{
    core::MissionResult m;
    m.status = core::MissionStatus::TimedOut;
    m.failureReason = "simulated-time limit reached";
    m.missionTime = 1.5;
    m.collisions = 2;
    for (size_t i = 0; i < samples; ++i) {
        core::TrajectorySample t;
        t.time = 0.01 * double(i);
        t.position = {0.3 * double(i), 0.125, 1.5};
        t.speed = 3.0;
        t.collisions = i / 4;
        m.trajectory.push_back(t);
    }
    ServedResult r = marshalResult(m);
    r.queueWaitMs = 3.5;
    r.serviceMs = 42.0;
    return r;
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::vector<uint8_t> bytes;
    if (!f)
        return bytes;
    uint8_t buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
}

/** Fresh scratch dir per test: wipe any leftover journal state. */
std::string
scratchDir(const std::string &name)
{
    std::string dir = "journal_test_" + name;
    std::remove((dir + "/journal.wal").c_str());
    std::remove((dir + "/journal.wal.tmp").c_str());
    for (uint64_t id = 1; id <= 16; ++id)
        std::remove(
            (dir + "/job-" + std::to_string(id) + ".ckpt").c_str());
    return dir;
}

/** A journal with two submits, one Done terminal, one release. */
std::vector<uint8_t>
buildSampleJournal(const std::string &name, uint64_t fp,
                   std::string *wal_out = nullptr)
{
    std::string dir = scratchDir(name);
    JobJournal j(dir, fp);
    j.appendSubmit(1, "key-1", testSpec(1));
    j.appendSubmit(2, "key-2", testSpec(2));
    j.appendTerminal(1, JobState::Done, testResult(5));
    j.appendSubmit(3, "", testSpec(3));
    j.appendReleased(3);
    if (wal_out)
        *wal_out = j.walPath();
    return readFile(j.walPath());
}

} // namespace

// ---------------------------------------------------------- Backoff

TEST(Backoff, GrowsGeometricallyUpToCap)
{
    // Zero jitter makes the schedule deterministic.
    Backoff b({50, 400, 2.0, 0.0});
    EXPECT_EQ(b.nextDelayMs(), 50);
    EXPECT_EQ(b.nextDelayMs(), 100);
    EXPECT_EQ(b.nextDelayMs(), 200);
    EXPECT_EQ(b.nextDelayMs(), 400);
    EXPECT_EQ(b.nextDelayMs(), 400); // capped
    EXPECT_EQ(b.attempts(), 5);
    b.reset();
    EXPECT_EQ(b.attempts(), 0);
    EXPECT_EQ(b.nextDelayMs(), 50);
}

TEST(Backoff, JitterStaysWithinEnvelopeAndVaries)
{
    Backoff b({100, 1000, 2.0, 0.5}, 1234);
    std::set<int> seen;
    int expected_full = 100;
    for (int i = 0; i < 6; ++i) {
        int d = b.nextDelayMs();
        EXPECT_GE(d, std::max(1, expected_full / 2));
        EXPECT_LE(d, expected_full);
        seen.insert(d);
        expected_full = std::min(1000, expected_full * 2);
    }
    // Jittered delays should not all collapse to one value.
    EXPECT_GT(seen.size(), 1u);
}

TEST(Backoff, ClampsDegenerateConfig)
{
    Backoff b({-5, -10, 0.5, 7.0});
    for (int i = 0; i < 4; ++i) {
        int d = b.nextDelayMs();
        EXPECT_GE(d, 1);
        EXPECT_LE(d, 1);
    }
}

// ---------------------------------------------------------- Journal

TEST(Journal, FreshDirectoryReplaysEmpty)
{
    std::string dir = scratchDir("fresh");
    JobJournal j(dir, journalFingerprint());
    JournalReplay rep = j.takeReplay();
    EXPECT_TRUE(rep.jobs.empty());
    EXPECT_EQ(rep.recordsReplayed, 0u);
    EXPECT_FALSE(rep.recoveredFromCorruption);
}

TEST(Journal, RoundTripAcrossReopen)
{
    uint64_t fp = journalFingerprint();
    std::string dir = scratchDir("roundtrip");
    {
        JobJournal j(dir, fp);
        j.appendSubmit(1, "key-1", testSpec(1));
        j.appendSubmit(2, "key-2", testSpec(2));
        j.appendTerminal(1, JobState::Done, testResult(7));
        j.appendSubmit(3, "", testSpec(3));
        j.appendReleased(3);
    }
    JobJournal j2(dir, fp);
    JournalReplay rep = j2.takeReplay();
    ASSERT_EQ(rep.jobs.size(), 2u);
    EXPECT_EQ(rep.maxJobId, 3u);

    const RecoveredJob &done = rep.jobs[0];
    EXPECT_EQ(done.jobId, 1u);
    EXPECT_EQ(done.idempotencyKey, "key-1");
    EXPECT_TRUE(done.terminal);
    EXPECT_EQ(done.state, JobState::Done);
    // The records come back byte for byte, with both hashes: the
    // stored golden hash and the recomputed payload hash.
    ServedResult want = testResult(7);
    EXPECT_EQ(done.result.trajectoryRecords, want.trajectoryRecords);
    EXPECT_EQ(done.result.trajectorySamples, 7u);
    EXPECT_EQ(done.result.trajectoryHash, want.trajectoryHash);
    EXPECT_EQ(done.result.payloadHash, want.payloadHash);
    EXPECT_EQ(done.result.status, want.status);
    EXPECT_EQ(done.result.failureReason, want.failureReason);
    EXPECT_DOUBLE_EQ(done.result.serviceMs, 42.0);

    const RecoveredJob &queued = rep.jobs[1];
    EXPECT_EQ(queued.jobId, 2u);
    EXPECT_FALSE(queued.terminal);
    EXPECT_EQ(queued.spec.seed, 2u);
    EXPECT_EQ(queued.spec.world, "tunnel");
}

TEST(Journal, CompactionDropsReleasedJobs)
{
    uint64_t fp = journalFingerprint();
    std::string dir = scratchDir("compact");
    uint64_t before;
    {
        JobJournal j(dir, fp);
        j.appendSubmit(1, "k", testSpec(1));
        j.appendTerminal(1, JobState::Done, testResult(3));
        j.appendReleased(1);
        before = j.bytesOnDisk();
    }
    // Reopen compacts: the released job's records disappear.
    JobJournal j2(dir, fp);
    EXPECT_TRUE(j2.takeReplay().jobs.empty());
    EXPECT_LT(j2.bytesOnDisk(), before);
}

TEST(Journal, TruncatedTailRecoversPrefix)
{
    uint64_t fp = journalFingerprint();
    std::vector<uint8_t> bytes = buildSampleJournal("torntail", fp);
    // Tear the last record: drop the trailing 5 bytes (inside the
    // record hash), exactly what a crash mid-append leaves.
    std::vector<uint8_t> torn(bytes.begin(), bytes.end() - 5);
    size_t keep = 0;
    JournalReplay rep = JobJournal::replayBytes(torn, fp, keep);
    EXPECT_TRUE(rep.recoveredFromCorruption);
    EXPECT_LT(keep, torn.size());
    // Everything before the torn Released record survived: job 1
    // terminal, job 2 queued, job 3 still present (its release was
    // the torn record).
    ASSERT_EQ(rep.jobs.size(), 3u);
    EXPECT_TRUE(rep.jobs[0].terminal);
    EXPECT_FALSE(rep.jobs[1].terminal);
    EXPECT_EQ(rep.jobs[2].jobId, 3u);
}

TEST(Journal, TruncatedTailReopensCleanly)
{
    uint64_t fp = journalFingerprint();
    std::string wal;
    std::vector<uint8_t> bytes =
        buildSampleJournal("tornreopen", fp, &wal);
    bytes.resize(bytes.size() - 3);
    writeFile(wal, bytes);
    // The constructor must recover (truncate + compact), not abort.
    std::string dir = wal.substr(0, wal.rfind('/'));
    JobJournal j(dir, fp);
    JournalReplay rep = j.takeReplay();
    EXPECT_TRUE(rep.recoveredFromCorruption);
    EXPECT_EQ(rep.jobs.size(), 3u);
    // And the compacted journal replays identically next time.
    JobJournal j2(dir, fp);
    JournalReplay rep2 = j2.takeReplay();
    EXPECT_FALSE(rep2.recoveredFromCorruption);
    EXPECT_EQ(rep2.jobs.size(), 3u);
}

TEST(Journal, CorruptMidJournalRecordTruncatesFromThere)
{
    uint64_t fp = journalFingerprint();
    std::vector<uint8_t> bytes = buildSampleJournal("midflip", fp);

    // Flip one byte inside the second record's payload. The header
    // is 20 bytes; the first record starts right after it. Walk the
    // record framing to find the second record's payload start.
    size_t off = 20;
    auto recLen = [&](size_t at) {
        uint32_t len = 0;
        std::memcpy(&len, bytes.data() + at + 1, 4);
        return size_t(1 + 4 + len + 8);
    };
    size_t second = off + recLen(off);
    ASSERT_LT(second + 6, bytes.size());
    bytes[second + 6] ^= 0xff;

    size_t keep = 0;
    JournalReplay rep = JobJournal::replayBytes(bytes, fp, keep);
    EXPECT_TRUE(rep.recoveredFromCorruption);
    EXPECT_EQ(keep, second);
    // Only the first record (submit of job 1) survives; everything
    // after the damaged record is gone — never wrong, never fatal.
    ASSERT_EQ(rep.jobs.size(), 1u);
    EXPECT_EQ(rep.jobs[0].jobId, 1u);
    EXPECT_FALSE(rep.jobs[0].terminal);
}

TEST(Journal, FingerprintIsPinned)
{
    // Every journal header carries it. This is the value supervised
    // daemons wrote while rosed still had a bare-run flag, so their
    // journals replay unchanged.
    EXPECT_EQ(journalFingerprint(), 0xd5419f42ce643efdULL);
}

TEST(Journal, FingerprintMismatchIsRejected)
{
    uint64_t fp = journalFingerprint();
    std::string wal;
    buildSampleJournal("fpmismatch", fp, &wal);
    std::string dir = wal.substr(0, wal.rfind('/'));
    // A daemon with another fingerprint must refuse to reinterpret
    // this journal: here the one a bare-run daemon used, which no
    // daemon can open any more.
    EXPECT_THROW(JobJournal(dir, 0xd5419e42ce643d4aULL), JournalError);
    // The right fingerprint still opens it (job 3 was released, so
    // two jobs survive).
    {
        JobJournal ok(dir, fp);
        EXPECT_EQ(ok.takeReplay().jobs.size(), 2u);
    }
    // A version-1 header (the CSV-payload format) is refused too,
    // even when its fingerprint would match.
    std::vector<uint8_t> bytes = readFile(wal);
    ASSERT_GT(bytes.size(), 12u);
    bytes[8] = 1; // u32 version, little-endian, after the magic
    bytes[9] = bytes[10] = bytes[11] = 0;
    writeFile(wal, bytes);
    EXPECT_THROW(JobJournal(dir, fp), JournalError);
}

TEST(Journal, SeededDamageStopsAtLastIntactRecord)
{
    // Random truncations and single-bit flips of a real journal: the
    // header refuses (JournalError), a damaged record ends replay at
    // its own start, and a truncation keeps every whole record before
    // it — never a crash, never a record past the damage.
    uint64_t fp = journalFingerprint();
    const std::vector<uint8_t> clean = buildSampleJournal("fuzz", fp);
    const size_t header = 20;
    std::vector<size_t> bounds{header}; // record starts, then the end
    while (bounds.back() < clean.size()) {
        uint32_t len = 0;
        std::memcpy(&len, clean.data() + bounds.back() + 1, 4);
        bounds.push_back(bounds.back() + 1 + 4 + len + 8);
    }
    ASSERT_EQ(bounds.back(), clean.size());
    // Records wholly inside the first n bytes.
    auto recordsBefore = [&](size_t n) {
        size_t k = 0;
        while (k + 1 < bounds.size() && bounds[k + 1] <= n)
            ++k;
        return k;
    };

    for (uint64_t seed = 1; seed <= 400; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 0x2545f4914f6cdd1dULL);
        std::vector<uint8_t> bytes = clean;
        size_t at = 0;
        bool flip = rng.uniformInt(2) == 0;
        if (flip) {
            at = rng.uniformInt(bytes.size());
            bytes[at] ^= uint8_t(1u << rng.uniformInt(8));
        } else {
            at = rng.uniformInt(bytes.size());
            bytes.resize(at);
        }
        size_t keep = 0;
        if (flip && at < header) {
            EXPECT_THROW(JobJournal::replayBytes(bytes, fp, keep),
                         JournalError);
            continue;
        }
        JournalReplay rep;
        if (!flip && at < header) {
            // A torn header: nothing was journaled yet.
            rep = JobJournal::replayBytes(bytes, fp, keep);
            EXPECT_EQ(keep, 0u);
            EXPECT_TRUE(rep.jobs.empty());
            continue;
        }
        rep = JobJournal::replayBytes(bytes, fp, keep);
        size_t intact = recordsBefore(at);
        EXPECT_EQ(rep.recordsReplayed, intact);
        EXPECT_EQ(keep, bounds[intact]);
        EXPECT_EQ(rep.recoveredFromCorruption, keep < bytes.size());
    }
}

TEST(Journal, GarbageFileIsRejected)
{
    std::string dir = scratchDir("garbage");
    ::mkdir(dir.c_str(), 0755);
    std::vector<uint8_t> junk(64, 0x5a);
    writeFile(dir + "/journal.wal", junk);
    EXPECT_THROW(JobJournal(dir, journalFingerprint()),
                 JournalError);
}

TEST(Journal, TornHeaderRecoversAsEmpty)
{
    uint64_t fp = journalFingerprint();
    std::string wal;
    buildSampleJournal("tornheader", fp, &wal);
    std::string dir = wal.substr(0, wal.rfind('/'));
    // Keep only the first 6 bytes of the magic: a crash during the
    // very first header write. Recoverable (nothing was journaled
    // yet), not a format mismatch.
    std::vector<uint8_t> bytes = readFile(wal);
    bytes.resize(6);
    writeFile(wal, bytes);
    JobJournal j(dir, fp);
    JournalReplay rep = j.takeReplay();
    EXPECT_TRUE(rep.jobs.empty());
    EXPECT_TRUE(rep.recoveredFromCorruption);
}

TEST(Journal, CancelledTerminalReplaysAsTombstone)
{
    uint64_t fp = journalFingerprint();
    std::string dir = scratchDir("cancelled");
    {
        JobJournal j(dir, fp);
        j.appendSubmit(1, "k", testSpec(1));
        j.appendTerminal(1, JobState::Cancelled, ServedResult{});
    }
    JobJournal j2(dir, fp);
    JournalReplay rep = j2.takeReplay();
    ASSERT_EQ(rep.jobs.size(), 1u);
    EXPECT_TRUE(rep.jobs[0].terminal);
    EXPECT_EQ(rep.jobs[0].state, JobState::Cancelled);
}

TEST(Journal, CheckpointPathsLiveInTheJournalDir)
{
    std::string dir = scratchDir("ckptpath");
    JobJournal j(dir, journalFingerprint());
    EXPECT_EQ(j.checkpointPathFor(7), dir + "/job-7.ckpt");
    // removeCheckpoint of a nonexistent file is a harmless no-op.
    j.removeCheckpoint(7);
}
