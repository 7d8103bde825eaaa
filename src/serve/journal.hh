/**
 * @file
 * Write-ahead job journal: the durability layer under rosed.
 *
 * Without it, rosed's job table is purely in-memory: a daemon crash
 * loses every queued and running mission, and clients cannot tell a
 * lost submission from a slow one. The journal makes the serve path
 * crash-safe with one discipline — *journal before state transition*:
 *
 *   - SubmitMission appends a Submit record (job id, idempotency key,
 *     the spec in its wire form) before the job enters the queue.
 *   - A terminal transition (Done / Failed / Cancelled) appends a
 *     Terminal record carrying the full scalar result, the
 *     trajectory's binary records (the bytes a fetch streams), and
 *     the FNV-1a hash of its canonical CSV.
 *   - A hash-verified client ack (or retention eviction) appends a
 *     Released record.
 *
 * A restarted rosed replays the journal: released jobs vanish,
 * terminal jobs come back fetchable — and resumable — with
 * bit-identical bytes, and
 * jobs with no Terminal record re-enter the queue — warm-restored
 * from their per-job MissionSupervisor checkpoint
 * (`<dir>/job-<id>.ckpt`, ROSECKPT format) when one survives, cold
 * restarted otherwise. Either way the mission is deterministic, so
 * the recovered trajectory hash equals an uninterrupted run's.
 *
 * On-disk format (all little-endian, built on util/serde.hh):
 *
 *   header:  "ROSEJRNL" magic ·  u32 journal version ·
 *            u64 config fingerprint (journalFingerprint())
 *   record:  u8 type · u32 payload length · payload ·
 *            u64 FNV-1a(type · length · payload)
 *
 * Replay never aborts: a truncated tail or a record whose hash does
 * not match ends recovery at the last intact record (the file is
 * truncated back to that point — exactly what a crash mid-append
 * leaves behind). A header whose magic/version/fingerprint mismatch
 * (a version-1 journal, which stored the CSV, included)
 * throws JournalError: that journal belongs to a different format or
 * configuration and silently reinterpreting it could replay wrong
 * results. Opening also compacts: surviving records are rewritten to
 * a temp file which is renamed over the journal, so released jobs
 * stop costing disk across restarts.
 *
 * Appends are fwrite + fflush under an internal mutex — durable
 * against process death (the bytes live in the page cache once
 * flushed, SIGKILL included). `fsync_each` upgrades that to
 * power-loss durability at a large latency cost (see bench_serve's
 * journal sweep).
 */

#ifndef ROSE_SERVE_JOURNAL_HH
#define ROSE_SERVE_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "serve/proto.hh"

namespace rose::serve {

/**
 * Unrecoverable journal problems: not a journal file, or one written
 * by an incompatible format/config. Never thrown for torn or corrupt
 * records — those truncate recovery instead.
 */
class JournalError : public std::runtime_error
{
  public:
    explicit JournalError(const std::string &what)
        : std::runtime_error(what) {}
};

/** One job reconstructed by replay. */
struct RecoveredJob
{
    uint64_t jobId = 0;
    std::string idempotencyKey;
    core::MissionSpec spec;
    /** True when a Terminal record was recovered. */
    bool terminal = false;
    /** Done / Failed / Cancelled when terminal. */
    JobState state = JobState::Queued;
    /** The journaled result: scalars, records and both hashes. */
    ServedResult result;
};

/** Outcome of the open-time replay. */
struct JournalReplay
{
    /** Surviving jobs, in submit order. */
    std::vector<RecoveredJob> jobs;
    uint64_t maxJobId = 0;
    /** Intact records applied (including ones later superseded). */
    uint64_t recordsReplayed = 0;
    /** Bytes cut off the tail by torn/corrupt-record recovery. */
    uint64_t truncatedBytes = 0;
    /** True when recovery had to truncate a torn/corrupt tail. */
    bool recoveredFromCorruption = false;
};

/**
 * Fingerprint stored in the journal header: hashes the journal
 * format version, the spec codec version and the checkpoint format
 * version (and a constant true where an execution-mode flag once
 * sat), so a journal is only ever replayed by a daemon that would
 * interpret it identically.
 */
uint64_t journalFingerprint();

/** The write-ahead job journal (see file comment for the format). */
class JobJournal
{
  public:
    /**
     * Open (creating the directory and file as needed), replay, and
     * compact `<dir>/journal.wal`.
     * @throws JournalError on magic/version/fingerprint mismatch or
     * when the directory/file cannot be created.
     */
    JobJournal(std::string dir, uint64_t config_fingerprint,
               bool fsync_each = false);
    ~JobJournal();

    JobJournal(const JobJournal &) = delete;
    JobJournal &operator=(const JobJournal &) = delete;

    /** Replay outcome of this open (moves the recovered jobs out). */
    JournalReplay takeReplay() { return std::move(replay_); }

    // Appends. Each throws JournalError if the write fails (callers
    // decide whether that is fatal; rosed rejects the submission).
    void appendSubmit(uint64_t job_id, const std::string &idem_key,
                      const core::MissionSpec &spec);
    void appendTerminal(uint64_t job_id, JobState state,
                        const ServedResult &result);
    void appendReleased(uint64_t job_id);

    /** Where this job's supervisor checkpoint ring persists. */
    std::string checkpointPathFor(uint64_t job_id) const;
    /** Best-effort removal of a job's checkpoint file. */
    void removeCheckpoint(uint64_t job_id) const;

    const std::string &dir() const { return dir_; }
    std::string walPath() const;
    /** Journal file size after the last append [bytes]. */
    uint64_t bytesOnDisk() const;

    /** Version 2 stores binary records in Terminal records (version
     *  1 stored the canonical CSV), drops the `completed` flag, and
     *  extends each record hash over the type and length bytes. */
    static constexpr uint32_t kVersion = 2;

    /**
     * Parse journal bytes (header included) into a replay. Exposed
     * for tests; JobJournal's constructor uses exactly this.
     * @param[out] keep_bytes how many leading file bytes survived.
     */
    static JournalReplay replayBytes(const std::vector<uint8_t> &bytes,
                                     uint64_t config_fingerprint,
                                     size_t &keep_bytes);

  private:
    void appendRecord(uint8_t type,
                      const std::vector<uint8_t> &payload);

    std::string dir_;
    uint64_t fingerprint_ = 0;
    bool fsync_ = false;
    std::FILE *f_ = nullptr;
    mutable std::mutex mu_;
    uint64_t bytes_ = 0;
    JournalReplay replay_;
};

} // namespace rose::serve

#endif // ROSE_SERVE_JOURNAL_HH
