#include "journal.hh"

#include <cerrno>
#include <cstring>

#include <sys/stat.h>
#include <unistd.h>

#include "core/checkpoint.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "util/serde.hh"

namespace rose::serve {

namespace {

/** 8-byte file magic, sibling of the checkpoint's "ROSECKPT". */
constexpr char kMagic[8] = {'R', 'O', 'S', 'E', 'J', 'R', 'N', 'L'};

constexpr size_t kHeaderBytes = sizeof(kMagic) + 4 + 8;

/** u8 type + u32 length before, u64 hash after the payload. The
 *  hash covers type, length and payload, so no damaged byte can turn
 *  a record into a different intact one. */
constexpr size_t kRecordOverheadBytes = 1 + 4 + 8;

/**
 * Sanity bound on one record's payload: the largest legitimate
 * record is a Terminal carrying the trajectory records, themselves
 * bounded by the client-side reassembly guard.
 */
constexpr size_t kMaxRecordPayloadBytes =
    kMaxAssembledTrajectoryBytes + (1u << 20);

enum RecordType : uint8_t
{
    kRecSubmit = 1,
    kRecTerminal = 2,
    kRecReleased = 3,
};

/** Append one framed record (see kRecordOverheadBytes). */
void
writeRecord(StateWriter &w, uint8_t type,
            const std::vector<uint8_t> &payload)
{
    size_t start = w.size();
    w.u8(type);
    w.u32(uint32_t(payload.size()));
    w.bytes(payload.data(), payload.size());
    w.u64(fnv1a(w.data().data() + start, w.size() - start));
}

std::vector<uint8_t>
headerBytes(uint64_t fingerprint)
{
    StateWriter w;
    w.bytes(reinterpret_cast<const uint8_t *>(kMagic),
            sizeof(kMagic));
    w.u32(JobJournal::kVersion);
    w.u64(fingerprint);
    return w.take();
}

/** The Terminal record's result: ResultEnd's scalar block, then the
 *  trajectory records and the golden CSV hash. */
void
writeServedResult(StateWriter &w, const ServedResult &s)
{
    writeResultScalars(w, s);
    w.u32(uint32_t(s.trajectoryRecords.size()));
    w.bytes(s.trajectoryRecords.data(), s.trajectoryRecords.size());
    w.u64(s.trajectoryHash);
}

ServedResult
readServedResult(StateReader &r)
{
    ServedResult s;
    readResultScalars(r, s);
    uint32_t n = r.u32();
    if (n != uint64_t(s.trajectorySamples) * kTrajectoryBinaryRecordBytes)
        throw SerdeError("terminal record trajectory size disagrees "
                         "with its sample count");
    r.bytes(s.trajectoryRecords, n);
    s.trajectoryHash = r.u64();
    // Recomputed, not stored: the record hash already covers these
    // bytes, and a replayed job then streams, resumes and acks like
    // any other.
    s.payloadHash =
        fnv1a(s.trajectoryRecords.data(), s.trajectoryRecords.size());
    return s;
}

std::vector<uint8_t>
encodeSubmitPayload(uint64_t job_id, const std::string &idem_key,
                    const core::MissionSpec &spec)
{
    // The spec (key included) rides in its SubmitMission wire form,
    // so the journal reuses the protocol codec's validation and
    // version handling verbatim on replay.
    Message m = encodeSubmitMission(spec, idem_key);
    StateWriter w;
    w.u64(job_id);
    w.u32(uint32_t(m.payload.size()));
    w.bytes(m.payload.data(), m.payload.size());
    return w.take();
}

std::vector<uint8_t>
encodeTerminalPayload(uint64_t job_id, JobState state,
                      const ServedResult &result)
{
    StateWriter w;
    w.u64(job_id);
    w.u8(uint8_t(state));
    writeServedResult(w, result);
    return w.take();
}

std::vector<uint8_t>
encodeReleasedPayload(uint64_t job_id)
{
    StateWriter w;
    w.u64(job_id);
    return w.take();
}

/**
 * Apply one intact record to the replay state. Unknown job ids in
 * Terminal/Released records are tolerated (they can only appear in
 * journals hand-edited or compacted by a newer version).
 */
void
applyRecord(uint8_t type, const uint8_t *payload, size_t n,
            JournalReplay &rep)
{
    std::vector<RecoveredJob> &jobs = rep.jobs;
    StateReader r(payload, n);
    switch (type) {
      case kRecSubmit: {
        RecoveredJob job;
        job.jobId = r.u64();
        // Track the high-water id across ALL submits — released jobs
        // included — so a restarted daemon never reuses an id a past
        // client may still reference.
        rep.maxJobId = std::max(rep.maxJobId, job.jobId);
        Message m;
        m.type = MsgType::SubmitMission;
        r.bytes(m.payload, r.u32());
        SubmitRequest req = decodeSubmitRequest(m);
        job.spec = std::move(req.spec);
        job.idempotencyKey = std::move(req.idempotencyKey);
        for (const RecoveredJob &existing : jobs)
            if (existing.jobId == job.jobId)
                return; // duplicate submit: first one wins
        jobs.push_back(std::move(job));
        return;
      }
      case kRecTerminal: {
        uint64_t id = r.u64();
        uint8_t state = r.u8();
        if (state != uint8_t(JobState::Done) &&
            state != uint8_t(JobState::Failed) &&
            state != uint8_t(JobState::Cancelled))
            throw SerdeError("terminal record with non-terminal "
                             "state byte");
        ServedResult result = readServedResult(r);
        for (RecoveredJob &job : jobs) {
            if (job.jobId != id)
                continue;
            job.terminal = true;
            job.state = JobState(state);
            job.result = std::move(result);
            return;
        }
        return;
      }
      case kRecReleased: {
        uint64_t id = r.u64();
        for (size_t i = 0; i < jobs.size(); ++i) {
            if (jobs[i].jobId == id) {
                jobs.erase(jobs.begin() + std::ptrdiff_t(i));
                return;
            }
        }
        return;
      }
    }
    throw SerdeError("unknown journal record type");
}

} // namespace

uint64_t
journalFingerprint()
{
    StateWriter w;
    w.u32(JobJournal::kVersion);
    w.u8(kSpecCodecVersion);
    w.u32(core::Checkpoint::kVersion);
    // The slot of the retired execution-mode flag: every job was and
    // is supervised, so fingerprints and journals stay as they were.
    w.boolean(true);
    const std::vector<uint8_t> &b = w.data();
    return fnv1a(b.data(), b.size());
}

JournalReplay
JobJournal::replayBytes(const std::vector<uint8_t> &bytes,
                        uint64_t config_fingerprint,
                        size_t &keep_bytes)
{
    JournalReplay rep;
    keep_bytes = 0;
    if (bytes.empty())
        return rep;

    std::vector<uint8_t> want = headerBytes(config_fingerprint);
    if (bytes.size() < kHeaderBytes) {
        // A header torn by a crash during creation is recoverable
        // (start fresh); anything else is not our file.
        if (std::memcmp(bytes.data(), want.data(), bytes.size()) != 0)
            throw JournalError("journal header is not ROSEJRNL");
        rep.recoveredFromCorruption = true;
        return rep;
    }
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        throw JournalError("journal header is not ROSEJRNL");
    StateReader hdr(bytes.data() + sizeof(kMagic),
                    kHeaderBytes - sizeof(kMagic));
    uint32_t version = hdr.u32();
    if (version != kVersion)
        throw JournalError(detail::concat(
            "journal version ", version, " != supported ", kVersion));
    uint64_t fp = hdr.u64();
    if (fp != config_fingerprint)
        throw JournalError(detail::concat(
            "journal config fingerprint ", std::hex, fp,
            " does not match this daemon's ", config_fingerprint,
            " — refusing to replay a journal written under a "
            "different configuration"));

    size_t pos = kHeaderBytes;
    keep_bytes = pos;
    while (pos < bytes.size()) {
        size_t avail = bytes.size() - pos;
        if (avail < 1 + 4)
            break; // torn record header
        StateReader head(bytes.data() + pos, 1 + 4);
        uint8_t type = head.u8();
        uint32_t len = head.u32();
        if (type < kRecSubmit || type > kRecReleased)
            break; // corrupt type byte
        if (len > kMaxRecordPayloadBytes)
            break; // corrupt length
        if (avail < kRecordOverheadBytes + size_t(len))
            break; // torn payload/hash
        const uint8_t *payload = bytes.data() + pos + 5;
        StateReader tail(payload + len, 8);
        if (tail.u64() != fnv1a(bytes.data() + pos, 5 + size_t(len)))
            break; // corrupt record
        try {
            applyRecord(type, payload, len, rep);
        } catch (const std::exception &) {
            // Hash-intact but semantically unreadable (e.g. a spec
            // codec from the future): stop here, keep the prefix.
            break;
        }
        rep.recordsReplayed++;
        pos += kRecordOverheadBytes + len;
        keep_bytes = pos;
    }
    if (keep_bytes < bytes.size()) {
        rep.truncatedBytes = bytes.size() - keep_bytes;
        rep.recoveredFromCorruption = true;
    }
    return rep;
}

JobJournal::JobJournal(std::string dir, uint64_t config_fingerprint,
                       bool fsync_each)
    : dir_(std::move(dir)), fingerprint_(config_fingerprint),
      fsync_(fsync_each)
{
    if (dir_.empty())
        throw JournalError("journal directory must be non-empty");
    if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST)
        throw JournalError(detail::concat(
            "cannot create journal directory ", dir_, ": ",
            std::strerror(errno)));

    // Read + replay whatever a previous incarnation left behind.
    std::vector<uint8_t> bytes;
    if (std::FILE *in = std::fopen(walPath().c_str(), "rb")) {
        char buf[1 << 16];
        size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0)
            bytes.insert(bytes.end(), buf, buf + n);
        std::fclose(in);
    }
    size_t keep = 0;
    replay_ = replayBytes(bytes, fingerprint_, keep);

    // Compact: rewrite only the surviving jobs' records, atomically
    // (tmp + rename), which also truncates any torn/corrupt tail.
    std::string tmp = walPath() + ".tmp";
    std::FILE *out = std::fopen(tmp.c_str(), "wb");
    if (!out)
        throw JournalError(detail::concat(
            "cannot create journal ", tmp, ": ",
            std::strerror(errno)));
    StateWriter w;
    w.bytes(headerBytes(fingerprint_).data(), kHeaderBytes);
    for (const RecoveredJob &job : replay_.jobs) {
        writeRecord(w, kRecSubmit,
                    encodeSubmitPayload(job.jobId, job.idempotencyKey,
                                        job.spec));
        if (job.terminal)
            writeRecord(w, kRecTerminal,
                        encodeTerminalPayload(job.jobId, job.state,
                                              job.result));
    }
    const std::vector<uint8_t> &img = w.data();
    bool ok = std::fwrite(img.data(), 1, img.size(), out) ==
                  img.size() &&
              std::fflush(out) == 0 && ::fsync(fileno(out)) == 0;
    std::fclose(out);
    if (!ok || std::rename(tmp.c_str(), walPath().c_str()) != 0) {
        std::remove(tmp.c_str());
        throw JournalError(detail::concat(
            "cannot write journal ", walPath(), ": ",
            std::strerror(errno)));
    }
    bytes_ = img.size();

    f_ = std::fopen(walPath().c_str(), "ab");
    if (!f_)
        throw JournalError(detail::concat(
            "cannot open journal ", walPath(), " for append: ",
            std::strerror(errno)));
}

JobJournal::~JobJournal()
{
    if (f_)
        std::fclose(f_);
}

void
JobJournal::appendRecord(uint8_t type,
                         const std::vector<uint8_t> &payload)
{
    StateWriter w;
    writeRecord(w, type, payload);
    const std::vector<uint8_t> &rec = w.data();

    std::lock_guard<std::mutex> lk(mu_);
    bool ok = std::fwrite(rec.data(), 1, rec.size(), f_) ==
                  rec.size() &&
              std::fflush(f_) == 0;
    if (ok && fsync_)
        ok = ::fsync(fileno(f_)) == 0;
    if (!ok)
        throw JournalError(detail::concat(
            "journal append failed: ", std::strerror(errno)));
    bytes_ += rec.size();
}

void
JobJournal::appendSubmit(uint64_t job_id, const std::string &idem_key,
                         const core::MissionSpec &spec)
{
    appendRecord(kRecSubmit,
                 encodeSubmitPayload(job_id, idem_key, spec));
}

void
JobJournal::appendTerminal(uint64_t job_id, JobState state,
                           const ServedResult &result)
{
    appendRecord(kRecTerminal,
                 encodeTerminalPayload(job_id, state, result));
}

void
JobJournal::appendReleased(uint64_t job_id)
{
    appendRecord(kRecReleased, encodeReleasedPayload(job_id));
}

std::string
JobJournal::checkpointPathFor(uint64_t job_id) const
{
    return dir_ + "/job-" + std::to_string(job_id) + ".ckpt";
}

void
JobJournal::removeCheckpoint(uint64_t job_id) const
{
    const std::string path = checkpointPathFor(job_id);
    std::remove(path.c_str());
    // A crash between the checkpoint's write-aside and its rename can
    // leave the temporary behind; reap it with the job.
    std::remove((path + ".tmp").c_str());
}

std::string
JobJournal::walPath() const
{
    return dir_ + "/journal.wal";
}

uint64_t
JobJournal::bytesOnDisk() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return bytes_;
}

} // namespace rose::serve
