#include "checkpoint.hh"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/cosim.hh"
#include "util/serde.hh"

namespace rose::core {

namespace {

constexpr char kMagic[8] = {'R', 'O', 'S', 'E', 'C', 'K', 'P', 'T'};

/** The file's FNV-1a: the header up to the hash field (magic, version,
 *  period, simTime, fingerprint), then everything after it (blob
 *  length and blob). */
uint64_t
fileHash(const uint8_t *head, size_t head_n, const uint8_t *tail,
         size_t tail_n)
{
    return fnv1a(tail, tail_n, fnv1a(head, head_n));
}

} // namespace

uint64_t
configFingerprint(const CosimConfig &cfg)
{
    // Serialize the determinism-relevant fields through the same
    // little-endian writer the checkpoint uses, then hash the bytes.
    // Fault injection, transport kind, maxSimSeconds, the sync
    // deadline, and the sensor timeout (defaulted from fault config)
    // are deliberately excluded: the supervisor mutates those between
    // capture and restore.
    StateWriter w;
    w.str(cfg.env.worldName);
    w.str(cfg.env.vehicleName);
    w.f64(cfg.env.frameHz);
    w.u32(uint32_t(cfg.env.physicsSubsteps));
    w.u64(cfg.env.seed);
    w.f64(cfg.env.initialPosition.x);
    w.f64(cfg.env.initialPosition.y);
    w.f64(cfg.env.initialPosition.z);
    w.f64(cfg.env.initialYawDeg);
    w.f64(cfg.env.cruiseAltitude);
    w.u32(uint32_t(cfg.env.obstacles.size()));
    w.f64(cfg.env.turbulenceForceStd);

    w.str(cfg.soc.name);
    w.boolean(cfg.soc.hasGemmini);
    w.f64(cfg.soc.clockHz);

    w.u64(cfg.sync.cyclesPerSync);
    w.f64(cfg.sync.clocks.socClockHz);
    w.f64(cfg.sync.clocks.envFrameHz);

    w.u8(uint8_t(cfg.app.mode));
    w.u32(uint32_t(cfg.app.modelDepth));
    w.u32(uint32_t(cfg.app.smallModelDepth));
    w.u64(cfg.app.seed);
    w.f64(cfg.app.policy.forwardVelocity);
    w.f64(cfg.app.policy.betaLateral);
    w.f64(cfg.app.policy.betaYaw);
    w.boolean(cfg.app.policy.argmaxPolicy);
    w.boolean(cfg.app.degraded.enabled);

    w.boolean(cfg.background.enabled);
    w.u64(cfg.samplePeriods);

    return fnv1a(w.data().data(), w.size());
}

const Checkpoint &
CheckpointRing::latest() const
{
    if (ring_.empty())
        throw CheckpointError("checkpoint ring is empty");
    return ring_.back();
}

const Checkpoint &
CheckpointRing::oldest() const
{
    if (ring_.empty())
        throw CheckpointError("checkpoint ring is empty");
    return ring_.front();
}

std::vector<uint8_t>
materializeV1State(const Checkpoint &ck)
{
    if (ck.trajectory.empty())
        return ck.state;

    size_t total = 0;
    for (const TrajectoryChunk &c : ck.trajectory)
        total += c->size();

    // Copy the sections through, appending the samples to the Cosim
    // section, whose last field is their count.
    StateWriter w;
    w.reserve(ck.state.size() + total * sizeof(TrajectorySample));
    StateReader r(ck.state);
    bool spliced = false;
    while (r.remaining() > 0) {
        const size_t at = r.pos();
        const auto tag = CkptSection(r.u8());
        const uint32_t len = r.u32();
        r.skip(len);
        w.bytes(ck.state.data() + at, 5 + size_t(len));
        if (tag != CkptSection::Cosim || spliced)
            continue;
        if (len < 4)
            throw CheckpointError("Cosim section has no sample count");
        StateReader count(ck.state.data() + at + 5 + len - 4, 4);
        if (count.u32() != total)
            throw CheckpointError(
                "trajectory chunks hold " + std::to_string(total) +
                " samples; the Cosim section records a different count");
        for (const TrajectoryChunk &c : ck.trajectory)
            w.bytes(reinterpret_cast<const uint8_t *>(c->data()),
                    c->size() * sizeof(TrajectorySample));
        w.patchU32(at + 1,
                   uint32_t(len + total * sizeof(TrajectorySample)));
        spliced = true;
    }
    if (!spliced)
        throw CheckpointError("checkpoint state lacks its Cosim section");
    return w.take();
}

void
writeCheckpointFile(const std::string &path, const Checkpoint &ck)
{
    StateWriter head;
    head.bytes(reinterpret_cast<const uint8_t *>(kMagic), sizeof(kMagic));
    head.u32(Checkpoint::kFileVersion);
    head.u64(ck.period);
    head.f64(ck.simTime);
    head.u64(ck.configFingerprint);
    const std::vector<uint8_t> state = materializeV1State(ck);
    StateWriter tail;
    tail.u32(uint32_t(state.size()));
    tail.bytes(state.data(), state.size());
    StateWriter hash;
    hash.u64(fileHash(head.data().data(), head.size(), tail.data().data(),
                      tail.size()));

    // Write-aside + rename: the file is replaced atomically, so a
    // crash mid-write can never tear the checkpoint — the previous
    // good snapshot survives until the new one is fully on disk
    // (rosed's per-job crash recovery warm-restores from this file).
    const std::string tmp = path + ".tmp";
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f)
            throw CheckpointError(
                "cannot open checkpoint file for write: " + tmp);
        for (const StateWriter *part : {&head, &hash, &tail})
            f.write(reinterpret_cast<const char *>(part->data().data()),
                    std::streamsize(part->size()));
        if (!f)
            throw CheckpointError("short write to checkpoint file: " +
                                  tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw CheckpointError("cannot move checkpoint into place: " +
                              path);
    }
}

Checkpoint
readCheckpointFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw CheckpointError("cannot open checkpoint file: " + path);
    const std::vector<uint8_t> file(
        (std::istreambuf_iterator<char>(f)),
        std::istreambuf_iterator<char>());
    if (file.size() < sizeof(kMagic) ||
        std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0)
        throw CheckpointError("bad checkpoint magic in " + path);

    try {
        StateReader r(file);
        r.skip(sizeof(kMagic));
        const uint32_t version = r.u32();
        if (version != Checkpoint::kFileVersion)
            throw CheckpointError(
                "unsupported checkpoint file version " +
                std::to_string(version) + " in " + path + " (expected " +
                std::to_string(Checkpoint::kFileVersion) + ")");
        Checkpoint ck;
        ck.period = r.u64();
        ck.simTime = r.f64();
        ck.configFingerprint = r.u64();
        const size_t hash_at = r.pos();
        const uint64_t file_hash = r.u64();
        uint32_t n = r.u32();
        // The length is untrusted: bound it by the bytes actually
        // present before allocating for it.
        if (n > r.remaining())
            throw SerdeError("state length " + std::to_string(n) +
                             " exceeds the " +
                             std::to_string(r.remaining()) +
                             " bytes present");
        r.bytes(ck.state, n);
        if (fileHash(file.data(), hash_at, file.data() + hash_at + 8,
                     file.size() - hash_at - 8) != file_hash)
            throw CheckpointError(
                "checkpoint file hash mismatch in " + path +
                " (file corrupt or truncated)");
        return ck;
    } catch (const SerdeError &e) {
        throw CheckpointError("truncated checkpoint file " + path + ": " +
                              e.what());
    }
}

} // namespace rose::core
