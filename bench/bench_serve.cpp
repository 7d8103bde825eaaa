/**
 * @file
 * Serving throughput of the mission-service daemon (src/serve/).
 *
 * Sweeps client concurrency {1,2,4,8} against two bounded-queue
 * depths on an in-process MissionServer (real TCP loopback — the
 * exact listener/framing/admission path `rosed` runs). Each client
 * submits its missions back-to-back, retrying after an explicit
 * queue-full rejection, and we record:
 *
 *   - per-request latency: submit() to waitResult() wall time,
 *     reported as p50/p95/max;
 *   - queue wait: the server-side admission->start time each
 *     ServedResult carries back (isolates queueing delay from
 *     execution time);
 *   - missions/sec per sweep cell, and how many submissions were
 *     shed (queue_full) along the way.
 *
 * Expected shape: with a deep queue, latency grows with client count
 * (queue wait dominates once clients > workers) while missions/sec
 * saturates at the worker pool's aggregate rate. With a shallow
 * queue, tail latency stays flatter and the overflow shows up as
 * shed submissions instead — backpressure trades retries for bounded
 * queue wait. Results land in BENCH_serve.json.
 *
 * A second sweep measures result streaming: multi-megabyte
 * trajectories fetched as binary records through the chunked
 * ResultChunk/ResultEnd protocol across chunk size {64 KiB, 256 KiB,
 * 1 MiB} x clients {1, 4}, after one discarded warm-up cell.
 * Reported per cell: p50 fetch latency next to the p50 server-side
 * service time of the same missions (run plus result encoding, which
 * overlaps the run), p50 MB/s per client (of the canonical CSV the
 * fetch delivers, rendered outside the timed window), and the record
 * payload actually moved (wire_bytes). Every cell is one run, so
 * neighbouring cells differ by host noise as well.
 *
 * A third sweep quantifies the write-ahead job journal's overhead:
 * the same submit->waitResult loop run with journaling off, on
 * (flush-only, the default durability level), and on with fsync per
 * append. Submit latency is reported separately from end-to-end
 * latency because the WAL append sits on the submit path — the
 * admission reply is not sent until the Submit record is on disk —
 * while the Terminal append happens on the worker thread.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hh"
#include "core/experiment.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/logging.hh"

using namespace rose;
using namespace rose::serve;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kWorkers = 4;
constexpr int kMissionsPerClient = 4;
constexpr double kSimSeconds = 2.0;

core::MissionSpec
benchSpec(uint64_t seed)
{
    core::MissionSpec spec = core::parseMissionSpec("yaw=20");
    spec.seed = seed;
    spec.maxSimSeconds = kSimSeconds;
    return spec;
}

struct ClientTally
{
    std::vector<double> latencyMs;
    std::vector<double> queueWaitMs;
    uint64_t shed = 0;
};

struct Pct
{
    double p50 = 0.0, p95 = 0.0, max = 0.0;
};

Pct
percentiles(std::vector<double> v)
{
    Pct p;
    if (v.empty())
        return p;
    std::sort(v.begin(), v.end());
    p.p50 = v[v.size() / 2];
    p.p95 = v[std::min(v.size() - 1, (v.size() * 95) / 100)];
    p.max = v.back();
    return p;
}

struct Cell
{
    int clients = 0;
    size_t queueDepth = 0;
    size_t missions = 0;
    uint64_t shed = 0;
    double wallSeconds = 0.0;
    double missionsPerSec = 0.0;
    Pct latency;
    Pct queueWait;
};

Cell
runCell(int clients, size_t queue_depth)
{
    ServerConfig cfg;
    cfg.workers = kWorkers;
    cfg.maxQueueDepth = queue_depth;
    // The sweep intentionally outruns the queue at small depths; the
    // per-client cap must not be the binding constraint.
    cfg.perClientInFlight = 64;
    MissionServer server(cfg);
    server.start();
    uint16_t port = server.port();

    Clock::time_point t0 = Clock::now();
    std::vector<ClientTally> tallies = core::parallelIndexed<ClientTally>(
        size_t(clients), size_t(clients), [&](size_t ci) {
            ClientTally tally;
            ServeClient client(port);
            for (int m = 0; m < kMissionsPerClient; ++m) {
                core::MissionSpec spec =
                    benchSpec(1 + ci * kMissionsPerClient + m);
                Clock::time_point start = Clock::now();
                SubmitOutcome out;
                for (;;) {
                    out = client.submit(spec);
                    if (out.accepted)
                        break;
                    // Explicit shed: back off briefly and retry. Any
                    // other rejection is a bench bug.
                    if (out.reason != RejectReason::QueueFull)
                        rose_fatal("unexpected rejection: ", out.detail);
                    tally.shed++;
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                }
                ServedResult r = client.waitResult(out.jobId);
                double ms = std::chrono::duration<double, std::milli>(
                                Clock::now() - start)
                                .count();
                tally.latencyMs.push_back(ms);
                tally.queueWaitMs.push_back(r.queueWaitMs);
            }
            return tally;
        });
    double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();
    server.stop();

    Cell cell;
    cell.clients = clients;
    cell.queueDepth = queue_depth;
    cell.wallSeconds = wall;
    std::vector<double> lat, qw;
    for (const ClientTally &t : tallies) {
        cell.shed += t.shed;
        lat.insert(lat.end(), t.latencyMs.begin(), t.latencyMs.end());
        qw.insert(qw.end(), t.queueWaitMs.begin(), t.queueWaitMs.end());
    }
    cell.missions = lat.size();
    cell.missionsPerSec = wall > 0.0 ? double(cell.missions) / wall : 0.0;
    cell.latency = percentiles(lat);
    cell.queueWait = percentiles(qw);
    return cell;
}

// ------------------------------------------------------- streaming

/** Long-trajectory spec for the streaming sweep: 50,000 samples, ~4 MB
 *  of CSV or 2.2 MB of records per mission (one sample every 20k
 *  cycles for 1 simulated second). */
core::MissionSpec
streamSpec(uint64_t seed)
{
    core::MissionSpec spec = benchSpec(seed);
    spec.maxSimSeconds = 1.0;
    spec.syncGranularity = 20000;
    return spec;
}

struct StreamCell
{
    size_t chunkBytes = 0;
    int clients = 0;
    size_t payloadBytes = 0; ///< canonical CSV bytes (first client)
    uint64_t wireBytes = 0;  ///< record payload actually sent
    uint64_t chunks = 0;
    double fetchP50Ms = 0.0;
    double serviceP50Ms = 0.0; ///< server-side run + encode
    double mbPerSecP50 = 0.0;
};

StreamCell
runStreamCell(size_t chunk_bytes, int clients)
{
    ServerConfig cfg;
    cfg.workers = kWorkers;
    cfg.maxQueueDepth = 32;
    cfg.perClientInFlight = 64;
    cfg.resultChunkBytes = chunk_bytes;
    MissionServer server(cfg);
    server.start();
    uint16_t port = server.port();

    struct FetchTally
    {
        double ms = 0.0;
        double serviceMs = 0.0;
        size_t bytes = 0;
    };
    std::vector<FetchTally> tallies =
        core::parallelIndexed<FetchTally>(
            size_t(clients), size_t(clients), [&](size_t ci) {
                ServeClient client(port);
                SubmitOutcome out = client.submit(streamSpec(1 + ci));
                if (!out.accepted)
                    rose_fatal("stream bench submit shed: ",
                               out.detail);
                while (client.status(out.jobId).state !=
                       JobState::Done)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                // The mission is finished: time only the fetch — the
                // chunked stream generation, transfer, reassembly,
                // and hash verification.
                Clock::time_point f0 = Clock::now();
                ServedResult r;
                JobState st = JobState::Unknown;
                client.tryFetchResult(out.jobId, r, &st);
                FetchTally t;
                t.ms = std::chrono::duration<double, std::milli>(
                           Clock::now() - f0)
                           .count();
                t.serviceMs = r.serviceMs;
                // MB/s counts the canonical CSV the fetch logically
                // delivers, rendered here outside the timed window,
                // so cells stay comparable with earlier CSV-payload
                // measurements.
                t.bytes = core::trajectoryCsvString(r.trajectory).size();
                return t;
            });
    ServerStatsSnapshot stats = server.stats();
    server.stop();

    StreamCell cell;
    cell.chunkBytes = chunk_bytes;
    cell.clients = clients;
    cell.wireBytes = stats.streamedPayloadBytes;
    cell.chunks = stats.streamedChunks;
    std::vector<double> ms, service, mbps;
    for (const FetchTally &t : tallies) {
        ms.push_back(t.ms);
        service.push_back(t.serviceMs);
        mbps.push_back(t.ms > 0.0
                           ? double(t.bytes) / 1e6 / (t.ms / 1e3)
                           : 0.0);
    }
    cell.payloadBytes = tallies.empty() ? 0 : tallies[0].bytes;
    cell.fetchP50Ms = percentiles(ms).p50;
    cell.serviceP50Ms = percentiles(service).p50;
    cell.mbPerSecP50 = percentiles(mbps).p50;
    return cell;
}

// --------------------------------------------------------- journal

/** Durability level for the journal-overhead sweep. */
enum class JournalMode
{
    Off,   ///< in-memory only (pre-v3 behavior)
    On,    ///< write-ahead journal, flush per append
    Fsync, ///< write-ahead journal, fsync per append
};

const char *
journalModeName(JournalMode m)
{
    switch (m) {
    case JournalMode::Off:
        return "off";
    case JournalMode::On:
        return "journal";
    case JournalMode::Fsync:
        return "journal+fsync";
    }
    return "?";
}

struct JournalCell
{
    JournalMode mode = JournalMode::Off;
    size_t missions = 0;
    double wallSeconds = 0.0;
    double missionsPerSec = 0.0;
    Pct submit;  ///< submit() wall time — the WAL append sits here
    Pct latency; ///< submit() to waitResult() end to end
};

constexpr int kJournalMissions = 16;

JournalCell
runJournalCell(JournalMode mode)
{
    const std::string dir = "bench_serve_journal.d";
    std::filesystem::remove_all(dir);

    ServerConfig cfg;
    cfg.workers = kWorkers;
    cfg.maxQueueDepth = 32;
    cfg.perClientInFlight = 64;
    if (mode != JournalMode::Off) {
        cfg.journalDir = dir;
        cfg.journalFsync = (mode == JournalMode::Fsync);
    }
    MissionServer server(cfg);
    server.start();

    JournalCell cell;
    cell.mode = mode;
    std::vector<double> submit_ms, lat_ms;
    ServeClient client(server.port());
    Clock::time_point t0 = Clock::now();
    for (int m = 0; m < kJournalMissions; ++m) {
        core::MissionSpec spec = benchSpec(uint64_t(1 + m));
        Clock::time_point start = Clock::now();
        SubmitOutcome out = client.submit(spec);
        submit_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      start)
                .count());
        if (!out.accepted)
            rose_fatal("journal bench submit shed: ", out.detail);
        client.waitResult(out.jobId);
        lat_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      start)
                .count());
    }
    cell.wallSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    server.stop();
    std::filesystem::remove_all(dir);

    cell.missions = lat_ms.size();
    cell.missionsPerSec = cell.wallSeconds > 0.0
                              ? double(cell.missions) / cell.wallSeconds
                              : 0.0;
    cell.submit = percentiles(submit_ms);
    cell.latency = percentiles(lat_ms);
    return cell;
}

} // namespace

int
main()
{
    std::printf("rosed serving throughput (workers=%d, %d missions "
                "per client, %.1fs simulated each)\n\n",
                kWorkers, kMissionsPerClient, kSimSeconds);
    std::printf("%-8s %-7s %-9s %-6s %-12s %-12s %-12s %-12s\n",
                "clients", "queue", "missions", "shed", "msn/sec",
                "lat p50[ms]", "lat p95[ms]", "qwait p95[ms]");

    std::vector<Cell> cells;
    for (size_t depth : {size_t(4), size_t(32)}) {
        for (int clients : {1, 2, 4, 8}) {
            Cell c = runCell(clients, depth);
            std::printf("%-8d %-7zu %-9zu %-6llu %-12.2f %-12.2f "
                        "%-12.2f %-12.2f\n",
                        c.clients, c.queueDepth, c.missions,
                        static_cast<unsigned long long>(c.shed),
                        c.missionsPerSec, c.latency.p50,
                        c.latency.p95, c.queueWait.p95);
            cells.push_back(c);
        }
    }

    std::printf("\nresult streaming (chunk size x clients; ~4 MB "
                "CSV-equivalent trajectory per fetch; one run per "
                "cell)\n\n");
    std::printf("%-10s %-8s %-11s %-11s %-8s %-14s %-16s %-12s\n",
                "chunk", "clients", "payload[B]", "wire[B]", "chunks",
                "fetch p50[ms]", "service p50[ms]", "MB/s p50");
    // One discarded cell first: a process's first multi-megabyte
    // fetches pay glibc's mmap-threshold warm-up (fresh pages for every
    // large buffer until a free raises the threshold), which would
    // otherwise land on whichever cell the sweep happens to run first.
    runStreamCell(size_t(64) * 1024, 1);
    std::vector<StreamCell> streamCells;
    for (size_t chunk : {size_t(64) * 1024, size_t(256) * 1024,
                         size_t(1024) * 1024}) {
        for (int clients : {1, 4}) {
            StreamCell c = runStreamCell(chunk, clients);
            std::printf("%-10zu %-8d %-11zu %-11llu %-8llu %-14.2f "
                        "%-16.2f %-12.2f\n",
                        c.chunkBytes, c.clients, c.payloadBytes,
                        static_cast<unsigned long long>(c.wireBytes),
                        static_cast<unsigned long long>(c.chunks),
                        c.fetchP50Ms, c.serviceP50Ms, c.mbPerSecP50);
            streamCells.push_back(c);
        }
    }

    std::printf("\njournal overhead (write-ahead durability on the "
                "submit path; %d sequential missions)\n\n",
                kJournalMissions);
    std::printf("%-15s %-9s %-14s %-14s %-12s %-12s\n", "mode",
                "missions", "submit p50[ms]", "submit p95[ms]",
                "lat p50[ms]", "msn/sec");
    std::vector<JournalCell> journalCells;
    for (JournalMode mode : {JournalMode::Off, JournalMode::On,
                             JournalMode::Fsync}) {
        JournalCell c = runJournalCell(mode);
        std::printf("%-15s %-9zu %-14.3f %-14.3f %-12.2f %-12.2f\n",
                    journalModeName(c.mode), c.missions, c.submit.p50,
                    c.submit.p95, c.latency.p50, c.missionsPerSec);
        journalCells.push_back(c);
    }

    std::ostringstream js;
    js << "{\n  \"workers\": " << kWorkers
       << ",\n  \"missions_per_client\": " << kMissionsPerClient
       << ",\n  \"sim_seconds\": " << kSimSeconds
       << ",\n  \"runs_per_cell\": 1"
       << ",\n  \"sweep\": [";
    for (size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        js << (i ? ",\n    " : "\n    ") << "{\"clients\": "
           << c.clients << ", \"queue_depth\": " << c.queueDepth
           << ", \"missions\": " << c.missions << ", \"shed\": "
           << c.shed << ", \"wall_seconds\": " << c.wallSeconds
           << ", \"missions_per_sec\": " << c.missionsPerSec
           << ", \"latency_ms\": {\"p50\": " << c.latency.p50
           << ", \"p95\": " << c.latency.p95 << ", \"max\": "
           << c.latency.max << "}, \"queue_wait_ms\": {\"p50\": "
           << c.queueWait.p50 << ", \"p95\": " << c.queueWait.p95
           << ", \"max\": " << c.queueWait.max << "}}";
    }
    js << "\n  ],\n  \"streaming\": [";
    for (size_t i = 0; i < streamCells.size(); ++i) {
        const StreamCell &c = streamCells[i];
        js << (i ? ",\n    " : "\n    ") << "{\"chunk_bytes\": "
           << c.chunkBytes << ", \"clients\": " << c.clients
           << ", \"payload_bytes\": " << c.payloadBytes
           << ", \"wire_bytes\": " << c.wireBytes
           << ", \"chunks\": " << c.chunks
           << ", \"fetch_p50_ms\": " << c.fetchP50Ms
           << ", \"service_p50_ms\": " << c.serviceP50Ms
           << ", \"mb_per_sec_p50\": " << c.mbPerSecP50 << "}";
    }
    js << "\n  ],\n  \"journal\": [";
    for (size_t i = 0; i < journalCells.size(); ++i) {
        const JournalCell &c = journalCells[i];
        js << (i ? ",\n    " : "\n    ") << "{\"mode\": \""
           << journalModeName(c.mode) << "\", \"missions\": "
           << c.missions << ", \"wall_seconds\": " << c.wallSeconds
           << ", \"missions_per_sec\": " << c.missionsPerSec
           << ", \"submit_ms\": {\"p50\": " << c.submit.p50
           << ", \"p95\": " << c.submit.p95 << ", \"max\": "
           << c.submit.max << "}, \"latency_ms\": {\"p50\": "
           << c.latency.p50 << ", \"p95\": " << c.latency.p95
           << ", \"max\": " << c.latency.max << "}}";
    }
    js << "\n  ]\n}\n";

    const char *json_path = "BENCH_serve.json";
    std::ofstream out(json_path);
    if (out) {
        out << js.str();
        std::printf("\nserving report written to %s\n", json_path);
    }

    std::printf(
        "\nExpected shape: missions/sec saturates at the worker "
        "pool's aggregate rate once clients >= workers; with the deep "
        "queue the overflow shows up as p95 queue wait, with the "
        "shallow queue as shed submissions — admission control trades "
        "retries for bounded latency.\n");
    return 0;
}
