/**
 * @file
 * `rose_client` — CLI for the mission-service daemon.
 *
 *   rose_client --port N submit [spec flags] [--wait]
 *                               [--idem-key K] [--job-file P]
 *   rose_client --port N status JOB
 *   rose_client --port N fetch JOB [--csv PATH]
 *   rose_client --port N cancel JOB
 *   rose_client --port N verify JOB [spec flags]
 *   rose_client --port N stats
 *   rose_client --port N shutdown [--no-drain]
 *   rose_client --port N smoke [--clients 4] [--missions 8] [spec flags]
 *   rose_client --port N stream-smoke [--min-bytes B] [spec flags]
 *
 * The spec flags are the fields of the MissionSpec text form
 * (core/experiment.hh), `--key value` for each `key=value`; --help
 * lists them. Every command checks all of its arguments before it
 * dials the daemon: an unknown flag, a malformed value or a spec that
 * core::validateMissionSpec rejects exits 2 with usage.
 *
 * `submit --wait` and `fetch` print server-pushed progress events
 * (simulated seconds so far) to stderr while the mission runs, and
 * exit 1 (printing the journaled failureReason) when the mission
 * terminal state is Failed. `fetch --csv PATH` writes the canonical
 * trajectory CSV rendered from the fetched samples. `--idem-key`
 * makes the submission safe to retry across daemon restarts (the
 * resubmit lands on the same job); `--job-file` writes the bare job
 * id for scripts. `verify`
 * fetches a finished job AND runs the same spec locally, exiting 0
 * only when the two trajectory FNV-1a hashes are bit-identical —
 * the crash-recovery chaos check in CI is built on it. The global
 * `--reconnect` flag turns on transparent redial with capped
 * backoff + jitter and resumable result streams.
 *
 * `smoke` is the end-to-end acceptance check used by CI: it fans out
 * concurrent clients (core::parallelIndexed), submits the canonical
 * golden missions (the spec flags apply to each; the SoC cycles
 * through A, B and C), and verifies that every served trajectory hashes
 * bit-identically (FNV-1a) to the same spec run locally through
 * runMission(). Exit 0 only when every mission matches.
 *
 * `stream-smoke` is the long-mission streaming check: it submits one
 * mission whose trajectory CSV exceeds --min-bytes (default 8 MiB —
 * larger than any single protocol frame, so it necessarily crosses
 * many ResultChunk frames), fetches it once, and verifies that the
 * CSV rendered from the reassembled samples hashes bit-identically
 * to the local runMission() of the same spec.
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hh"
#include "core/experiment.hh"
#include "serve/client.hh"
#include "util/backoff.hh"
#include "util/hash.hh"

using namespace rose;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --port N [--host H] [--timeout MS] [--reconnect] "
        "COMMAND ...\n"
        "commands:\n"
        "  submit [spec flags] [--wait] [--idem-key K] [--job-file P]\n"
        "  status JOB | fetch JOB [--csv PATH] | cancel JOB\n"
        "  verify JOB [spec flags]   (fetch + local re-run, compare "
        "hashes)\n"
        "  stats | shutdown [--no-drain]\n"
        "  smoke [--clients N] [--missions N] [spec flags]\n"
        "  stream-smoke [--min-bytes B] [spec flags]\n"
        "spec flags:\n%s",
        argv0, core::missionSpecUsage().c_str());
}

/** Progress-to-stderr handler for interactive commands. */
void
printProgress(const serve::ProgressEvent &p)
{
    std::fprintf(stderr,
                 "progress: job %" PRIu64 " %.2f / %.2f sim-s "
                 "(%" PRIu64 " samples)\n",
                 p.jobId, p.simTimeSeconds, p.maxSimSeconds,
                 p.samples);
}

/** FNV-1a of the canonical CSV rendered from a fetched trajectory —
 *  the value the golden hashes pin. */
uint64_t
servedHash(const serve::ServedResult &r)
{
    return fnv1a(core::trajectoryCsvString(r.trajectory));
}

void
printResult(uint64_t job_id, const serve::ServedResult &r)
{
    std::printf("job %" PRIu64 ": %s%s%s\n", job_id,
                core::missionStatusName(core::MissionStatus(r.status)),
                r.failureReason.empty() ? "" : " — ",
                r.failureReason.c_str());
    std::printf("  mission_time=%.3fs collisions=%" PRIu64
                " avg_speed=%.3f m/s distance=%.2f m\n",
                r.missionTime, r.collisions, r.avgSpeed,
                r.distanceTravelled);
    std::printf("  inferences=%" PRIu64 " energy=%.3f J cycles=%" PRIu64
                "\n",
                r.inferences, r.energyJoules, r.simulatedCycles);
    std::printf("  queue_wait=%.1f ms service=%.1f ms samples=%u "
                "trajectory_fnv1a=0x%016" PRIx64 "\n",
                r.queueWaitMs, r.serviceMs, r.trajectorySamples,
                servedHash(r));
}

int
runSmoke(const std::string &host, uint16_t port, int timeout_ms,
         int clients, int missions, const core::MissionSpec &base)
{
    static const char *kSocs[] = {"A", "B", "C"};
    auto specFor = [&](const char *soc) {
        core::MissionSpec spec = base;
        spec.socName = soc;
        return spec;
    };

    // Local reference hashes, one runMission per distinct spec.
    std::printf("smoke: computing local reference hashes...\n");
    std::map<std::string, uint64_t> localHash;
    for (int m = 0; m < missions && m < 3; ++m) {
        const char *soc = kSocs[m % 3];
        if (localHash.count(soc))
            continue;
        core::MissionResult r = core::runMission(specFor(soc));
        localHash[soc] = fnv1a(core::trajectoryCsvString(r));
    }

    std::mutex mu;
    int failures = 0;

    // One client per concurrent slot; each submits its share of the
    // mission list and verifies every served hash.
    auto clientBody = [&](size_t ci) -> int {
        int bad = 0;
        try {
            serve::ServeClient client(port, host, timeout_ms);
            std::vector<std::pair<uint64_t, const char *>> jobs;
            for (int m = int(ci); m < missions; m += clients) {
                const char *soc = kSocs[m % 3];
                // Backpressure is legitimate: retry shed submissions
                // on a capped-backoff-with-jitter schedule (the
                // jitter desynchronizes the concurrent clients so
                // they don't re-stampede the queue in lockstep).
                Backoff backoff({25, 500, 2.0, 0.5},
                                0xb0ffULL + ci * 977 + uint64_t(m));
                serve::SubmitOutcome out;
                for (int attempt = 0; attempt < 8; ++attempt) {
                    out = client.submit(specFor(soc));
                    if (out.accepted ||
                        out.reason != serve::RejectReason::QueueFull)
                        break;
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(
                            backoff.nextDelayMs()));
                }
                if (!out.accepted) {
                    std::lock_guard<std::mutex> lk(mu);
                    std::fprintf(stderr,
                                 "smoke: client %zu submit shed "
                                 "repeatedly (%s)\n",
                                 ci, out.detail.c_str());
                    bad++;
                    continue;
                }
                jobs.emplace_back(out.jobId, soc);
            }
            for (auto [id, soc] : jobs) {
                serve::ServedResult r =
                    client.waitResult(id, timeout_ms);
                uint64_t served = servedHash(r);
                uint64_t expect = localHash.at(soc);
                std::lock_guard<std::mutex> lk(mu);
                if (served != expect) {
                    std::fprintf(stderr,
                                 "smoke: HASH MISMATCH job %" PRIu64
                                 " soc %s served 0x%016" PRIx64
                                 " local 0x%016" PRIx64 "\n",
                                 id, soc, served, expect);
                    bad++;
                } else {
                    std::printf("smoke: job %" PRIu64 " soc %s ok "
                                "(0x%016" PRIx64 ")\n",
                                id, soc, served);
                }
            }
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lk(mu);
            std::fprintf(stderr, "smoke: client %zu failed: %s\n", ci,
                         e.what());
            bad++;
        }
        return bad;
    };

    std::vector<int> bad = core::parallelIndexed<int>(
        size_t(clients), clients, clientBody);
    for (int b : bad)
        failures += b;

    if (failures == 0) {
        std::printf("smoke: %d missions from %d clients all "
                    "bit-identical to local runs\n",
                    missions, clients);
        return 0;
    }
    std::fprintf(stderr, "smoke: %d failure(s)\n", failures);
    return 1;
}

int
runStreamSmoke(const std::string &host, uint16_t port, int timeout_ms,
               const core::MissionSpec &spec, size_t min_bytes)
{

    std::printf("stream-smoke: local reference run...\n");
    core::MissionResult local = core::runMission(spec);
    std::string localCsv = core::trajectoryCsvString(local);
    uint64_t expect = fnv1a(localCsv);
    std::printf("stream-smoke: local CSV %zu bytes, fnv1a "
                "0x%016" PRIx64 "\n",
                localCsv.size(), expect);
    if (localCsv.size() < min_bytes) {
        std::fprintf(stderr,
                     "stream-smoke: trajectory too small (%zu < %zu "
                     "bytes); raise --sim-seconds or lower "
                     "--sync-granularity\n",
                     localCsv.size(), min_bytes);
        return 1;
    }

    serve::ServeClient client(port, host, timeout_ms);
    uint64_t progressSeen = 0;
    client.onProgress([&](const serve::ProgressEvent &p) {
        progressSeen++;
        printProgress(p);
    });

    serve::SubmitOutcome out = client.submit(spec);
    if (!out.accepted) {
        std::fprintf(stderr, "stream-smoke: submit shed: %s\n",
                     out.detail.c_str());
        return 1;
    }
    serve::ServedResult r = client.waitResult(out.jobId, timeout_ms);
    std::string servedCsv = core::trajectoryCsvString(r.trajectory);
    uint64_t served = fnv1a(servedCsv);
    std::printf("stream-smoke: job %" PRIu64 " %zu bytes, fnv1a "
                "0x%016" PRIx64 "\n",
                out.jobId, servedCsv.size(), served);
    if (served != expect) {
        std::fprintf(stderr,
                     "stream-smoke: HASH MISMATCH: served 0x%016" PRIx64
                     " local 0x%016" PRIx64 "\n",
                     served, expect);
        return 1;
    }
    std::printf("stream-smoke: %zu-byte trajectory streamed "
                "bit-identically (%" PRIu64 " progress events)\n",
                localCsv.size(), progressSeen);
    return 0;
}

/** One command line, checked in full before anything is dialed. */
struct Command
{
    std::string name;
    uint64_t job = 0;
    core::MissionSpec spec;
    bool wait = false;
    bool drain = true;
    std::string idemKey, jobFile, csvPath;
    int clients = 4, missions = 8;
    size_t minBytes = 8 * 1024 * 1024;
};

/** The value after flag argv[i]; advances @p i past it. */
const char *
flagValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        throw std::invalid_argument(std::string(argv[i]) +
                                    " requires a value");
    return argv[++i];
}

/** A whole-token number of at least @p min for flag argv[i]. */
template <class T>
void
flagNumber(int argc, char **argv, int &i, T &out, T min)
{
    const char *flag = argv[i];
    if (!core::parseNumber(flagValue(argc, argv, i), out) || out < min)
        throw std::invalid_argument(std::string("bad value for ") + flag +
                                    ": '" + argv[i] + "'");
}

/** Parse the command at argv[i] and its arguments; throws
 *  std::invalid_argument on anything it does not take. */
Command
parseCommand(int argc, char **argv, int i)
{
    Command c;
    const std::string n = c.name = argv[i++];
    if (n == "smoke")
        c.spec = core::parseMissionSpec("yaw=20 sim-seconds=10");
    else if (n == "stream-smoke")
        c.spec = core::parseMissionSpec(
            "yaw=20 sync-granularity=20000 sim-seconds=2.2");
    const bool takesSpec =
        n == "submit" || n == "verify" || n == "smoke" || n == "stream-smoke";
    const bool takesJob =
        n == "status" || n == "fetch" || n == "cancel" || n == "verify";
    if (!takesSpec && !takesJob && n != "stats" && n != "shutdown")
        throw std::invalid_argument("unknown command: " + n);
    if (takesJob && (i >= argc || !core::parseNumber(argv[i++], c.job)))
        throw std::invalid_argument(n + " requires a job id");
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (takesSpec && core::consumeMissionSpecFlag(c.spec, argc, argv, i))
            continue;
        if (n == "submit" && arg == "--wait")
            c.wait = true;
        else if (n == "submit" && arg == "--idem-key")
            c.idemKey = flagValue(argc, argv, i);
        else if (n == "submit" && arg == "--job-file")
            c.jobFile = flagValue(argc, argv, i);
        else if (n == "fetch" && arg == "--csv")
            c.csvPath = flagValue(argc, argv, i);
        else if (n == "shutdown" && arg == "--no-drain")
            c.drain = false;
        else if (n == "smoke" && arg == "--clients")
            flagNumber(argc, argv, i, c.clients, 1);
        else if (n == "smoke" && arg == "--missions")
            flagNumber(argc, argv, i, c.missions, 1);
        else if (n == "stream-smoke" && arg == "--min-bytes")
            flagNumber(argc, argv, i, c.minBytes, size_t(0));
        else
            throw std::invalid_argument(n + ": unexpected argument " + arg);
    }
    if (takesSpec)
        core::validateMissionSpec(c.spec);
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    int timeout_ms = 120000;
    bool reconnect = false;
    Command c;

    try {
        int i = 1;
        for (; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--port")
                flagNumber(argc, argv, i, port, uint16_t(1));
            else if (arg == "--host")
                host = flagValue(argc, argv, i);
            else if (arg == "--timeout")
                flagNumber(argc, argv, i, timeout_ms, 1);
            else if (arg == "--reconnect")
                reconnect = true;
            else if (arg == "--help" || arg == "-h") {
                usage(argv[0]);
                return 0;
            } else
                break;
        }
        if (i >= argc || port == 0)
            throw std::invalid_argument("--port N and a command are "
                                        "required");
        c = parseCommand(argc, argv, i);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        usage(argv[0]);
        return 2;
    }
    const std::string &cmd = c.name;

    try {
        if (cmd == "smoke")
            return runSmoke(host, port, timeout_ms, c.clients, c.missions,
                            c.spec);
        if (cmd == "stream-smoke")
            return runStreamSmoke(host, port, timeout_ms, c.spec,
                                  c.minBytes);

        serve::ServeClient client(port, host, timeout_ms);
        client.onProgress(printProgress);
        if (reconnect)
            client.enableReconnect();

        if (cmd == "submit") {
            serve::SubmitOutcome out = client.submit(c.spec, c.idemKey);
            if (!out.accepted) {
                std::fprintf(stderr, "rejected (%s): %s\n",
                             serve::rejectReasonName(out.reason),
                             out.detail.c_str());
                return 1;
            }
            std::printf("accepted: job %" PRIu64
                        " (queue position %u)\n",
                        out.jobId, out.queuePosition);
            if (!c.jobFile.empty()) {
                std::FILE *f = std::fopen(c.jobFile.c_str(), "w");
                if (!f) {
                    std::fprintf(stderr, "cannot write %s\n",
                                 c.jobFile.c_str());
                    return 1;
                }
                std::fprintf(f, "%" PRIu64 "\n", out.jobId);
                std::fclose(f);
            }
            if (c.wait) {
                serve::JobState state = serve::JobState::Unknown;
                serve::ServedResult r =
                    client.waitResult(out.jobId, timeout_ms, 10, &state);
                printResult(out.jobId, r);
                if (state == serve::JobState::Failed) {
                    std::fprintf(stderr,
                                 "job %" PRIu64 " FAILED: %s\n",
                                 out.jobId,
                                 r.failureReason.c_str());
                    return 1;
                }
            }
            return 0;
        }

        const uint64_t job = c.job;
        if (cmd == "verify") {
            serve::JobState state = serve::JobState::Unknown;
            serve::ServedResult r =
                client.waitResult(job, timeout_ms, 10, &state);
            if (state == serve::JobState::Failed) {
                std::fprintf(stderr,
                             "verify: job %" PRIu64 " FAILED: %s\n",
                             job, r.failureReason.c_str());
                return 1;
            }
            uint64_t served = servedHash(r);
            core::MissionResult local = core::runMission(c.spec);
            uint64_t expect = fnv1a(core::trajectoryCsvString(local));
            std::printf("verify: job %" PRIu64 " served "
                        "0x%016" PRIx64 " local 0x%016" PRIx64 "\n",
                        job, served, expect);
            if (served != expect) {
                std::fprintf(stderr,
                             "verify: HASH MISMATCH for job %" PRIu64
                             "\n",
                             job);
                return 1;
            }
            std::printf("verify: bit-identical\n");
            return 0;
        }

        if (cmd == "status" || cmd == "fetch" || cmd == "cancel") {
            if (cmd == "status") {
                serve::StatusInfo s = client.status(job);
                std::printf("job %" PRIu64 ": %s (queue_pos=%u "
                            "queue_wait=%.1fms service=%.1fms)\n",
                            s.jobId, serve::jobStateName(s.state),
                            s.queuePosition, s.queueWaitMs,
                            s.serviceMs);
                return 0;
            }
            if (cmd == "cancel") {
                serve::CancelInfo info = client.cancel(job);
                static const char *kOutcomes[] = {
                    "?", "dequeued", "too_late", "already_done",
                    "unknown_job"};
                std::printf("job %" PRIu64 ": %s\n", info.jobId,
                            kOutcomes[uint8_t(info.outcome)]);
                return info.outcome ==
                               serve::CancelOutcome::UnknownJob
                           ? 1
                           : 0;
            }
            serve::JobState state = serve::JobState::Unknown;
            serve::ServedResult r =
                client.waitResult(job, timeout_ms, 10, &state);
            printResult(job, r);
            if (!c.csvPath.empty()) {
                std::FILE *f = std::fopen(c.csvPath.c_str(), "wb");
                if (!f) {
                    std::fprintf(stderr, "cannot write %s\n",
                                 c.csvPath.c_str());
                    return 1;
                }
                std::string csv = core::trajectoryCsvString(r.trajectory);
                std::fwrite(csv.data(), 1, csv.size(), f);
                std::fclose(f);
            }
            if (state == serve::JobState::Failed) {
                std::fprintf(stderr, "job %" PRIu64 " FAILED: %s\n",
                             job, r.failureReason.c_str());
                return 1;
            }
            return 0;
        }

        if (cmd == "stats") {
            serve::ServerStatsData s = client.serverStats();
            std::printf(
                "submitted=%" PRIu64 " accepted=%" PRIu64
                " completed=%" PRIu64 " failed=%" PRIu64
                " cancelled=%" PRIu64 "\n"
                "shed: queue_full=%" PRIu64 " client_cap=%" PRIu64
                " shutting_down=%" PRIu64 " malformed=%" PRIu64 "\n"
                "now: queued=%u running=%u workers=%u "
                "queue_capacity=%u connections=%u\n"
                "latency: avg_queue_wait=%.1fms max_queue_wait=%.1fms "
                "avg_service=%.1fms max_service=%.1fms\n",
                s.submitted, s.accepted, s.completed, s.failed,
                s.cancelled, s.rejectedQueueFull, s.rejectedClientCap,
                s.rejectedShutdown, s.malformed, s.queued, s.running,
                s.workers, s.queueCapacity, s.connectionsOpen,
                s.completed + s.failed
                    ? s.totalQueueWaitMs / double(s.completed + s.failed)
                    : 0.0,
                s.maxQueueWaitMs,
                s.completed + s.failed
                    ? s.totalServiceMs / double(s.completed + s.failed)
                    : 0.0,
                s.maxServiceMs);
            return 0;
        }

        // parseCommand admitted no other command: shutdown.
        client.shutdownServer(c.drain);
        std::printf("shutdown requested (%s)\n",
                    c.drain ? "drain" : "immediate");
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rose_client: %s\n", e.what());
        return 1;
    }
}
