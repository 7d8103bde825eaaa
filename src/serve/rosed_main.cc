/**
 * @file
 * `rosed` — the mission-service daemon binary.
 *
 *   rosed --port 0 --jobs 4 --queue-depth 16 --client-cap 8
 *
 * Binds 127.0.0.1:<port> (0 = ephemeral; the bound port is printed
 * and optionally written to --port-file for scripts), serves mission
 * submissions until a client sends Shutdown or the process receives
 * SIGINT/SIGTERM (drain), and exits 0 on a clean shutdown.
 *
 * With --journal DIR the daemon is crash-safe: submissions and
 * terminal results are write-ahead journaled and supervised jobs
 * persist per-job checkpoints, so a SIGKILLed rosed restarted on the
 * same directory replays its job table, finishes interrupted
 * missions (warm-restored from their checkpoint when possible), and
 * serves every journaled result bit-identically.
 */

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "core/experiment.hh"
#include "serve/server.hh"
#include "util/logging.hh"

using namespace rose;

namespace {

volatile std::sig_atomic_t g_signalled = 0;

/** Bound on --jobs: each worker is an OS thread. */
constexpr int kMaxWorkers = 1024;

void
onSignal(int)
{
    g_signalled = 1;
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --port N         listen port on 127.0.0.1, 0-65535 (0 = "
        "ephemeral;\n"
        "                   default 0)\n"
        "  --jobs N         mission worker threads, 1-%d (default 2)\n"
        "  --queue-depth N  bounded job queue, >= 1; excess submissions\n"
        "                   are rejected queue_full (default 16)\n"
        "  --client-cap N   per-connection unfinished-job cap, >= 1 "
        "(default 8)\n"
        "  --journal DIR    crash-safe serving: write-ahead job\n"
        "                   journal + per-job checkpoints in DIR;\n"
        "                   restart on the same DIR to recover\n"
        "  --journal-fsync  fsync every journal append (power-loss\n"
        "                   durability; slower)\n"
        "  --port-file P    write the bound port to file P\n",
        argv0, kMaxWorkers);
}

/**
 * The value of a numeric flag: all of @p text one whole number in
 * [lo, hi] (core::parseNumber), or exit 2 before anything binds.
 */
template <class T>
T
flagNumber(const char *argv0, const char *flag, const char *text, T lo,
           T hi)
{
    T v{};
    if (!core::parseNumber(text, v) || v < lo || v > hi) {
        std::fprintf(stderr, "%s needs a whole number in [%llu, %llu], "
                             "got '%s'\n",
                     flag, (unsigned long long)lo, (unsigned long long)hi,
                     text);
        usage(argv0);
        std::exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServerConfig cfg;
    std::string portFile;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--port") {
            cfg.port = flagNumber<uint16_t>(argv[0], "--port",
                                            next("--port"), 0, 65535);
        } else if (arg == "--jobs" || arg == "-j") {
            cfg.workers = flagNumber(argv[0], "--jobs", next("--jobs"), 1,
                                     kMaxWorkers);
        } else if (arg == "--queue-depth") {
            cfg.maxQueueDepth =
                flagNumber<size_t>(argv[0], "--queue-depth",
                                   next("--queue-depth"), 1, SIZE_MAX);
        } else if (arg == "--client-cap") {
            cfg.perClientInFlight =
                flagNumber<uint32_t>(argv[0], "--client-cap",
                                     next("--client-cap"), 1, UINT32_MAX);
        } else if (arg == "--journal") {
            cfg.journalDir = next("--journal");
        } else if (arg == "--journal-fsync") {
            cfg.journalFsync = true;
        } else if (arg == "--port-file") {
            portFile = next("--port-file");
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    // A peer that vanishes between poll() and send() must surface as
    // an EPIPE errno on that one connection, never kill the daemon.
    // Every send already passes MSG_NOSIGNAL; this covers any code
    // path (and any libc) that slips past it.
    std::signal(SIGPIPE, SIG_IGN);

    try {
        serve::MissionServer server(cfg);
        server.start();
        std::printf("rosed: listening on 127.0.0.1:%u "
                    "(workers=%d queue=%zu client-cap=%u%s)\n",
                    unsigned(server.port()), cfg.workers,
                    cfg.maxQueueDepth, cfg.perClientInFlight,
                    cfg.journalDir.empty() ? "" : ", journaled");
        std::fflush(stdout);
        if (!portFile.empty()) {
            // Written after the listener is live: a script that sees
            // the file can connect immediately.
            std::FILE *f = std::fopen(portFile.c_str(), "w");
            if (!f) {
                std::fprintf(stderr,
                             "rosed: cannot write port file %s\n",
                             portFile.c_str());
                server.stop(false);
                return 1;
            }
            std::fprintf(f, "%u\n", unsigned(server.port()));
            std::fclose(f);
        }

        while (server.running()) {
            if (g_signalled) {
                std::printf("rosed: signal received, draining\n");
                std::fflush(stdout);
                server.requestShutdown(true);
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        server.waitForShutdown();

        serve::ServerStatsSnapshot s = server.stats();
        std::printf("rosed: shut down (accepted=%llu completed=%llu "
                    "failed=%llu cancelled=%llu shed=%llu)\n",
                    (unsigned long long)s.accepted,
                    (unsigned long long)s.completed,
                    (unsigned long long)s.failed,
                    (unsigned long long)s.cancelled,
                    (unsigned long long)(s.rejectedQueueFull +
                                         s.rejectedClientCap +
                                         s.rejectedShutdown));
        return 0;
    } catch (const serve::JournalError &e) {
        std::fprintf(stderr,
                     "rosed: cannot open journal %s: %s\n",
                     cfg.journalDir.c_str(), e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rosed: %s\n", e.what());
        return 1;
    }
}
