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
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "serve/server.hh"
#include "util/logging.hh"

using namespace rose;

namespace {

volatile std::sig_atomic_t g_signalled = 0;

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
        "  --port N         listen port on 127.0.0.1 (0 = ephemeral; "
        "default 0)\n"
        "  --jobs N         mission worker threads (default 2)\n"
        "  --queue-depth N  bounded job queue; excess submissions are\n"
        "                   rejected queue_full (default 16)\n"
        "  --client-cap N   per-connection unfinished-job cap "
        "(default 8)\n"
        "  --no-supervise   run missions bare (no checkpoint/retry)\n"
        "  --journal DIR    crash-safe serving: write-ahead job\n"
        "                   journal + per-job checkpoints in DIR;\n"
        "                   restart on the same DIR to recover\n"
        "  --journal-fsync  fsync every journal append (power-loss\n"
        "                   durability; slower)\n"
        "  --port-file P    write the bound port to file P\n",
        argv0);
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
            cfg.port = uint16_t(std::atoi(next("--port")));
        } else if (arg == "--jobs" || arg == "-j") {
            cfg.workers = std::atoi(next("--jobs"));
        } else if (arg == "--queue-depth") {
            cfg.maxQueueDepth = size_t(std::atol(next("--queue-depth")));
        } else if (arg == "--client-cap") {
            cfg.perClientInFlight =
                uint32_t(std::atoi(next("--client-cap")));
        } else if (arg == "--no-supervise") {
            cfg.supervise = false;
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
                    "(workers=%d queue=%zu client-cap=%u%s%s)\n",
                    unsigned(server.port()), cfg.workers,
                    cfg.maxQueueDepth, cfg.perClientInFlight,
                    cfg.supervise ? ", supervised" : "",
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
