#include "batch.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>

#include "util/logging.hh"

namespace rose::core {

std::vector<MissionResult>
BatchRunner::run(const std::vector<MissionSpec> &specs)
{
    stats_ = BatchStats{};
    stats_.missions = specs.size();
    stats_.jobs = opts_.jobs;
    stats_.missionWallSeconds.assign(specs.size(), 0.0);

    auto t0 = std::chrono::steady_clock::now();
    std::vector<MissionResult> results =
        parallelIndexed<MissionResult>(
            specs.size(), opts_.jobs, [&](size_t i) {
                // Slot isolation: a crashing mission (bad spec, lost
                // transport, diverged physics) must not take down the
                // batch — its slot reports Crashed with the reason and
                // every other mission still returns a full result.
                try {
                    // runMission already stamps r.wallSeconds.
                    return runMission(specs[i]);
                } catch (const std::exception &e) {
                    rose_warn("batch slot ", i, " (", specs[i].label(),
                              ") failed: ", e.what());
                    MissionResult r;
                    r.status = MissionStatus::Crashed;
                    r.failureReason = e.what();
                    return r;
                }
            });
    auto t1 = std::chrono::steady_clock::now();

    stats_.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    for (size_t i = 0; i < results.size(); ++i)
        stats_.missionWallSeconds[i] = results[i].wallSeconds;
    stats_.serialSeconds =
        std::accumulate(stats_.missionWallSeconds.begin(),
                        stats_.missionWallSeconds.end(), 0.0);
    return results;
}

std::vector<MissionResult>
runMissionBatch(const std::vector<MissionSpec> &specs, int jobs)
{
    BatchRunner runner(BatchOptions{jobs});
    return runner.run(specs);
}

namespace {

[[noreturn]] void
batchUsage(const char *argv0, const char *positionals, int status)
{
    std::FILE *out = status == 0 ? stdout : stderr;
    std::fprintf(out,
                 "usage: %s [--jobs N] [--batch-json PATH] %s\n"
                 "  --jobs N, -j N     worker threads (0 = hardware "
                 "concurrency; default 1)\n"
                 "  --batch-json PATH  batch timing report (default "
                 "BENCH_batch.json; \"\" disables)\n"
                 "  --help, -h         print this message\n",
                 argv0, positionals);
    std::exit(status);
}

} // namespace

BatchCli
parseBatchCli(int &argc, char **argv, const char *positionals)
{
    BatchCli cli;
    int out = 1;
    auto reject = [&](const char *what, const char *arg) {
        std::fprintf(stderr, "%s: %s '%s'\n", argv[0], what, arg);
        batchUsage(argv[0], positionals, 2);
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto takeValue = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                reject("missing value for", flag);
            return argv[++i];
        };
        auto setJobs = [&](const char *text) {
            if (!parseNumber(text, cli.jobs) || cli.jobs < 0)
                reject("--jobs needs a non-negative integer, got", text);
        };
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            batchUsage(argv[0], positionals, 0);
        } else if (std::strcmp(arg, "--jobs") == 0 ||
                   std::strcmp(arg, "-j") == 0) {
            setJobs(takeValue(arg));
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            setJobs(arg + 7);
        } else if (std::strcmp(arg, "--batch-json") == 0) {
            cli.jsonPath = takeValue(arg);
        } else if (std::strncmp(arg, "--batch-json=", 13) == 0) {
            cli.jsonPath = arg + 13;
        } else if (std::strncmp(arg, "--", 2) == 0) {
            reject("unknown option", arg);
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    return cli;
}

// ------------------------------------------------------------ BatchReport

void
BatchReport::add(const std::string &label, const BatchStats &stats)
{
    entries_.push_back(Entry{label, stats});
}

size_t
BatchReport::missions() const
{
    size_t n = 0;
    for (const Entry &e : entries_)
        n += e.stats.missions;
    return n;
}

namespace {

void
jsonEscape(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default: os << c;
        }
    }
    os << '"';
}

void
jsonBatch(std::ostream &os, const BatchStats &s)
{
    os << "{\"missions\": " << s.missions << ", \"jobs\": " << s.jobs
       << ", \"serial_seconds\": " << s.serialSeconds
       << ", \"wall_seconds\": " << s.wallSeconds
       << ", \"speedup\": " << s.speedup()
       << ", \"mission_wall_seconds\": [";
    for (size_t i = 0; i < s.missionWallSeconds.size(); ++i) {
        if (i)
            os << ", ";
        os << s.missionWallSeconds[i];
    }
    os << "]}";
}

} // namespace

std::string
BatchReport::toJson() const
{
    double wall = 0.0, serial = 0.0;
    int jobs = 1;
    for (const Entry &e : entries_) {
        wall += e.stats.wallSeconds;
        serial += e.stats.serialSeconds;
        jobs = e.stats.jobs;
    }

    std::ostringstream os;
    os.precision(6);
    os << "{\n  \"bench\": ";
    jsonEscape(os, bench_);
    os << ",\n  \"jobs\": " << jobs
       << ",\n  \"missions\": " << missions()
       << ",\n  \"serial_seconds\": " << serial
       << ",\n  \"wall_seconds\": " << wall << ",\n  \"speedup\": "
       << (wall > 0.0 ? serial / wall : 0.0) << ",\n  \"batches\": [";
    for (size_t i = 0; i < entries_.size(); ++i) {
        os << (i ? ",\n    " : "\n    ") << "{\"label\": ";
        jsonEscape(os, entries_[i].label);
        os << ", \"batch\": ";
        jsonBatch(os, entries_[i].stats);
        os << "}";
    }
    os << "\n  ]\n}\n";
    return os.str();
}

void
BatchReport::write(const std::string &path) const
{
    if (path.empty())
        return;
    std::ofstream out(path);
    if (!out) {
        rose_warn("cannot write batch report: ", path);
        return;
    }
    out << toJson();
    rose_inform("batch timing report written to ", path);
}

} // namespace rose::core
