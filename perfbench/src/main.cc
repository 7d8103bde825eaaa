/**
 * @file
 * rose_perfbench: the repository's end-to-end benchmark.
 *
 *   rose_perfbench --workload W --seed N --seconds S --trace 0|1
 *                  [--setup-only] [--trace-dir DIR]
 *
 * Workloads (see README.md for why each exists):
 *   golden_loop    the three golden tunnel missions (SoC A, B, C) run
 *                  back to back through core::CoSimulation, in-process;
 *   fine_sync_tcp  golden A at 1 M-cycle sync over TCP loopback;
 *   serve_short    open-loop 2 s missions against an in-process
 *                  MissionServer at 100/s (low) and 150/s (high);
 *   serve_long     open-loop heavy-trajectory missions (0.2 s at
 *                  20 k-cycle sync) at 8/s (low) and 12/s (high).
 *
 * Every output is checked: loop trajectories against the golden
 * hashes or a locally computed in-process reference, served results
 * against a local run of the same spec. The last stdout line is one
 * JSON object {correct, attempted, failed, metrics}.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/supervisor.hh"
#include "layers.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "stats.hh"
#include "util/hash.hh"

using namespace rose;
using namespace rosebench;
using Clock = std::chrono::steady_clock;

namespace {

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** A time point on layers.hh's nowNs() scale. */
int64_t
ns(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

// ------------------------------------------------------------ inputs

/** tests/test_golden.cc's pinned trajectory hashes. */
struct Golden
{
    const char *socName;
    uint64_t hash;
};
constexpr Golden kGolden[] = {
    {"A", 0x2b24ad514f06c3cbULL},
    {"B", 0x02771540364e358fULL},
    {"C", 0x0e337585f9a29f6aULL},
};

/** The golden mission: tunnel, ResNet14 @ 3 m/s, +20 deg, 10 s. */
core::MissionSpec
goldenSpec(const std::string &soc)
{
    core::MissionSpec spec;
    spec.world = "tunnel";
    spec.socName = soc;
    spec.modelDepth = 14;
    spec.velocity = 3.0;
    spec.initialYawDeg = 20.0;
    spec.seed = 1;
    spec.maxSimSeconds = 10.0;
    return spec;
}

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** One mission of a workload and the hash its trajectory must have. */
struct Mission
{
    core::MissionSpec spec;
    core::TransportKind transport = core::TransportKind::InProcess;
    uint64_t expectedHash = 0; ///< 0 until the reference is computed

    core::CosimConfig
    config() const
    {
        core::CosimConfig cfg = spec.toConfig();
        cfg.transport = transport;
        return cfg;
    }
};

/** Open-loop traffic levels of a serve workload [requests/s]. */
struct Rates
{
    double low = 0.0;
    double high = 0.0;
};

struct Workload
{
    std::string name;
    bool serve = false;
    /** Loop workloads: the missions of one sample, run back to back.
     *  Serve workloads: the request table requests cycle through. */
    std::vector<Mission> missions;
    Rates rates;
    /** Serve workloads: share of each block of @p block seconds
     *  spent at the low rate. */
    double lowShare = 0.5;
    double block = 2.0;
    /** Serve probe rate of a loop workload's traced run [1/s]. */
    double probeRate = 0.0;
};

constexpr size_t kRequestTable = 32;
constexpr int kServeWorkers = 3;
constexpr int kLoopThreadsHigh = kServeWorkers;

Workload
makeWorkload(const std::string &name, uint64_t seed)
{
    Workload w;
    w.name = name;
    if (name == "golden_loop") {
        // The seed only rotates the order of the three missions: the
        // goldens pin their inputs.
        for (size_t i = 0; i < 3; ++i) {
            const Golden &g = kGolden[(i + seed) % 3];
            Mission m;
            m.spec = goldenSpec(g.socName);
            m.expectedHash = g.hash;
            w.missions.push_back(m);
        }
        w.probeRate = 20.0;
    } else if (name == "fine_sync_tcp") {
        // Golden A's inputs at a finer sync: the seed changes nothing,
        // so seeds compare identical work.
        Mission m;
        m.spec = goldenSpec("A");
        m.spec.syncGranularity = 1'000'000;
        m.transport = core::TransportKind::Tcp;
        w.missions.push_back(m);
        w.probeRate = 4.0;
    } else if (name == "serve_short" || name == "serve_long") {
        const bool longer = name == "serve_long";
        w.serve = true;
        for (size_t i = 0; i < kRequestTable; ++i) {
            Mission m;
            m.spec = goldenSpec("A");
            m.spec.seed = 1 + splitmix64(seed * kRequestTable + i) % 100000;
            m.spec.maxSimSeconds = longer ? 0.2 : 2.0;
            if (longer)
                m.spec.syncGranularity = 20'000;
            w.missions.push_back(m);
        }
        w.rates = longer ? Rates{8.0, 12.0} : Rates{100.0, 150.0};
        w.lowShare = longer ? 0.65 : 0.5;
        w.block = longer ? 4.0 : 2.0;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

/** In-process reference hashes for the first @p count missions that
 *  still lack one. */
void
computeReferences(Workload &w, size_t count = SIZE_MAX)
{
    for (size_t i = 0; i < std::min(count, w.missions.size()); ++i) {
        Mission &m = w.missions[i];
        if (m.expectedHash != 0)
            continue;
        core::MissionResult r = core::runMission(m.spec);
        m.expectedHash = fnv1a(core::trajectoryCsvString(r));
    }
}

// --------------------------------------------------------- loop side

/** Host ms of one untraced mission (construction to teardown). */
struct MissionRun
{
    double ms = 0.0;
    uint64_t hash = 0;
    bool crashed = false;

    bool ok(const Mission &m) const
    { return !crashed && hash == m.expectedHash; }
};

MissionRun
runMissionTimed(const Mission &m)
{
    core::CosimConfig cfg = m.config();
    auto t0 = Clock::now();
    core::MissionResult r;
    {
        core::CoSimulation sim(cfg);
        r = sim.run();
    }
    auto t1 = Clock::now();
    MissionRun out;
    out.ms = msBetween(t0, t1);
    out.hash = fnv1a(core::trajectoryCsvString(r));
    out.crashed = r.status == core::MissionStatus::Crashed;
    return out;
}

struct SampleRun
{
    double ms = 0.0;
    bool ok = true;
};

SampleRun
runSample(const std::vector<Mission> &missions)
{
    SampleRun s;
    for (const Mission &m : missions) {
        MissionRun r = runMissionTimed(m);
        s.ms += r.ms;
        s.ok = s.ok && r.ok(m);
    }
    return s;
}

struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool valid = true;

    void
    add(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

/**
 * Two serial samples (low) alternating with one round of
 * kLoopThreadsHigh concurrent samples (high) until @p seconds elapse.
 * Alternating this finely means a slow spell of the host hits both
 * levels alike instead of one whole phase; two serial samples per
 * round keep at least 100 of them on every loop workload, so the p90
 * rule applies.
 */
void
loopLevels(const std::vector<Mission> &missions, double seconds,
           Tally &tally, std::vector<double> &low, std::vector<double> &high)
{
    const auto end = Clock::now() + std::chrono::duration<double>(seconds);
    do {
        for (int i = 0; i < 2; ++i) {
            SampleRun s = runSample(missions);
            tally.add(s.ok);
            low.push_back(s.ms);
        }

        std::vector<SampleRun> round(kLoopThreadsHigh);
        std::vector<std::thread> threads;
        for (int k = 0; k < kLoopThreadsHigh; ++k)
            threads.emplace_back(
                [&, k] { round[size_t(k)] = runSample(missions); });
        for (std::thread &th : threads)
            th.join();
        for (const SampleRun &r : round) {
            tally.add(r.ok);
            high.push_back(r.ms);
        }
    } while (Clock::now() < end);
}

// -------------------------------------------------------- serve side

/** How often outstanding jobs are polled: well under a millisecond,
 *  so completion discovery does not quantise latency. */
constexpr auto kPollInterval = std::chrono::microseconds(500);
/** Lateness beyond which the generator counts as behind schedule. */
constexpr double kMaxLateMs = 250.0;

struct Request
{
    double latencyMs = 0.0; ///< due time to verified result
    double submitMs = 0.0;
    double fetchMs = 0.0;   ///< the completing tryFetchResult
    double queueWaitMs = 0.0;
    double serviceMs = 0.0;
    uint32_t polls = 0;
    bool high = false;      ///< sent at the high rate
};

struct OpenLoop
{
    std::vector<Request> done; ///< verified requests only
    double lateMaxMs = 0.0;
};

serve::ServerConfig
serverConfig()
{
    // rosed's defaults with three workers, except admission: under an
    // open loop a host stall of ~100 ms would otherwise fill the
    // per-connection cap and shed requests. Here a stall shows up as
    // latency instead, and every request still counts.
    serve::ServerConfig cfg;
    cfg.workers = kServeWorkers;
    cfg.maxQueueDepth = 4096;
    cfg.perClientInFlight = 4096;
    return cfg;
}

/** One scheduled request: its offset from the start [s] and level. */
struct Arrival
{
    double at = 0.0;
    bool high = false;
};

/** Evenly spaced arrivals at @p rate for @p seconds. */
std::vector<Arrival>
uniformArrivals(double rate, double seconds)
{
    std::vector<Arrival> v;
    const size_t n = std::max<size_t>(1, size_t(rate * seconds));
    for (size_t i = 0; i < n; ++i)
        v.push_back({double(i) / rate, false});
    return v;
}

/**
 * Blocks of @p block seconds, each spending @p low_share of its time at
 * the low rate and the rest at the high rate, for @p seconds. As with
 * loopLevels, alternating spreads a slow spell over both levels.
 */
std::vector<Arrival>
blockArrivals(const Rates &rates, double low_share, double block,
              double seconds)
{
    // At least one whole block, so a run shorter than a block still
    // sends requests at both rates.
    const size_t blocks =
        std::max<size_t>(1, size_t(std::floor(seconds / block + 1e-9)));
    std::vector<Arrival> v;
    for (size_t b = 0; b < blocks; ++b) {
        const double t0 = double(b) * block;
        const double low_s = block * low_share;
        for (const Arrival &a : uniformArrivals(rates.low, low_s))
            v.push_back({t0 + a.at, false});
        for (const Arrival &a : uniformArrivals(rates.high, block - low_s))
            v.push_back({t0 + low_s + a.at, true});
    }
    return v;
}

/**
 * One generator thread and two connections replay @p schedule open
 * loop. Requests cycle through the workload's table from @p cursor.
 * Each request is timed from its due time to its verified result;
 * verification happens after the timestamp.
 */
OpenLoop
openLoop(uint16_t port, const Workload &w,
         const std::vector<Arrival> &schedule, size_t &cursor, Tally &tally,
         SpanLog *spans, uint64_t &ids)
{
    serve::ServeClient conn0(port), conn1(port);
    serve::ServeClient *conns[2] = {&conn0, &conn1};

    struct Pending
    {
        uint64_t job = 0;
        size_t conn = 0;
        size_t mission = 0;
        uint64_t id = 0;
        bool high = false;
        Clock::time_point due;
        double submitMs = 0.0;
        uint32_t polls = 0;
    };

    const size_t n = schedule.size();
    const Clock::time_point origin =
        Clock::now() + std::chrono::milliseconds(2);
    auto due = [&](size_t i) {
        return origin + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(schedule[i].at));
    };
    const Clock::time_point hard_stop =
        due(n - 1) + std::chrono::seconds(60);

    OpenLoop out;
    std::vector<Pending> pending;
    size_t next = 0;
    while (next < n || !pending.empty()) {
        Clock::time_point now = Clock::now();
        if (now > hard_stop) {
            std::fprintf(stderr, "perfbench: %zu requests never "
                                 "finished\n", pending.size());
            for (size_t i = 0; i < pending.size(); ++i)
                tally.add(false);
            break;
        }
        while (next < n && now >= due(next)) {
            Pending p;
            p.due = due(next);
            p.high = schedule[next].high;
            p.conn = next % 2;
            p.mission = cursor++ % w.missions.size();
            p.id = ids++;
            out.lateMaxMs = std::max(out.lateMaxMs, msBetween(p.due, now));
            serve::SubmitOutcome o =
                conns[p.conn]->submit(w.missions[p.mission].spec);
            Clock::time_point t1 = Clock::now();
            p.submitMs = msBetween(now, t1);
            if (spans)
                spans->add("serve.submit", ns(now), ns(t1), p.id);
            if (o.accepted) {
                p.job = o.jobId;
                pending.push_back(p);
            } else {
                std::fprintf(stderr, "perfbench: request shed: %s\n",
                             o.detail.c_str());
                tally.add(false);
            }
            ++next;
            now = t1;
        }
        // Workers take jobs in order and the jobs are alike, so they
        // finish about in order: poll only each connection's oldest
        // job, and the next one as soon as it finished. This keeps the
        // polls' own load off the server's IO thread.
        bool waiting[2] = {false, false};
        for (size_t i = 0; i < pending.size();) {
            if (next < n && Clock::now() >= due(next))
                break; // submissions come first
            Pending &p = pending[i];
            if (waiting[p.conn]) {
                ++i;
                continue;
            }
            serve::ServedResult res;
            serve::JobState state{};
            Clock::time_point t0 = Clock::now();
            bool finished = false, ok = false;
            try {
                finished = conns[p.conn]->tryFetchResult(
                    p.job, res, &state, serve::TrajectoryEncoding::Binary);
                ok = finished;
            } catch (const std::exception &e) {
                std::fprintf(stderr, "perfbench: fetch failed: %s\n",
                             e.what());
                finished = true;
            }
            Clock::time_point t1 = Clock::now();
            ++p.polls;
            if (!finished) {
                waiting[p.conn] = true;
                ++i;
                continue;
            }
            Request r;
            r.latencyMs = msBetween(p.due, t1);
            r.submitMs = p.submitMs;
            r.fetchMs = msBetween(t0, t1);
            r.queueWaitMs = res.queueWaitMs;
            r.serviceMs = res.serviceMs;
            r.polls = p.polls;
            r.high = p.high;
            if (spans)
                spans->add("serve.fetch", ns(t0), ns(t1), p.id);
            // Outside the timed window: the served bytes must equal a
            // local run of the same spec.
            ok = ok && state == serve::JobState::Done &&
                 res.status != uint8_t(core::MissionStatus::Crashed) &&
                 trajectoryHash(res.trajectory) ==
                     w.missions[p.mission].expectedHash;
            tally.add(ok);
            if (ok)
                out.done.push_back(r);
            pending.erase(pending.begin() + long(i));
        }
        Clock::time_point wake = Clock::now() + kPollInterval;
        if (next < n)
            wake = std::min(wake, due(next));
        std::this_thread::sleep_until(wake);
    }
    if (out.lateMaxMs > kMaxLateMs) {
        std::fprintf(stderr,
                     "perfbench: generator fell %.1f ms behind its "
                     "schedule; run invalid\n",
                     out.lateMaxMs);
        tally.valid = false;
    }
    return out;
}

std::vector<double>
latencies(const OpenLoop &o, bool high)
{
    std::vector<double> v;
    for (const Request &r : o.done)
        if (r.high == high)
            v.push_back(r.latencyMs);
    return v;
}

// ------------------------------------------------------------ output

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        rows_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::string s = "{";
        for (size_t i = 0; i < rows_.size(); ++i) {
            char buf[512];
            std::snprintf(buf, sizeof(buf),
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i ? ", " : "", rows_[i].name.c_str(),
                          rows_[i].value, rows_[i].unit.c_str());
            s += buf;
        }
        return s + "}";
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Row> rows_;
};

/**
 * This process's peak resident memory. VmHWM, not getrusage(): Linux
 * carries ru_maxrss across execve(), so a small benchmark process
 * would report its launcher's peak.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

void
printResult(bool correct, const Tally &t, const Metrics &m)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                (unsigned long long)t.attempted,
                (unsigned long long)t.failed, m.json().c_str());
    std::fflush(stdout);
}

// ------------------------------------------------------------- setup

/**
 * Cold start to the first verified result: the first sample of a loop
 * workload, or server start plus the first served request. Cache
 * builds land here; the reference computation does not.
 */
struct Setup
{
    double seconds = 0.0;
    std::unique_ptr<serve::MissionServer> server;
};

Setup
coldSetup(Workload &w, Tally &tally)
{
    Setup s;
    auto t0 = Clock::now();
    if (!w.serve) {
        std::vector<MissionRun> runs;
        for (const Mission &m : w.missions)
            runs.push_back(runMissionTimed(m));
        s.seconds = msBetween(t0, Clock::now()) / 1e3;
        computeReferences(w);
        bool ok = true;
        for (size_t i = 0; i < runs.size(); ++i)
            ok = ok && runs[i].ok(w.missions[i]);
        tally.add(ok);
        return s;
    }
    s.server = std::make_unique<serve::MissionServer>(serverConfig());
    s.server->start();
    serve::ServeClient client(s.server->port());
    serve::SubmitOutcome o = client.submit(w.missions[0].spec);
    serve::ServedResult res;
    serve::JobState state{};
    bool ok = o.accepted;
    while (ok && !client.tryFetchResult(o.jobId, res, &state,
                                        serve::TrajectoryEncoding::Binary))
        std::this_thread::sleep_for(kPollInterval);
    s.seconds = msBetween(t0, Clock::now()) / 1e3;
    computeReferences(w, 1);
    tally.add(ok && state == serve::JobState::Done &&
              trajectoryHash(res.trajectory) == w.missions[0].expectedHash);
    return s;
}

// -------------------------------------------------------------- runs

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    std::string traceDir = ".";
};

int
runUntraced(const Options &opt, Workload &w)
{
    Tally tally;
    Setup setup = coldSetup(w, tally);
    computeReferences(w);
    std::vector<double> low, high;
    if (!w.serve) {
        loopLevels(w.missions, opt.seconds, tally, low, high);
    } else {
        size_t cursor = 1;
        uint64_t ids = 0;
        OpenLoop ol = openLoop(
            setup.server->port(), w,
            blockArrivals(w.rates, w.lowShare, w.block, opt.seconds),
            cursor, tally, nullptr, ids);
        low = latencies(ol, false);
        high = latencies(ol, true);
        setup.server->stop();
    }
    // The reported figure is p75, not the median: see README.md, "Why
    // p75". The median and the tail go to stderr.
    for (const auto &[level, v] : {std::pair{"low", &low}, {"high", &high}}) {
        const double tail_q = tailPercentile(v->size(), 99.0);
        std::fprintf(stderr,
                     "perfbench: %s %s n=%zu p50 %.3f p75 %.3f p%g %.3f "
                     "ms\n",
                     w.name.c_str(), level, v->size(), percentile(*v, 50.0),
                     percentile(*v, 75.0), tail_q, percentile(*v, tail_q));
        if (tail_q < 75.0)
            std::fprintf(stderr, "perfbench: fewer than ten %s samples "
                                 "beyond p75\n", level);
    }

    Metrics m;
    m.add("setup_s", setup.seconds, "s");
    m.add("lat_p75_ms", percentile(low, 75.0), "ms");
    m.add("lat_p75_ms.high", percentile(high, 75.0), "ms");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    printResult(tally.failed == 0 && tally.valid, tally, m);
    return 0;
}

/** Traced samples interleaved with untraced ones, for the per-layer
 *  breakdown and the tracing overhead. */
struct LoopTrace
{
    LayerTimes sum; ///< over all traced samples
    size_t samples = 0;
    std::vector<double> tracedMs, untracedMs;
};

LoopTrace
tracedLoop(const Workload &w, double seconds, Tally &tally, SpanLog &spans,
           uint64_t &ids)
{
    LoopTrace lt;
    // A loop sample is all of a loop workload's missions, or one
    // mission of a serve workload's table.
    auto sampleOf = [&](size_t k) {
        if (!w.serve)
            return w.missions;
        return std::vector<Mission>{w.missions[k % w.missions.size()]};
    };
    auto end = Clock::now() + std::chrono::duration<double>(seconds);
    size_t k = 0;
    do {
        std::vector<Mission> sample = sampleOf(k);
        SampleRun plain = runSample(sample);
        tally.add(plain.ok);
        lt.untracedMs.push_back(plain.ms);

        double ms = 0.0;
        bool ok = true;
        for (const Mission &m : sample) {
            auto t0 = Clock::now();
            TracedMission tm =
                runTracedMission(m.config(), k == 0 ? &spans : nullptr,
                                 ids++);
            ms += msBetween(t0, Clock::now());
            ok = ok && trajectoryHash(tm.trajectory) == m.expectedHash;
            lt.sum += tm.times;
        }
        if (!ok)
            std::fprintf(stderr, "perfbench: traced trajectory differs "
                                 "from the untraced one\n");
        tally.add(ok);
        lt.tracedMs.push_back(ms);
        ++lt.samples;
        ++k;
    } while (Clock::now() < end);
    return lt;
}

/** Standalone core / serve-marshal costs of one sample's missions,
 *  run in-process the way rosed runs them. */
struct CoreCosts
{
    double cosimMs = 0.0;
    double supervisedMs = 0.0;
    double checkpointMs = 0.0;
    double checkpoints = 0.0;
    double checkpointBytes = 0.0;
    double marshalMs = 0.0;
};

CoreCosts
coreCosts(const std::vector<Mission> &missions, Tally &tally)
{
    CoreCosts c;
    for (const Mission &m : missions) {
        core::CosimConfig cfg = m.spec.toConfig();
        core::MissionResult r;
        auto t0 = Clock::now();
        {
            core::CoSimulation sim(cfg);
            r = sim.run();
        }
        c.cosimMs += msBetween(t0, Clock::now());

        auto t1 = Clock::now();
        serve::ServedResult served = serve::marshalResult(r);
        c.marshalMs += msBetween(t1, Clock::now());
        tally.add(served.trajectoryHash == m.expectedHash);

        // rosed's supervisor cadence (server.cc): at least the
        // configured period, raised so a mission takes at most
        // supervisorCheckpointCap snapshots.
        serve::ServerConfig scfg = serverConfig();
        core::SupervisorConfig sc = scfg.supervisor;
        double expected = cfg.maxSimSeconds * cfg.sync.clocks.socClockHz /
                          double(m.spec.syncGranularity);
        sc.checkpointPeriods = std::max<uint64_t>(
            sc.checkpointPeriods,
            uint64_t(expected / double(scfg.supervisorCheckpointCap)) + 1);
        auto t2 = Clock::now();
        core::MissionSupervisor sup(cfg, sc);
        core::MissionResult sr = sup.run();
        c.supervisedMs += msBetween(t2, Clock::now());
        tally.add(fnv1a(core::trajectoryCsvString(sr)) == m.expectedHash);

        // The checkpoints alone, at the same cadence.
        core::CoSimulation sim(cfg);
        while (sim.environment().simTime() < cfg.maxSimSeconds) {
            sim.stepPeriod();
            if (sim.periods() % sc.checkpointPeriods == 0) {
                auto t3 = Clock::now();
                core::Checkpoint ck = sim.checkpoint();
                c.checkpointMs += msBetween(t3, Clock::now());
                c.checkpoints += 1.0;
                c.checkpointBytes += double(ck.state.size());
            }
            if (sim.environment().missionComplete())
                break;
        }
    }
    return c;
}

void
writeLayerTable(const std::string &path, const std::string &title,
                const LayerTimes &t, size_t samples)
{
    std::ofstream os(path);
    if (!os)
        return;
    const double n = double(std::max<size_t>(1, samples));
    const double total = double(t.total) / n;
    struct Row
    {
        const char *name;
        int64_t ns;
    };
    const Row rows[] = {
        {"env.step", t.envStep()},
        {"sync.service_image", t.serviceImage},
        {"sync.service_cmd", t.serviceCmd},
        {"sync.service_other", t.serviceOther},
        {"sync.grant", t.grant()},
        {"bridge.transport_sync", t.transportSync},
        {"bridge.transport_soc", t.transportSoc},
        {"runtime.app", t.appSelf()},
        {"soc.engine", t.engine()},
        {"core.build", t.build},
        {"core.loop_other", t.loopOther()},
    };
    os << title << ": self time per sample over " << samples
       << " traced samples\n";
    char buf[160];
    double sum = 0.0;
    for (const Row &r : rows) {
        double v = double(r.ns) / n;
        sum += v;
        std::snprintf(buf, sizeof(buf), "%-24s %14.0f ns  %6.2f%%\n",
                      r.name, v, total > 0 ? 100.0 * v / total : 0.0);
        os << buf;
    }
    std::snprintf(buf, sizeof(buf), "%-24s %14.0f ns  (sum %.0f ns)\n",
                  "total", total, sum);
    os << buf;
}

int
runTraced(const Options &opt, Workload &w)
{
    Tally tally;
    Setup setup = coldSetup(w, tally);
    computeReferences(w);
    SpanLog spans;
    uint64_t ids = 1;

    LoopTrace lt = tracedLoop(w, opt.seconds * 0.5, tally, spans, ids);

    // Standalone core costs: median of three passes over one sample.
    std::vector<Mission> one = w.serve ? std::vector<Mission>{w.missions[0]}
                                       : w.missions;
    std::vector<CoreCosts> passes;
    for (int i = 0; i < 3; ++i)
        passes.push_back(coreCosts(one, tally));
    auto med = [&](double CoreCosts::*f) {
        std::vector<double> v;
        for (const CoreCosts &c : passes)
            v.push_back(c.*f);
        return percentile(v, 50.0);
    };

    // Serve probe: the workload's own low-rate traffic, or for a loop
    // workload its missions served in-process at a light rate.
    Workload probe = w;
    double rate = w.serve ? w.rates.low : w.probeRate;
    if (!w.serve)
        for (Mission &m : probe.missions)
            m.transport = core::TransportKind::InProcess;
    if (!setup.server) {
        setup.server =
            std::make_unique<serve::MissionServer>(serverConfig());
        setup.server->start();
    }
    size_t cursor = 1;
    OpenLoop ol = openLoop(setup.server->port(), probe,
                           uniformArrivals(rate, opt.seconds * 0.3), cursor,
                           tally, &spans, ids);
    serve::ServerStatsData st = setup.server->stats();
    setup.server->stop();

    std::vector<double> submit, fetch, other, polls, qwait, service;
    for (const Request &r : ol.done) {
        submit.push_back(r.submitMs);
        fetch.push_back(r.fetchMs);
        other.push_back(r.latencyMs - r.submitMs - r.fetchMs);
        polls.push_back(double(r.polls));
        qwait.push_back(r.queueWaitMs);
        service.push_back(r.serviceMs);
    }
    const double jobs = double(std::max<uint64_t>(1, st.completed));

    const double n = double(std::max<size_t>(1, lt.samples));
    const LayerTimes &t = lt.sum;
    auto per = [&](int64_t ns) { return double(ns) / n; };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double overhead = ratio(percentile(lt.tracedMs, 50.0),
                                  percentile(lt.untracedMs, 50.0)) -
                            1.0;

    Metrics m;
    m.add("env.step_ns", per(t.envStep()), "ns");
    m.add("env.step_ns_per_frame",
          ratio(double(t.envStep()), double(t.frames)), "ns");
    m.add("sync.service_image_ns", per(t.serviceImage), "ns");
    m.add("sync.service_image_ns_per_image",
          ratio(double(t.serviceImage), double(t.imageRequests)), "ns");
    m.add("sync.service_cmd_ns", per(t.serviceCmd), "ns");
    m.add("sync.grant_ns", per(t.grant()), "ns");
    m.add("sync.begin_ns", per(t.syncBegin), "ns");
    m.add("sync.end_ns", per(t.syncEnd), "ns");
    m.add("bridge.transport_sync_ns", per(t.transportSync), "ns");
    m.add("bridge.transport_soc_ns", per(t.transportSoc), "ns");
    m.add("bridge.transport_ns_per_packet",
          ratio(double(t.transportSync + t.transportSoc),
                double(t.packets)),
          "ns");
    m.add("runtime.app_ns", per(t.appSelf()), "ns");
    m.add("runtime.app_ns_per_inference",
          ratio(double(t.appSelf()), double(t.inferences)), "ns");
    m.add("soc.run_period_ns", per(t.socRun), "ns");
    m.add("soc.engine_ns", per(t.engine()), "ns");
    m.add("soc.engine_ns_per_period",
          ratio(double(t.engine()), double(t.periods)), "ns");
    m.add("core.build_ns", per(t.build), "ns");
    m.add("core.loop_total_ns", per(t.total), "ns");
    m.add("core.loop_other_ns", per(t.loopOther()), "ns");
    m.add("sync.periods", per(int64_t(t.periods)), "count");
    m.add("env.frames", per(int64_t(t.frames)), "count");
    m.add("sync.image_requests", per(int64_t(t.imageRequests)), "count");
    m.add("bridge.mmio_reads", per(int64_t(t.mmioReads)), "count");
    m.add("bridge.packets", per(int64_t(t.packets)), "count");
    m.add("bridge.wire_bytes", per(int64_t(t.wireBytes)), "bytes");
    m.add("soc.actions", per(int64_t(t.actions)), "count");
    m.add("runtime.inferences", per(int64_t(t.inferences)), "count");
    m.add("core.cosim_run_ms", med(&CoreCosts::cosimMs), "ms");
    m.add("core.supervised_run_ms", med(&CoreCosts::supervisedMs), "ms");
    m.add("core.checkpoint_ms", med(&CoreCosts::checkpointMs), "ms");
    m.add("core.checkpoints", med(&CoreCosts::checkpoints), "count");
    m.add("core.checkpoint_bytes", med(&CoreCosts::checkpointBytes),
          "bytes");
    m.add("serve.marshal_ms", med(&CoreCosts::marshalMs), "ms");
    m.add("serve.submit_ms", mean(submit), "ms");
    m.add("serve.fetch_ms", mean(fetch), "ms");
    m.add("serve.polls_per_job", mean(polls), "count");
    m.add("serve.other_ms", mean(other), "ms");
    m.add("serve.queue_wait_ms.p50", percentile(qwait, 50.0), "ms");
    m.add("serve.queue_wait_ms.p99", percentile(qwait, 99.0), "ms");
    m.add("serve.service_ms.p50", percentile(service, 50.0), "ms");
    m.add("serve.wire_bytes", double(st.streamedPayloadBytes) / jobs,
          "bytes");
    m.add("serve.chunks", double(st.streamedChunks) / jobs, "count");
    m.add("loadgen.late_ms_max", ol.lateMaxMs, "ms");
    m.add("trace.overhead_frac", overhead, "fraction");

    std::string stem = opt.traceDir + "/" + w.name + "-s" +
                       std::to_string(opt.seed);
    if (!spans.writeChromeTrace(stem + ".trace.json"))
        std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n",
                     stem.c_str());
    writeLayerTable(stem + ".layers.txt", w.name, t, lt.samples);
    std::fprintf(stderr,
                 "perfbench: traced %zu samples; %zu spans (%llu dropped) "
                 "in %s.*\n",
                 lt.samples, spans.spans().size(),
                 (unsigned long long)spans.dropped(), stem.c_str());

    printResult(tally.failed == 0 && tally.valid, tally, m);
    return 0;
}

int
runSetupOnly(Workload &w)
{
    Tally tally;
    Setup setup = coldSetup(w, tally);
    if (setup.server)
        setup.server->stop();
    std::printf("{\"setup_s\": %.17g, \"correct\": %s}\n", setup.seconds,
                tally.failed == 0 ? "true" : "false");
    return 0;
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --seconds S "
                 "--trace 0|1 [--setup-only] [--trace-dir DIR]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = value();
        else if (a == "--seed")
            opt.seed = std::stoull(value());
        else if (a == "--seconds")
            opt.seconds = std::stod(value());
        else if (a == "--trace")
            opt.trace = value() != "0";
        else if (a == "--setup-only")
            opt.setupOnly = true;
        else if (a == "--trace-dir")
            opt.traceDir = value();
        else
            usage(argv[0]);
    }
    if (opt.workload.empty() || !(opt.seconds > 0.0))
        usage(argv[0]);

    try {
        Workload w = makeWorkload(opt.workload, opt.seed);
        if (opt.setupOnly)
            return runSetupOnly(w);
        return opt.trace ? runTraced(opt, w) : runUntraced(opt, w);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
