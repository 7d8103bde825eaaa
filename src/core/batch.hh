/**
 * @file
 * Deterministic parallel mission batch execution.
 *
 * Every evaluation in the paper (Section 5, Figures 10-16) is a sweep
 * of independent closed-loop missions across SoC configs, DNN depths,
 * velocities, and seeds; the authors fan those out across FPGAs. Here
 * BatchRunner fans them out across a worker thread pool.
 *
 * Determinism contract (enforced by tests/test_batch.cc):
 *
 *   For any job count and any scheduling, the MissionResults returned
 *   by a batch are identical to running each spec through serial
 *   runMission(), in submission order — with the sole exception of the
 *   wall-clock fields (MissionResult::wallSeconds and derived rates),
 *   which measure the host, not the simulation.
 *
 * What makes this hold:
 *  - each mission owns its entire simulation stack (CoSimulation
 *    constructs a private environment, bridge, SoC engine, and app);
 *  - all randomness is drawn from per-mission Rng instances seeded
 *    from the spec — there is no process-global generator;
 *  - the only cross-mission shared objects are immutable artifacts
 *    (env::sharedWorld geometry, dnn::sharedResNet checkpoints) behind
 *    thread-safe build-once caches (util/memo.hh);
 *  - the logging sink is an atomic-threshold single-write-per-line
 *    stderr stream: concurrency can interleave *lines*, never results.
 */

#ifndef ROSE_CORE_BATCH_HH
#define ROSE_CORE_BATCH_HH

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hh"

namespace rose::core {

/**
 * Deterministic ordered parallel map: evaluate fn(0..n-1) on up to
 * @p jobs worker threads and return the results in index order.
 * fn must not touch shared mutable state; result identity with a
 * serial loop is then independent of the thread count.
 *
 * jobs <= 1 runs inline (no threads spawned); jobs == 0 uses
 * std::thread::hardware_concurrency().
 */
template <typename R>
std::vector<R>
parallelIndexed(size_t n, int jobs, const std::function<R(size_t)> &fn)
{
    std::vector<R> results(n);
    if (n == 0)
        return results;

    unsigned want = jobs == 0 ? std::thread::hardware_concurrency()
                              : unsigned(jobs);
    if (want == 0)
        want = 1;
    unsigned workers = unsigned(std::min<size_t>(want, n));

    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i)
            results[i] = fn(i);
        return results;
    }

    // Work-stealing by atomic ticket: the assignment of missions to
    // threads is scheduling-dependent, but results are written to
    // their submission slot, so output order never is.
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            results[i] = fn(i);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    return results;
}

/** Batch execution options. */
struct BatchOptions
{
    /** Worker threads; 0 = hardware concurrency, 1 = run inline. */
    int jobs = 1;
};

/** Aggregate timing of one executed batch. */
struct BatchStats
{
    size_t missions = 0;
    int jobs = 1;
    /** Wall-clock of the whole batch [s]. */
    double wallSeconds = 0.0;
    /** Serial-equivalent time: sum of per-mission wall clocks [s]. */
    double serialSeconds = 0.0;
    /** Per-mission wall clocks, submission order [s]. */
    std::vector<double> missionWallSeconds;

    /** Parallel speedup vs running the same missions back to back. */
    double
    speedup() const
    {
        return wallSeconds > 0.0 ? serialSeconds / wallSeconds : 0.0;
    }
};

/** The worker-pool mission batch executor. */
class BatchRunner
{
  public:
    explicit BatchRunner(const BatchOptions &opts = {}) : opts_(opts) {}

    /**
     * Run every spec to completion/timeout; results in submission
     * order, byte-identical to serial runMission() (see the
     * determinism contract above).
     */
    std::vector<MissionResult> run(const std::vector<MissionSpec> &specs);

    /** Timing of the most recent run(). */
    const BatchStats &stats() const { return stats_; }

  private:
    BatchOptions opts_;
    BatchStats stats_;
};

/** One-shot convenience wrapper. */
std::vector<MissionResult>
runMissionBatch(const std::vector<MissionSpec> &specs, int jobs = 1);

// --------------------------------------------------------------------
// Bench-harness plumbing: --jobs flag and BENCH_batch.json emission.

/**
 * Command-line options shared by all sweep benches. parseBatchCli
 * strips the recognized flags out of argv (compacting argc) so
 * benches can keep parsing their own positionals afterwards:
 *
 *   --jobs N | -j N   worker threads (0 = hardware concurrency)
 *   --batch-json PATH batch timing report path
 *                     (default BENCH_batch.json; "" disables)
 *   --help | -h       print usage and exit 0
 *
 * Input is validated strictly: an unrecognized --flag, a missing
 * value, or a --jobs value that is not a whole non-negative number
 * prints a message and the usage to stderr and exits 2.
 */
struct BatchCli
{
    int jobs = 1;
    std::string jsonPath = "BENCH_batch.json";

    BatchOptions options() const { return BatchOptions{jobs}; }
};

/**
 * @param positionals synopsis of the caller's own positional
 *        arguments for the usage line, e.g. "[world] [velocity]".
 */
BatchCli parseBatchCli(int &argc, char **argv,
                       const char *positionals = "");

/**
 * Machine-readable perf trajectory of a bench run. Each converted
 * sweep bench records the batches it executed and writes one JSON
 * document (overwriting: the file describes the last run):
 *
 * {
 *   "bench": "<name>",
 *   "jobs": N,
 *   "missions": total,
 *   "serial_seconds": s, "wall_seconds": w, "speedup": s/w,
 *   "batches": [ {"label": ..., "missions": ..., "jobs": ...,
 *                 "serial_seconds": ..., "wall_seconds": ...,
 *                 "speedup": ..., "mission_wall_seconds": [...]}, ... ]
 * }
 */
class BatchReport
{
  public:
    explicit BatchReport(const std::string &bench) : bench_(bench) {}

    /** Record one executed batch under a human-readable label. */
    void add(const std::string &label, const BatchStats &stats);

    /** Missions recorded so far across all batches. */
    size_t missions() const;

    /** Serialize to JSON text. */
    std::string toJson() const;

    /** Write the JSON document; empty path is a no-op. */
    void write(const std::string &path) const;

  private:
    struct Entry
    {
        std::string label;
        BatchStats stats;
    };

    std::string bench_;
    std::vector<Entry> entries_;
};

} // namespace rose::core

#endif // ROSE_CORE_BATCH_HH
