/**
 * @file
 * `rosed` — the concurrent mission-service daemon.
 *
 * Turns the in-process mission library into a long-lived service:
 * clients connect over TCP, submit MissionSpecs through the serve
 * wire protocol (proto.hh), and fetch results whose trajectory bytes
 * are bit-identical to a local runMission() of the same spec.
 *
 * Architecture (one process, four kinds of threads):
 *
 *  - IO thread: a poll(2) loop over the bridge::TcpListener and every
 *    live connection. Each connection owns a MessageBuffer read state
 *    machine; requests are decoded, answered synchronously, and
 *    submissions are handed to the job queue. A terminal job's
 *    FetchResult opens a *result stream* on its connection: the
 *    trajectory's binary records are sliced into ResultChunk frames
 *    generated
 *    under a per-stream backlog cap and drained through the same
 *    POLLOUT tx-buffer machinery as every other reply, then closed
 *    with a ResultEnd carrying the scalar result and the FNV-1a
 *    verification hash. While a stream is open, further requests
 *    buffered on that connection are deferred (strict per-connection
 *    ordering); other connections are untouched. A peer close
 *    (orderly or reset) retires the connection; a framing violation
 *    poisons and drops it.
 *
 *  - Worker pool: `workers` threads launched through
 *    core::parallelIndexed (the batch runner's deterministic pool
 *    primitive) — the pool *is* a parallel indexed map over worker
 *    slots whose body loops on the queue. Each job executes through
 *    core::MissionSupervisor, so served missions inherit
 *    checkpoint/restore, fault retry, and degraded-mode behavior; a
 *    supervised run that never trips a watchdog is bit-identical to
 *    the unsupervised (and thus to the client's local) run. The
 *    supervisor's snapshot observer is the job's only outside view:
 *    each snapshot is persisted (journaled jobs), posted to the
 *    worker's encoder thread, and published as the job's latest
 *    progress; the IO thread drains that map once per poll tick into
 *    Progress push frames on the owning connection.
 *
 *  - Encoder threads: one per worker, started and joined with it
 *    (serve/encoder_thread.hh). Each snapshot's sealed trajectory
 *    chunks are posted to it, so most of the result records are
 *    encoded while the mission still runs; the worker encodes the
 *    rest at mission end, to the same bytes.
 *
 *  - The owner thread: constructs/starts/stops the server.
 *
 * Admission control and backpressure: the job queue is bounded
 * (maxQueueDepth), each connection has an in-flight cap
 * (perClientInFlight), and excess submissions are *rejected
 * explicitly* (SubmitRejected{queue_full|client_cap}) rather than
 * buffered — load is shed at the front door, in-flight missions are
 * never disturbed, and every shed request is counted in the stats
 * clients can query with ServerStats. Mission length is not an
 * admission criterion: results of any size stream in bounded chunks.
 *
 * Determinism: mission execution shares nothing across jobs except
 * the immutable artifact caches (util/memo.hh), exactly like
 * core::BatchRunner; a result served to any client therefore hashes
 * identically to the same spec run locally (tests/test_serve.cc pins
 * this against the golden missions).
 *
 * Durability (ServerConfig::journalDir): submissions, terminal
 * results, and releases are write-ahead journaled (serve/journal.hh)
 * and every job persists its latest snapshot, so a
 * SIGKILLed daemon restarted on the same directory replays its job
 * table, deduplicates resubmissions by idempotency key, warm-
 * restores interrupted missions, and serves their results with
 * hashes bit-identical to uninterrupted runs (determinism is what
 * makes even a cold re-run indistinguishable).
 */

#ifndef ROSE_SERVE_SERVER_HH
#define ROSE_SERVE_SERVER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bridge/transport.hh"
#include "core/supervisor.hh"
#include "serve/journal.hh"
#include "serve/proto.hh"

namespace rose::serve {

/** Daemon configuration. */
struct ServerConfig
{
    /** Listen port on 127.0.0.1; 0 selects an ephemeral port
     *  (retrieve it with MissionServer::port()). */
    uint16_t port = 0;
    /** Mission worker threads. */
    int workers = 2;
    /** Bounded queue: jobs admitted but not yet running. Submissions
     *  beyond this depth are rejected with queue_full. */
    size_t maxQueueDepth = 16;
    /** Per-connection cap on unfinished (queued + running) jobs. */
    uint32_t perClientInFlight = 8;
    /**
     * Supervisor knobs: every job runs under MissionSupervisor
     * (checkpoint/retry). rosed sets the snapshot observer itself;
     * each snapshot is also the job's progress event.
     */
    core::SupervisorConfig supervisor;
    /**
     * Upper bound on checkpoints taken over one mission: the effective
     * snapshot cadence is raised to at least expectedPeriods / cap. A
     * snapshot shares the trajectory's sealed chunks rather than
     * copying samples, but it still serializes the rest of the state
     * (about 14 KB, mostly the App section's cached image), so the cap
     * bounds how many of those serializations a fine-grained mission
     * pays for.
     */
    static constexpr uint32_t supervisorCheckpointCap = 64;
    /** IO-loop poll granularity [ms] (also shutdown latency bound). */
    int pollIntervalMs = 20;
    /**
     * Response-write progress deadline [ms]: a connection whose
     * buffered replies make no progress for this long is dropped.
     * Writes never block the IO loop — replies are buffered per
     * connection and flushed via POLLOUT, so one stalled reader only
     * costs its own connection (and its own result stream), never
     * other sessions.
     */
    int sendTimeoutMs = 5000;
    /** Drop a connection whose unflushed reply backlog exceeds this. */
    static constexpr size_t maxTxBacklogBytes = 64 * 1024 * 1024;
    /** Result-stream slice size [bytes]; clamped to
     *  [kTrajectoryBinaryRecordBytes, kMaxResultChunkBytes] and
     *  rounded down to whole records, so every chunk boundary is a
     *  valid resume offset. */
    size_t resultChunkBytes = kDefaultResultChunkBytes;
    /**
     * Per-stream generation cap [bytes]: chunks are only produced
     * while the connection's unflushed tx backlog is below this, so
     * a slow reader holds at most ~this much of its own stream in
     * server memory — the rest stays in the retained result until
     * the stream advances. (Streams share the retained record's
     * payload; this bounds the transient frame buffer only.)
     */
    size_t streamBacklogBytes = 1024 * 1024;
    /**
     * Terminal jobs retained for later FetchResult. A result is
     * released by the client's hash-verified AckResult (fetch itself
     * no longer releases — a stream that dies mid-flight must stay
     * resumable); unacked terminal jobs (orphans, cancellations,
     * crashed clients) are kept for at most this many terminal
     * transitions, oldest evicted first, so a long-lived daemon's
     * memory is bounded by retention, not by total jobs served.
     */
    size_t maxRetainedResults = 256;
    /**
     * Byte bound on retained terminal results (trajectory records +
     * failure reason), enforced alongside
     * maxRetainedResults: oldest results are evicted until the total
     * fits. The newest terminal result is never evicted by the byte
     * bound (a single oversized result stays fetchable), so the
     * bound can be transiently exceeded by exactly one result.
     */
    uint64_t maxRetainedResultBytes = 256 * 1024 * 1024;
    /** When > 0, SO_SNDBUF for accepted connections [bytes] (test /
     *  operations hook for exercising slow-reader backpressure). */
    int sendBufferBytes = 0;
    /**
     * When non-empty, serve crash-safely: a write-ahead job journal
     * (serve/journal.hh) lives in this directory, submissions are
     * journaled before admission, terminal results before they are
     * published, and each job persists its latest snapshot to
     * `<dir>/job-<id>.ckpt`. A restarted daemon pointed at
     * the same directory replays the journal: terminal results come
     * back fetchable bit-identically, unfinished jobs re-enter the
     * queue and warm-restore from their checkpoint. Empty disables
     * journaling (the pre-v3 purely in-memory behavior).
     */
    std::string journalDir;
    /**
     * fsync every journal append. The default (flush only) already
     * survives SIGKILL — the bytes are in the page cache; fsync adds
     * power-loss durability at a significant per-append latency cost
     * (bench_serve's journal sweep quantifies it).
     */
    bool journalFsync = false;
};

/** Point-in-time server counters (mirrors the wire StatsReply). */
using ServerStatsSnapshot = ServerStatsData;

/**
 * The mission-service daemon. Construct (binds the listener — throws
 * bridge::TransportError on a busy port), start(), and eventually
 * stop() or let requestShutdown() arrive over the wire.
 */
class MissionServer
{
  public:
    explicit MissionServer(const ServerConfig &cfg);
    ~MissionServer();

    MissionServer(const MissionServer &) = delete;
    MissionServer &operator=(const MissionServer &) = delete;

    /** Actually-bound port (resolves an ephemeral request). */
    uint16_t port() const { return listener_.port(); }

    /** Spawn the IO thread and worker pool. */
    void start();

    /**
     * Begin shutdown: stop accepting connections and submissions.
     * With @p drain, queued jobs still execute; otherwise they are
     * cancelled. Running missions always finish (no preemption).
     * Thread-safe; callable from any thread or via the wire.
     */
    void requestShutdown(bool drain);

    /** Block until all threads exited (after a shutdown request). */
    void waitForShutdown();

    /** requestShutdown(drain) + waitForShutdown(). Idempotent. */
    void stop(bool drain = true);

    /** True between start() and the end of shutdown. */
    bool running() const;

    /** Counter snapshot (also served over the wire as StatsReply). */
    ServerStatsSnapshot stats() const;

    /**
     * Test/operations hook: freeze the worker pool. Queued jobs stay
     * queued (making queue-depth admission deterministic to test);
     * running jobs are unaffected. resumeWorkers() reawakens the
     * pool.
     */
    void pauseWorkers();
    void resumeWorkers();

    /**
     * Test/chaos hook: sever every live connection on the next poll
     * tick, as if the network dropped. Jobs are untouched (queued
     * ones of the severed clients are cancelled exactly as on a real
     * disconnect); reconnect-enabled clients are expected to dial
     * back and resume.
     */
    void dropConnections();

  private:
    using Clock = std::chrono::steady_clock;

    /** One tracked job (the session manager's unit of work). */
    struct Job
    {
        uint64_t id = 0;
        core::MissionSpec spec;
        JobState state = JobState::Queued;
        /** Owning connection id; 0 once the client disconnected. */
        uint64_t clientId = 0;
        /** Client retry token; "" = none. */
        std::string idempotencyKey;
        /** Replayed from the journal: the worker attempts a warm
         *  restore from the job's persisted checkpoint. */
        bool recovered = false;
        Clock::time_point enqueued;
        Clock::time_point started;
        double queueWaitMs = 0.0;
        double serviceMs = 0.0;
        /** Valid when Done/Failed; shared with any open streams so
         *  the record can be released mid-stream (client ack, ret-
         *  ention eviction) without pulling bytes out from under
         *  them. */
        std::shared_ptr<const ServedResult> result;
    };

    /**
     * One result stream in flight on a connection. Shares the
     * record bytes with the retained job record and owns the
     * pre-built ResultEnd. The job stays fetchable until the
     * client's hash-verified AckResult (or retention eviction)
     * releases it, so a stream that dies with its connection costs
     * nothing — the client reconnects and resumes from its byte
     * offset.
     */
    struct ResultStream
    {
        /** Payload source, shared with the job record. */
        std::shared_ptr<const ServedResult> src;
        uint64_t offset = 0; ///< payload bytes already framed
        uint32_t seq = 0;    ///< next chunk sequence number
        ResultEndData end;
    };

    /** One live client connection (owned by the IO thread). */
    struct Connection
    {
        uint64_t id = 0;
        int fd = -1;
        MessageBuffer rx;
        bool dead = false;
        /** Buffered outgoing bytes not yet accepted by the kernel;
         *  tx[txPos..) is pending, flushed on POLLOUT. */
        std::vector<uint8_t> tx;
        size_t txPos = 0;
        /** Progress deadline while pendingTx() > 0. */
        Clock::time_point txDeadline{};
        /** Open result stream; requests queue behind it. */
        std::unique_ptr<ResultStream> stream;

        size_t pendingTx() const { return tx.size() - txPos; }
    };

    void ioLoop();
    void workerLoop(size_t worker_index);
    void acceptPending();
    void serviceConnection(Connection &conn);
    /**
     * The per-connection service pump: emit result-stream frames
     * while the backlog cap allows, then decode + dispatch buffered
     * requests until a stream opens (deferring the rest) or the
     * buffer runs dry. @return false when the connection must be
     * dropped.
     */
    bool drainRequests(Connection &conn);
    /** Generate stream frames up to the backlog cap; closes the
     *  stream (ResultEnd) when the payload is exhausted. */
    void pumpStream(Connection &conn);
    /** Push coalesced worker progress to owning connections. */
    void flushProgress();
    /** @return the reply, or nullopt when a result stream was opened
     *  (its frames are the reply). */
    std::optional<Message> handleRequest(Connection &conn,
                                         const Message &req);
    Message handleSubmit(Connection &conn, const Message &req);
    Message handleStatus(const Message &req);
    std::optional<Message> handleFetch(Connection &conn,
                                       const Message &req);
    Message handleCancel(const Message &req);
    Message handleAck(const Message &req);
    Message handleStats();
    Message handleShutdown(const Message &req);
    /** Queue @p m on the connection and flush what the kernel takes
     *  right now; the remainder drains via POLLOUT in the IO loop. */
    void sendMessage(Connection &conn, const Message &m);
    /** Non-blocking flush of conn.tx; marks the connection dead on a
     *  hard send error. Resets the progress deadline on any write. */
    void flushSend(Connection &conn);
    void closeConnection(Connection &conn);
    /** Cancel the queued jobs of a vanished client; orphan the rest. */
    void releaseClientJobs(uint64_t client_id);
    /** Record a job's terminal transition, add its result to the
     *  retained-byte account, and evict the oldest retained terminal
     *  jobs beyond maxRetainedResults / maxRetainedResultBytes
     *  (mu_ held). */
    void markTerminalLocked(uint64_t job_id);
    /** Drop a job record: retained-byte account, idempotency map,
     *  journal Released record (mu_ held). @return false if the id
     *  was already gone. */
    bool releaseJobLocked(uint64_t job_id);
    /** Journal a cancellation's Terminal record (mu_ held). */
    void journalCancelLocked(uint64_t job_id);
    ServerStatsSnapshot statsLocked() const;

    ServerConfig cfg_;
    bridge::TcpListener listener_;
    /** Write-ahead job journal; null when journalDir is empty. */
    std::unique_ptr<JobJournal> journal_;

    /** Live connections; owned and touched only by the IO thread. */
    std::vector<std::unique_ptr<Connection>> conns_;

    std::thread ioThread_;
    std::thread poolLauncher_; ///< runs parallelIndexed over workers

    mutable std::mutex mu_;
    std::condition_variable queueCv_; ///< workers wait here
    std::deque<uint64_t> queue_;
    std::unordered_map<uint64_t, Job> jobs_;
    /** Terminal jobs in transition order (retention FIFO); ids whose
     *  job was already fetch-evicted are skipped lazily. */
    std::deque<uint64_t> terminalOrder_;
    /** Bytes held by retained terminal results (jobs_ entries that
     *  are Done/Failed/Cancelled). */
    uint64_t retainedBytes_ = 0;
    /** Latest worker-published progress per running job, coalesced
     *  between IO-thread poll ticks. */
    std::unordered_map<uint64_t, ProgressEvent> pendingProgress_;
    /** Unfinished jobs per live connection (admission cap). */
    std::unordered_map<uint64_t, uint32_t> inFlightByClient_;
    /** Live idempotency keys -> job id (journaled submissions). */
    std::unordered_map<std::string, uint64_t> idemToJob_;
    uint64_t nextJobId_ = 1;
    uint64_t nextConnId_ = 1;
    /** dropConnections() latch, consumed by the IO loop. */
    bool kickConnections_ = false;
    bool started_ = false;
    bool shuttingDown_ = false;
    bool shutdownComplete_ = false;
    bool drainOnShutdown_ = true;
    bool workersPaused_ = false;
    uint32_t runningJobs_ = 0;
    uint32_t openConnections_ = 0;
    uint32_t activeStreams_ = 0;

    // Counters (guarded by mu_).
    ServerStatsData counters_;
};

} // namespace rose::serve

#endif // ROSE_SERVE_SERVER_HH
