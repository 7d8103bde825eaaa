/**
 * @file
 * Blocking client for the mission-service daemon (`rosed`).
 *
 * One ServeClient is one TCP connection and one session: requests are
 * written synchronously and the matching response is awaited (the
 * protocol pairs one logical response per request, in order), so the
 * client needs no reader thread. Two kinds of frames ride alongside
 * plain replies:
 *
 *  - Result streams: FetchResult of a finished job is answered with a
 *    sequence of ResultChunk frames closed by ResultEnd; the client
 *    reassembles them through ResultStreamAssembler, which verifies
 *    chunk ordering, the byte count, and the FNV-1a hash of the
 *    binary records before decoding them into the ServedResult's
 *    samples. Rendering those samples with core::trajectoryCsvString
 *    reproduces the canonical CSV of a local runMission() of the
 *    same spec byte for byte.
 *
 *  - Progress pushes: the server may interleave Progress frames
 *    (latest simulated time of a running job) anywhere between
 *    logical responses. They are dispatched to the onProgress handler
 *    (when set) and are otherwise invisible to the request/response
 *    pairing.
 *
 * Reconnect (enableReconnect): the client survives a dead daemon or a
 * dropped network path. A TransportError inside a retriable call
 * triggers redial with capped exponential backoff + jitter
 * (util/backoff.hh); submissions ride an idempotency key so the retry
 * lands on the original job instead of running the mission twice, and
 * an interrupted result stream resumes from the byte offset already
 * assembled (FetchResult carries the offset; the assembler keeps its
 * prefix). Fetched results are released server-side by a
 * hash-verified AckResult only after local verification succeeds, so
 * a crash anywhere in between never loses the result.
 *
 * Use one ServeClient per thread; instances are not thread-safe
 * (concurrent load is modeled with multiple clients, exactly like
 * real traffic).
 */

#ifndef ROSE_SERVE_CLIENT_HH
#define ROSE_SERVE_CLIENT_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "serve/proto.hh"
#include "util/backoff.hh"

namespace rose::serve {

/** Outcome of a submit: accepted with a job id, or shed. */
struct SubmitOutcome
{
    bool accepted = false;
    uint64_t jobId = 0;        ///< valid when accepted
    uint32_t queuePosition = 0;
    RejectReason reason = RejectReason::QueueFull; ///< when rejected
    std::string detail;
    /** The key the submission carried (caller-supplied or, under
     *  reconnect, auto-generated) — what a later incarnation would
     *  resubmit with. */
    std::string idempotencyKey;
};

/** Reconnect policy (enableReconnect). */
struct ReconnectConfig
{
    /** Dial attempts per reconnect episode before the original
     *  failure is rethrown. */
    int maxAttempts = 8;
    /** Delay schedule between dial attempts. */
    BackoffConfig backoff{};
    /** Retriable-call episodes (reconnect + retry cycles) before
     *  giving up. */
    int maxEpisodes = 4;
};

class ServeClient
{
  public:
    /**
     * Connect to a daemon on @p host (numeric IPv4) : @p port.
     * @throws bridge::TransportError when the connection fails.
     */
    explicit ServeClient(uint16_t port,
                         const std::string &host = "127.0.0.1",
                         int timeout_ms = 30000);
    ~ServeClient();

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /**
     * Install a handler for server-pushed Progress frames. Invoked
     * from whatever call is currently reading the socket (submit,
     * status, tryFetchResult, waitResult); must not reenter the
     * client. Pass nullptr to drop progress silently.
     */
    void onProgress(std::function<void(const ProgressEvent &)> fn);

    /**
     * Turn on crash-safe operation: retriable calls redial and retry
     * on TransportError per @p cfg, submissions auto-generate an
     * idempotency key when the caller supplies none, and interrupted
     * result streams resume from their byte offset. Off by default
     * (a TransportError then propagates immediately, the pre-v3
     * behavior).
     */
    void enableReconnect(const ReconnectConfig &cfg = {});

    /** Reconnect episodes performed so far (telemetry / tests). */
    uint64_t reconnects() const { return reconnects_; }

    /**
     * Submit a mission; never throws on rejection (see outcome).
     * @p idempotency_key makes the submission safe to retry: a
     * resubmission with the same key returns the original job id
     * (even across a daemon restart when rosed journals). Empty
     * means no key — unless reconnect is enabled, in which case one
     * is auto-generated so the transparent retry is safe.
     */
    SubmitOutcome submit(const core::MissionSpec &spec,
                         const std::string &idempotency_key = "");

    /** Lifecycle state of a job. */
    StatusInfo status(uint64_t job_id);

    /**
     * One FetchResult round-trip. @return true when the job finished:
     * the full result stream was consumed, hash-verified, and @p out
     * holds the result; false when it is still queued or running.
     * @p state_out (when non-null) receives the job's state — Done or
     * Failed on a true return, so success and failure are
     * distinguishable without inspecting failureReason. The
     * trailing TrajectoryEncoding is ignored (Binary is the only
     * encoding; see TrajectoryEncoding). After local verification the
     * result is released server-side with a hash-verified AckResult;
     * a second fetch of the same id then reports it Unknown. Under
     * reconnect, a stream interrupted by connection loss is resumed
     * from the byte offset already assembled instead of restarting.
     * The receive deadline
     * applies per frame, not to the whole stream, so arbitrarily
     * long results don't trip the timeout while frames keep
     * arriving.
     * @throws ProtocolError when the job is unknown, was cancelled,
     * or the stream is malformed (bad order, truncation, hash
     * mismatch).
     */
    bool tryFetchResult(uint64_t job_id, ServedResult &out,
                        JobState *state_out = nullptr,
                        TrajectoryEncoding = TrajectoryEncoding::Binary);

    /**
     * Poll FetchResult until the job finishes. @p state_out (when
     * non-null) receives the terminal state (Done or Failed), so
     * callers can exit nonzero on failure without parsing
     * failureReason. @throws bridge::TransportError on connection
     * loss or when @p timeout_ms elapses; ProtocolError when the job
     * is unknown or cancelled.
     */
    ServedResult waitResult(uint64_t job_id, int timeout_ms = 120000,
                            int poll_ms = 10,
                            JobState *state_out = nullptr);

    CancelInfo cancel(uint64_t job_id);

    ServerStatsData serverStats();

    /** Ask the daemon to shut down (drain = finish queued jobs). */
    void shutdownServer(bool drain = true);

  private:
    using Clock = std::chrono::steady_clock;

    /** Send one request and block for its paired logical response
     *  (the first non-Progress frame). */
    Message request(const Message &req);
    /** request() with transparent reconnect-and-retry on
     *  TransportError when @p retriable and reconnect is enabled. */
    Message transact(const Message &req, bool retriable);
    /** Block for the next non-Progress frame until @p deadline;
     *  Progress frames are dispatched to the handler in passing. */
    Message nextResponse(Clock::time_point deadline);
    void sendAll(const std::vector<uint8_t> &wire);
    /** (Re)establish the TCP connection; resets the frame buffer. */
    void dial();
    /**
     * Redial per the reconnect policy. MUST be called from inside a
     * catch handler: when reconnect is disabled or every dial
     * attempt fails, the in-flight exception is rethrown.
     */
    void reconnectOrThrow();
    /** Release a verified result server-side (best effort; throws
     *  ProtocolError only on a hash mismatch). */
    void ackVerified(uint64_t job_id, uint64_t payload_hash);

    int fd_ = -1;
    std::string host_;
    uint16_t port_ = 0;
    int timeoutMs_;
    MessageBuffer rx_;
    std::function<void(const ProgressEvent &)> progress_;
    std::optional<ReconnectConfig> reconnect_;
    uint64_t reconnects_ = 0;
    uint64_t keyCounter_ = 0; ///< auto idempotency-key sequence
    uint64_t keyNonce_ = 0;   ///< per-instance key namespace
};

} // namespace rose::serve

#endif // ROSE_SERVE_CLIENT_HH
