#include "client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <random>
#include <thread>

#include "bridge/transport.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace rose::serve {

using bridge::TransportError;

ServeClient::ServeClient(uint16_t port, const std::string &host,
                         int timeout_ms)
    : host_(host), port_(port), timeoutMs_(timeout_ms)
{
    dial();
}

void
ServeClient::dial()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    // A fresh connection is a fresh frame stream: any half-read
    // frame from the previous incarnation must not prefix it.
    rx_ = MessageBuffer{};

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    if (inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1)
        throw TransportError("invalid IPv4 address: " + host_);

    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        throw TransportError(std::string("socket() failed: ") +
                             std::strerror(errno));
    if (connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                sizeof(addr)) < 0) {
        int err = errno;
        ::close(fd_);
        fd_ = -1;
        throw TransportError(detail::concat("connect to ", host_, ":",
                                            port_, " failed: ",
                                            std::strerror(err)));
    }
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void
ServeClient::enableReconnect(const ReconnectConfig &cfg)
{
    reconnect_ = cfg;
    if (reconnect_->maxAttempts < 1)
        reconnect_->maxAttempts = 1;
    if (reconnect_->maxEpisodes < 1)
        reconnect_->maxEpisodes = 1;
    if (keyNonce_ == 0) {
        // Per-instance namespace for auto-generated idempotency
        // keys: two clients (or two incarnations of one) must never
        // collide, or one would silently adopt the other's job.
        std::random_device rd;
        keyNonce_ = (uint64_t(rd()) << 32) ^ uint64_t(rd());
        if (keyNonce_ == 0)
            keyNonce_ = 1;
    }
}

void
ServeClient::reconnectOrThrow()
{
    if (!reconnect_)
        throw; // rethrow the in-flight TransportError
    Backoff backoff(reconnect_->backoff, keyNonce_ ^ reconnects_);
    for (int attempt = 0; attempt < reconnect_->maxAttempts;
         ++attempt) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoff.nextDelayMs()));
        try {
            dial();
            reconnects_++;
            return;
        } catch (const TransportError &) {
            // keep trying; the original failure is rethrown below
        }
    }
    throw; // every dial attempt failed
}

ServeClient::~ServeClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
ServeClient::onProgress(std::function<void(const ProgressEvent &)> fn)
{
    progress_ = std::move(fn);
}

void
ServeClient::sendAll(const std::vector<uint8_t> &wire)
{
    size_t off = 0;
    while (off < wire.size()) {
        ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off,
                           MSG_NOSIGNAL);
        if (n >= 0) {
            off += size_t(n);
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK)
            throw TransportError(std::string("serve send failed: ") +
                                 std::strerror(errno));
        pollfd pfd{fd_, POLLOUT, 0};
        int rc = ::poll(&pfd, 1, timeoutMs_);
        if (rc < 0 && errno == EINTR)
            continue;
        if (rc <= 0)
            throw TransportError("serve send stalled (server not "
                                 "draining)");
    }
}

Message
ServeClient::nextResponse(Clock::time_point deadline)
{
    uint8_t tmp[65536];
    for (;;) {
        Message resp;
        std::string err;
        switch (rx_.next(resp, &err)) {
          case FrameStatus::Ok:
            if (isRequest(resp.type))
                throw TransportError(
                    "server sent a request-type message");
            if (resp.type == MsgType::ErrorReply)
                throw ProtocolError(decodeErrorReply(resp));
            if (resp.type == MsgType::Progress) {
                // Push frame: not part of request/response pairing.
                if (progress_)
                    progress_(decodeProgress(resp));
                continue;
            }
            return resp;
          case FrameStatus::Malformed:
            throw TransportError("serve stream framing corrupt: " +
                                 err);
          case FrameStatus::NeedMore:
            break;
        }

        auto now = Clock::now();
        if (now >= deadline)
            throw TransportError(detail::concat(
                "no response from server within ", timeoutMs_, " ms"));
        int wait_ms = int(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - now)
                .count());
        pollfd pfd{fd_, POLLIN, 0};
        int rc = ::poll(&pfd, 1, std::max(1, wait_ms));
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            throw TransportError(std::string("serve recv poll: ") +
                                 std::strerror(errno));
        }
        if (rc == 0)
            continue; // deadline check above will fire
        ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
        if (n > 0) {
            rx_.append(tmp, size_t(n));
        } else if (n == 0) {
            throw TransportError("server closed the connection");
        } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
            throw TransportError(std::string("serve recv failed: ") +
                                 std::strerror(errno));
        }
    }
}

Message
ServeClient::request(const Message &req)
{
    std::vector<uint8_t> wire;
    serializeMessage(req, wire);
    sendAll(wire);
    return nextResponse(Clock::now() +
                        std::chrono::milliseconds(timeoutMs_));
}

Message
ServeClient::transact(const Message &req, bool retriable)
{
    int episodes = 0;
    for (;;) {
        try {
            return request(req);
        } catch (const TransportError &) {
            if (!retriable ||
                (reconnect_ && ++episodes >= reconnect_->maxEpisodes))
                throw;
            reconnectOrThrow();
        }
    }
}

SubmitOutcome
ServeClient::submit(const core::MissionSpec &spec,
                    const std::string &idempotency_key)
{
    std::string key = idempotency_key;
    if (key.empty() && reconnect_)
        // No caller key under reconnect: mint one, or the
        // transparent retry below could run the mission twice.
        key = detail::concat("rose-", std::hex, keyNonce_, "-",
                             ++keyCounter_);
    // Keyed submissions are idempotent and therefore retriable; an
    // unkeyed one is not (the retry could double-run), so transport
    // failures propagate.
    Message resp = transact(encodeSubmitMission(spec, key),
                            !key.empty());
    SubmitOutcome out;
    out.idempotencyKey = key;
    if (resp.type == MsgType::SubmitOk) {
        SubmitOkReply ok = decodeSubmitOk(resp);
        out.accepted = true;
        out.jobId = ok.jobId;
        out.queuePosition = ok.queuePosition;
        return out;
    }
    RejectedReply rej = decodeRejected(resp);
    out.accepted = false;
    out.reason = rej.reason;
    out.detail = rej.detail;
    return out;
}

StatusInfo
ServeClient::status(uint64_t job_id)
{
    // A pure read: always safe to retry.
    return decodeStatusReply(
        transact(encodeQueryStatus(job_id), true));
}

bool
ServeClient::tryFetchResult(uint64_t job_id, ServedResult &out,
                            JobState *state_out, TrajectoryEncoding)
{
    // Resumable fetch: on connection loss mid-stream (reconnect
    // enabled) the assembled prefix is kept and the re-request
    // carries its byte offset; the server restarts chunk numbering
    // at 0 from there (rewindForResume matches). If the server
    // refuses the resume, or the resumed payload fails its hash
    // check, one restart from offset 0 with a fresh assembler is
    // attempted.
    ResultStreamAssembler assembler(job_id);
    bool restarted = false;
    int episodes = 0;
    for (;;) {
        try {
            Message resp = request(encodeFetchResult(
                job_id, uint64_t(assembler.payloadBytes())));
            if (resp.type == MsgType::StatusReply) {
                StatusInfo s = decodeStatusReply(resp);
                if (state_out)
                    *state_out = s.state;
                if (s.state == JobState::Unknown)
                    throw ProtocolError(
                        detail::concat("unknown job id ", job_id));
                if (s.state == JobState::Cancelled)
                    throw ProtocolError(detail::concat(
                        "job ", job_id, " was cancelled"));
                return false;
            }
            // The job finished: reassemble and verify its result
            // stream. The deadline resets per frame so a long stream
            // can't trip the round-trip timeout while frames keep
            // arriving.
            while (!assembler.feed(resp))
                resp = nextResponse(
                    Clock::now() +
                    std::chrono::milliseconds(timeoutMs_));
            break;
        } catch (const TransportError &) {
            if (reconnect_ && ++episodes > reconnect_->maxEpisodes)
                throw;
            reconnectOrThrow(); // rethrows when reconnect is off
            assembler.rewindForResume();
        } catch (const ProtocolError &) {
            if (assembler.payloadBytes() == 0 || restarted)
                throw;
            restarted = true;
            assembler = ResultStreamAssembler(job_id);
        }
    }
    ResultData d = assembler.takeResult();
    uint64_t payload_hash = d.payloadHash;
    out = std::move(d.result);
    // Failed executions stream too (an empty trajectory and a
    // failureReason); both terminal states travel in ResultEnd, so
    // callers can tell success from failure without parsing
    // failureReason.
    if (state_out)
        *state_out = d.state;
    // The bytes are verified locally: release the server-side record
    // (the ack carries the hash of the records we assembled, so the
    // server only drops what we actually hold).
    ackVerified(job_id, payload_hash);
    return true;
}

void
ServeClient::ackVerified(uint64_t job_id, uint64_t payload_hash)
{
    Message resp;
    try {
        resp = transact(encodeAckResult(job_id, payload_hash),
                        true);
    } catch (const TransportError &) {
        // Best effort: the result is already safe in our hands; an
        // unreachable server just retains the record until its
        // retention bound evicts it.
        return;
    }
    AckInfo a = decodeAckReply(resp);
    if (a.outcome == AckOutcome::HashMismatch)
        // Should be impossible after local verification — it means
        // the server holds different bytes than it streamed us.
        throw ProtocolError(detail::concat(
            "server refused ack of job ", job_id,
            ": payload hash mismatch"));
    // Released, or UnknownJob (an earlier ack already landed): done.
}

ServedResult
ServeClient::waitResult(uint64_t job_id, int timeout_ms, int poll_ms,
                        JobState *state_out)
{
    auto deadline = Clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    for (;;) {
        ServedResult result;
        if (tryFetchResult(job_id, result, state_out))
            return result;
        if (Clock::now() >= deadline)
            throw TransportError(detail::concat(
                "job ", job_id, " did not finish within ", timeout_ms,
                " ms"));
        std::this_thread::sleep_for(
            std::chrono::milliseconds(poll_ms));
    }
}

CancelInfo
ServeClient::cancel(uint64_t job_id)
{
    // Cancel is idempotent (a second cancel of the same id answers
    // Dequeued/AlreadyDone, never double-acts): retriable.
    return decodeCancelReply(
        transact(encodeCancelMission(job_id), true));
}

ServerStatsData
ServeClient::serverStats()
{
    return decodeStatsReply(transact(encodeServerStats(), true));
}

void
ServeClient::shutdownServer(bool drain)
{
    Message resp = request(encodeShutdown(drain));
    if (resp.type != MsgType::ShutdownReply)
        throw ProtocolError("unexpected reply to Shutdown");
}

} // namespace rose::serve
