#include "transport.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "util/logging.hh"
#include "util/serde.hh"

namespace rose::bridge {

// Non-checkpointable transports (the base default) reject state
// capture loudly: the supervisor checks checkpointable() first and
// falls back to a cold restart when snapshots are impossible.
void
Transport::saveState(StateWriter &) const
{
    throw TransportError("transport does not support checkpointing");
}

void
Transport::restoreState(StateReader &)
{
    throw TransportError("transport does not support checkpointing");
}

// ----------------------------------------------------------- in-process

namespace {

/** Shared state of an in-process pair: one deque per direction. */
struct InProcState
{
    std::deque<Packet> aToB;
    std::deque<Packet> bToA;
    bool aAlive = true;
    bool bAlive = true;
};

class InProcEndpoint : public Transport
{
  public:
    InProcEndpoint(std::shared_ptr<InProcState> state, bool is_a)
        : state_(std::move(state)), isA_(is_a) {}

    ~InProcEndpoint() override
    {
        (isA_ ? state_->aAlive : state_->bAlive) = false;
    }

    void
    send(const Packet &p) override
    {
        if (state() != TransportState::Open)
            throw TransportError("in-process send: peer endpoint "
                                 "destroyed");
        (isA_ ? state_->aToB : state_->bToA).push_back(p);
        sent_ += p.wireSize();
    }

    bool
    recv(Packet &out) override
    {
        auto &q = isA_ ? state_->bToA : state_->aToB;
        if (q.empty())
            return false;
        out = std::move(q.front());
        q.pop_front();
        received_ += out.wireSize();
        return true;
    }

    TransportState
    state() const override
    {
        return (isA_ ? state_->bAlive : state_->aAlive)
                   ? TransportState::Open
                   : TransportState::Closed;
    }

    uint64_t bytesSent() const override { return sent_; }
    uint64_t bytesReceived() const override { return received_; }

    bool checkpointable() const override { return true; }

    // Each endpoint serializes its *inbound* queue plus its own byte
    // counters; saving both endpoints of a pair therefore captures
    // both wire directions exactly once.
    void
    saveState(StateWriter &w) const override
    {
        const auto &q = isA_ ? state_->bToA : state_->aToB;
        w.u32(uint32_t(q.size()));
        for (const Packet &p : q)
            savePacket(w, p);
        w.u64(sent_);
        w.u64(received_);
    }

    void
    restoreState(StateReader &r) override
    {
        auto &q = isA_ ? state_->bToA : state_->aToB;
        q.clear();
        uint32_t n = r.u32();
        for (uint32_t i = 0; i < n; ++i)
            q.push_back(loadPacket(r));
        sent_ = r.u64();
        received_ = r.u64();
    }

  private:
    std::shared_ptr<InProcState> state_;
    bool isA_;
    uint64_t sent_ = 0;
    uint64_t received_ = 0;
};

} // namespace

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
makeInProcPair()
{
    auto state = std::make_shared<InProcState>();
    return {std::make_unique<InProcEndpoint>(state, true),
            std::make_unique<InProcEndpoint>(state, false)};
}

// ------------------------------------------------------------------- TCP

namespace {

void
setNonBlocking(int fd)
{
    int flags = fcntl(fd, F_GETFL, 0);
    if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        throw TransportError(std::string("fcntl O_NONBLOCK failed: ") +
                             std::strerror(errno));
}

void
setNoDelay(int fd)
{
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

TcpTransport::TcpTransport(int fd) : fd_(fd)
{
    rose_assert(fd_ >= 0, "invalid socket fd");
    try {
        setNonBlocking(fd_);
    } catch (...) {
        ::close(fd_);
        fd_ = -1;
        throw;
    }
    setNoDelay(fd_);
}

TcpTransport::~TcpTransport()
{
    if (fd_ >= 0)
        close(fd_);
}

void
TcpTransport::send(const Packet &p)
{
    if (state_ != TransportState::Open)
        throw TransportError("TCP send on " +
                             std::string(state_ == TransportState::Closed
                                             ? "closed"
                                             : "errored") +
                             " transport");
    quiet_ = false;
    tx_.clear();
    serializePacket(p, tx_);
    size_t off = 0;
    while (off < tx_.size()) {
        ++syscalls_.sends;
        ssize_t n = ::send(fd_, tx_.data() + off, tx_.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EPIPE || errno == ECONNRESET) {
                state_ = TransportState::Closed;
                throw TransportError(
                    "TCP send failed: peer closed the connection");
            }
            if (errno != EAGAIN && errno != EWOULDBLOCK) {
                state_ = TransportState::Error;
                throw TransportError(std::string("TCP send failed: ") +
                                     std::strerror(errno));
            }
            // Socket buffer full: bounded wait for POLLOUT instead of
            // busy-spinning on EAGAIN.
            pollfd pfd{fd_, POLLOUT, 0};
            int rc = ::poll(&pfd, 1,
                            sendTimeoutMs_ > 0 ? sendTimeoutMs_ : -1);
            if (rc < 0 && errno != EINTR) {
                state_ = TransportState::Error;
                throw TransportError(std::string("TCP send poll: ") +
                                     std::strerror(errno));
            }
            if (rc == 0) {
                state_ = TransportState::Error;
                throw TransportError(detail::concat(
                    "TCP send stalled: no socket-buffer space within ",
                    sendTimeoutMs_, " ms (peer not draining; ", off,
                    " of ", tx_.size(), " bytes written)"));
            }
            continue;
        }
        off += size_t(n);
    }
    sent_ += tx_.size();
}

void
TcpTransport::pump()
{
    uint8_t tmp[16384];
    while (state_ == TransportState::Open) {
        ++syscalls_.recvs;
        ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
        if (n > 0) {
            rx_.append(tmp, size_t(n));
            received_ += uint64_t(n);
            // A short read drained the socket; only a full one may
            // have left bytes behind.
            if (size_t(n) < sizeof(tmp))
                return;
        } else if (n == 0) {
            // Orderly shutdown by the peer: surface it instead of
            // pretending "no data yet" forever.
            state_ = TransportState::Closed;
            return;
        } else {
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                ++syscalls_.emptyRecvs;
                return;
            }
            if (errno == EINTR)
                continue;
            if (errno == ECONNRESET) {
                state_ = TransportState::Closed;
                return;
            }
            state_ = TransportState::Error;
            throw TransportError(std::string("TCP recv failed: ") +
                                 std::strerror(errno));
        }
    }
}

bool
TcpTransport::recv(Packet &out)
{
    // Buffered first; read the socket only when no whole frame is
    // buffered and the period may still hold bytes for us.
    FrameStatus s = rx_.next(out);
    if (s == FrameStatus::NeedMore && !quiet_) {
        pump();
        s = rx_.next(out);
    }
    switch (s) {
      case FrameStatus::Ok:
        quiet_ = (out.type == PacketType::SyncGrant ||
                  out.type == PacketType::SyncDone) &&
                 rx_.pendingBytes() == 0;
        return true;
      case FrameStatus::NeedMore:
        return false;
      case FrameStatus::Malformed: {
        state_ = TransportState::Error;
        std::string err;
        rx_.next(out, &err); // a poisoned buffer repeats its diagnostic
        throw TransportError("TCP stream framing corrupt: " + err);
      }
    }
    return false;
}

bool
TcpTransport::waitReadable(int timeout_ms)
{
    if (state_ != TransportState::Open)
        return rx_.pendingBytes() > 0;
    pollfd pfd{fd_, POLLIN, 0};
    int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno != EINTR) {
        state_ = TransportState::Error;
        throw TransportError(std::string("TCP recv poll: ") +
                             std::strerror(errno));
    }
    if (rc > 0)
        quiet_ = false; // bytes arrived after all: let recv() read them
    return rc > 0;
}

// --------------------------------------------------------------- listener

TcpListener::TcpListener(uint16_t port, int backlog)
{
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        throw TransportError(std::string("socket() failed: ") +
                             std::strerror(errno));
    // SO_REUSEADDR lets a restarted daemon rebind a port still in
    // TIME_WAIT; ephemeral selection (port 0) plus port() keeps
    // concurrent test processes from ever racing on a fixed port.
    int one = 1;
    setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    try {
        if (bind(fd_, reinterpret_cast<sockaddr *>(&addr),
                 sizeof(addr)) < 0)
            throw TransportError(std::string("bind() failed: ") +
                                 std::strerror(errno));
        if (listen(fd_, backlog) < 0)
            throw TransportError(std::string("listen() failed: ") +
                                 std::strerror(errno));
        socklen_t len = sizeof(addr);
        if (getsockname(fd_, reinterpret_cast<sockaddr *>(&addr),
                        &len) < 0)
            throw TransportError(std::string("getsockname() failed: ") +
                                 std::strerror(errno));
    } catch (...) {
        ::close(fd_);
        fd_ = -1;
        throw;
    }
    port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener()
{
    close();
}

void
TcpListener::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

int
TcpListener::acceptFd(int timeout_ms)
{
    if (fd_ < 0)
        throw TransportError("accept on closed listener");
    for (;;) {
        pollfd pfd{fd_, POLLIN, 0};
        int rc = ::poll(&pfd, 1, timeout_ms);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            throw TransportError(std::string("listener poll: ") +
                                 std::strerror(errno));
        }
        if (rc == 0)
            return -1;
        int conn = ::accept(fd_, nullptr, nullptr);
        if (conn < 0) {
            // A peer that connected and reset before we accepted is
            // not a listener failure; wait for the next connection.
            if (errno == EINTR || errno == ECONNABORTED ||
                errno == EAGAIN || errno == EWOULDBLOCK)
                continue;
            throw TransportError(std::string("accept() failed: ") +
                                 std::strerror(errno));
        }
        return conn;
    }
}

std::unique_ptr<TcpTransport>
TcpListener::accept(int timeout_ms)
{
    int conn = acceptFd(timeout_ms);
    if (conn < 0)
        return nullptr;
    return std::make_unique<TcpTransport>(conn);
}

std::pair<std::unique_ptr<TcpTransport>, std::unique_ptr<TcpTransport>>
TcpTransport::makeLoopbackPair()
{
    TcpListener listener(0, 1);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(listener.port());

    int client = socket(AF_INET, SOCK_STREAM, 0);
    if (client < 0)
        throw TransportError(std::string("socket() failed: ") +
                             std::strerror(errno));
    if (connect(client, reinterpret_cast<sockaddr *>(&addr),
                sizeof(addr)) < 0) {
        int err = errno;
        close(client);
        throw TransportError(std::string("connect() failed: ") +
                             std::strerror(err));
    }

    int server;
    try {
        server = listener.acceptFd(5000);
    } catch (...) {
        close(client);
        throw;
    }
    if (server < 0) {
        close(client);
        throw TransportError("loopback accept timed out");
    }

    std::unique_ptr<TcpTransport> serverEnd, clientEnd;
    try {
        serverEnd = std::make_unique<TcpTransport>(server);
    } catch (...) {
        close(client);
        throw;
    }
    clientEnd = std::make_unique<TcpTransport>(client);
    return {std::move(serverEnd), std::move(clientEnd)};
}

} // namespace rose::bridge
