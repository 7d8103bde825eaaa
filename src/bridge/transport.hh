/**
 * @file
 * Packet transports between the synchronizer and the RoSÉ bridge.
 *
 * The paper transmits serialized packets over TCP between the
 * synchronizer process and the FireSim host (Section 3.4.1). We provide
 * two implementations of the same interface: an in-process channel (the
 * default for single-process co-simulation) and a real POSIX TCP
 * loopback transport exercising the same wire framing.
 */

#ifndef ROSE_BRIDGE_TRANSPORT_HH
#define ROSE_BRIDGE_TRANSPORT_HH

#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bridge/packet.hh"

namespace rose {
class StateWriter;
class StateReader;
} // namespace rose

namespace rose::bridge {

/**
 * Transport failure surfaced to the co-simulation: a dead peer, a
 * corrupt wire stream, a send that cannot make progress, or a sync
 * deadline that expired. Thrown instead of silently spinning so the
 * lockstep loop fails loudly with a diagnostic rather than deadlocking.
 */
class TransportError : public std::runtime_error
{
  public:
    explicit TransportError(const std::string &what)
        : std::runtime_error(what) {}
};

/** Liveness of a transport endpoint. */
enum class TransportState : uint8_t
{
    Open,   ///< peer reachable (as far as we know)
    Closed, ///< peer performed an orderly close
    Error,  ///< wire-level failure (reset, corrupt framing)
};

/** Bidirectional, non-blocking packet endpoint. */
class Transport
{
  public:
    virtual ~Transport() = default;

    /**
     * Queue one packet for the peer.
     *
     * @throws TransportError when the peer is gone or the endpoint
     *         cannot make progress within its send deadline.
     */
    virtual void send(const Packet &p) = 0;

    /**
     * Poll for one received packet.
     *
     * @return true when a packet was delivered into @p out.
     * @throws TransportError on a corrupt wire stream.
     */
    virtual bool recv(Packet &out) = 0;

    /** Current liveness; Closed/Error after the peer goes away. */
    virtual TransportState state() const { return TransportState::Open; }

    /** True when waitReadable() can actually block (real sockets). */
    virtual bool supportsWait() const { return false; }

    /**
     * Block up to @p timeout_ms for inbound bytes. Returns true when
     * data may be available, false on timeout. Transports with no
     * notion of blocking (the in-process channel, where both sides run
     * on one thread) return false immediately.
     */
    virtual bool waitReadable(int timeout_ms)
    {
        (void)timeout_ms;
        return false;
    }

    /** Bytes sent so far (wire accounting for throughput models). */
    virtual uint64_t bytesSent() const = 0;
    virtual uint64_t bytesReceived() const = 0;

    /**
     * True when this endpoint's in-flight state can be captured by
     * saveState()/restoreState(). The in-process channel can (its
     * queues are plain memory); TCP cannot — bytes sitting in kernel
     * socket buffers are invisible to user space, so a sound snapshot
     * is impossible and the supervisor instead falls back to a cold
     * restart (optionally on an in-process transport).
     */
    virtual bool checkpointable() const { return false; }

    /**
     * Serialize this endpoint's inbound queue and byte counters.
     * Saving both endpoints of a pair covers both wire directions.
     * Only valid when checkpointable(); the default throws.
     */
    virtual void saveState(StateWriter &w) const;
    virtual void restoreState(StateReader &r);
};

/**
 * Create a connected pair of in-process endpoints; what one sends the
 * other receives, preserving order. Endpoints share state and must not
 * outlive each other across threads without external synchronization
 * (the co-simulation is single-threaded).
 */
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
makeInProcPair();

/** Syscalls one TcpTransport endpoint has made. */
struct TcpSyscalls
{
    uint64_t sends = 0;      ///< send(2) calls, partial writes included
    uint64_t recvs = 0;      ///< recv(2) calls
    uint64_t emptyRecvs = 0; ///< recv(2) calls that found no bytes (EAGAIN)

    TcpSyscalls &
    operator+=(const TcpSyscalls &o)
    {
        sends += o.sends;
        recvs += o.recvs;
        emptyRecvs += o.emptyRecvs;
        return *this;
    }
};

/**
 * TCP loopback transport. The listener binds/accepts on construction of
 * the pair factory; both ends use non-blocking reads with the shared
 * wire framing from packet.hh.
 *
 * Reads follow the lockstep period (DESIGN.md §5b, "read discipline"):
 *  - recv() decodes a frame already buffered before any syscall;
 *  - one pump stops at the first read shorter than its buffer, which
 *    means the socket was drained;
 *  - once a delivered SyncGrant or SyncDone leaves nothing buffered,
 *    the endpoint is quiet: recv() reports "no packet" without a
 *    syscall until this endpoint's next send() (or until
 *    waitReadable() sees inbound bytes). Those two packets end their
 *    direction's traffic for the period, and the peer sends nothing
 *    more until it hears from us, so the skipped read could only have
 *    found EAGAIN.
 */
class TcpTransport : public Transport
{
  public:
    /** Adopt a connected socket fd (owned; closed on destruction). */
    explicit TcpTransport(int fd);
    ~TcpTransport() override;

    TcpTransport(const TcpTransport &) = delete;
    TcpTransport &operator=(const TcpTransport &) = delete;

    void send(const Packet &p) override;
    bool recv(Packet &out) override;
    TransportState state() const override { return state_; }
    bool supportsWait() const override { return true; }
    bool waitReadable(int timeout_ms) override;
    uint64_t bytesSent() const override { return sent_; }
    uint64_t bytesReceived() const override { return received_; }

    /**
     * Bound on how long send() may block waiting for socket-buffer
     * space before concluding the peer stopped draining (default 5 s;
     * 0 waits forever).
     */
    void setSendTimeout(int ms) { sendTimeoutMs_ = ms; }

    /** Syscalls made so far. */
    const TcpSyscalls &syscalls() const { return syscalls_; }

    /**
     * Create a connected loopback pair: binds an ephemeral port on
     * 127.0.0.1, connects, accepts. Returns {server_end, client_end}.
     *
     * @throws TransportError when any socket operation fails (a busy
     *         port, exhausted descriptors, ...); never aborts, so a
     *         long-lived process can survive a failed setup.
     */
    static std::pair<std::unique_ptr<TcpTransport>,
                     std::unique_ptr<TcpTransport>>
    makeLoopbackPair();

  private:
    void pump();

    int fd_;
    FrameBuffer rx_;
    std::vector<uint8_t> tx_; ///< send()'s reused wire buffer
    TransportState state_ = TransportState::Open;
    bool quiet_ = false; ///< a period sentinel drained rx_ (see above)
    int sendTimeoutMs_ = 5000;
    uint64_t sent_ = 0;
    uint64_t received_ = 0;
    TcpSyscalls syscalls_;
};

/**
 * Listening TCP socket on 127.0.0.1, generalizing the one-shot
 * accept inside makeLoopbackPair() to a long-lived multi-client
 * listener (the mission-service daemon's front door).
 *
 * Failures throw TransportError — a failed bind() must surface as an
 * error a daemon can report, never a process abort. Binding port 0
 * picks an ephemeral port; port() returns the actual bound port so
 * concurrent processes (parallel tests, CI) never race on a fixed
 * number.
 */
class TcpListener
{
  public:
    /** Bind and listen; @p port 0 selects an ephemeral port.
     *  @throws TransportError on socket/bind/listen/getsockname
     *  failure. */
    explicit TcpListener(uint16_t port = 0, int backlog = 16);
    ~TcpListener();

    TcpListener(const TcpListener &) = delete;
    TcpListener &operator=(const TcpListener &) = delete;

    /** The actually-bound port (resolves an ephemeral request). */
    uint16_t port() const { return port_; }

    /** Listening descriptor, for callers running their own poll(). */
    int fd() const { return fd_; }

    /**
     * Wait up to @p timeout_ms for a pending connection and accept
     * it. Returns the connected fd (owned by the caller), or -1 on
     * timeout. timeout_ms < 0 blocks indefinitely.
     * @throws TransportError on a hard accept()/poll() failure or
     *         when the listener is closed.
     */
    int acceptFd(int timeout_ms);

    /** acceptFd() wrapped in a TcpTransport; nullptr on timeout. */
    std::unique_ptr<TcpTransport> accept(int timeout_ms);

    /** Close the listening socket (idempotent). */
    void close();

  private:
    int fd_ = -1;
    uint16_t port_ = 0;
};

} // namespace rose::bridge

#endif // ROSE_BRIDGE_TRANSPORT_HH
