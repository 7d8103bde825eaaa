/**
 * @file
 * Unit tests for the bridge substrate: packet codecs, wire framing,
 * FIFOs, transports (in-process and TCP loopback), the RoSÉ bridge
 * register file, and the target-side driver.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bridge/fifo.hh"
#include "bridge/packet.hh"
#include "bridge/rose_bridge.hh"
#include "bridge/target_driver.hh"
#include "bridge/transport.hh"

using namespace rose;
using namespace rose::bridge;

// --------------------------------------------------------------- codecs

TEST(Packet, SyncGrantRoundTrip)
{
    Packet p = encodeSyncGrant(123456789012345ULL);
    EXPECT_EQ(p.type, PacketType::SyncGrant);
    EXPECT_EQ(decodeSyncGrant(p), 123456789012345ULL);
}

TEST(Packet, SyncDoneAndCfgRoundTrip)
{
    EXPECT_EQ(decodeSyncDone(encodeSyncDone(42)), 42u);
    EXPECT_EQ(decodeCfgStepSize(encodeCfgStepSize(10 * kMegaCycles)),
              10 * kMegaCycles);
}

TEST(Packet, ImuRoundTrip)
{
    env::ImuSample s;
    s.accel = {0.1, -0.2, 9.81};
    s.gyro = {0.01, 0.02, -0.03};
    s.timestamp = 12.375;
    env::ImuSample r = decodeImuResp(encodeImuResp(s));
    EXPECT_DOUBLE_EQ(r.accel.x, s.accel.x);
    EXPECT_DOUBLE_EQ(r.accel.z, s.accel.z);
    EXPECT_DOUBLE_EQ(r.gyro.y, s.gyro.y);
    EXPECT_DOUBLE_EQ(r.timestamp, s.timestamp);
}

namespace {

/** A @p w x @p h ImageResp whose pixel byte i is fill(i). */
template <typename F>
Packet
imageResp(int w, int h, F fill)
{
    Packet p = encodeImageResp(w, h);
    uint8_t *px = imageRespPixels(p);
    for (size_t i = 0; i < size_t(w) * size_t(h); ++i)
        px[i] = uint8_t(fill(i));
    return p;
}

} // namespace

TEST(Packet, ImageRoundTripQuantized)
{
    Packet p = imageResp(8, 4, [](size_t i) { return i * 8; });
    ASSERT_EQ(p.payload.size(), 4u + 32u);
    env::Image r;
    decodeImageRespInto(p, r);
    EXPECT_EQ(r.width, 8);
    EXPECT_EQ(r.height, 4);
    for (size_t i = 0; i < r.pixels.size(); ++i)
        EXPECT_EQ(r.pixels[i], float(i * 8) / 255.0f);
}

TEST(Packet, ImageDecodeIntoMatchesAndReusesBuffer)
{
    Packet p = imageResp(8, 4, [](size_t i) { return i * 8; });
    env::Image fresh;
    decodeImageRespInto(p, fresh);
    // A buffer that last held a different-size frame decodes the same.
    env::Image reused(16, 16);
    reused.pixels.assign(reused.pixels.size(), 0.75f);
    decodeImageRespInto(p, reused);
    EXPECT_EQ(fresh.width, reused.width);
    EXPECT_EQ(fresh.height, reused.height);
    EXPECT_EQ(fresh.pixels, reused.pixels);
    // Same-size decodes land in the same allocation.
    const float *buf = reused.pixels.data();
    decodeImageRespInto(p, reused);
    EXPECT_EQ(reused.pixels.data(), buf);
    EXPECT_EQ(fresh.pixels, reused.pixels);
}

TEST(Packet, DepthAndVelocityRoundTrip)
{
    EXPECT_DOUBLE_EQ(decodeDepthResp(encodeDepthResp(7.25)), 7.25);
    VelocityCmdPayload v{3.0, -0.5, 0.125};
    VelocityCmdPayload r = decodeVelocityCmd(encodeVelocityCmd(v));
    EXPECT_DOUBLE_EQ(r.forward, 3.0);
    EXPECT_DOUBLE_EQ(r.lateral, -0.5);
    EXPECT_DOUBLE_EQ(r.yawRate, 0.125);
}

TEST(Packet, DataPacketClassification)
{
    EXPECT_FALSE(isDataPacket(PacketType::SyncGrant));
    EXPECT_FALSE(isDataPacket(PacketType::CfgStepSize));
    EXPECT_TRUE(isDataPacket(PacketType::ImuReq));
    EXPECT_TRUE(isDataPacket(PacketType::ImageResp));
    EXPECT_TRUE(isDataPacket(PacketType::VelocityCmd));
}

TEST(Packet, WireSizeMatchesHeaderPlusPayload)
{
    Packet p = encodeSyncGrant(1);
    EXPECT_EQ(p.wireSize(), Packet::kHeaderBytes + 8);
}

// ----------------------------------------------------------------- FIFO

TEST(Fifo, OrderAndAccounting)
{
    PacketFifo f(1024);
    EXPECT_TRUE(f.empty());
    EXPECT_TRUE(f.push(encodeDepthResp(1.0)));
    EXPECT_TRUE(f.push(encodeDepthResp(2.0)));
    EXPECT_EQ(f.packetCount(), 2u);
    EXPECT_EQ(f.usedBytes(), 2 * (Packet::kHeaderBytes + 8));

    Packet p;
    EXPECT_TRUE(f.pop(p));
    EXPECT_DOUBLE_EQ(decodeDepthResp(p), 1.0);
    EXPECT_TRUE(f.pop(p));
    EXPECT_DOUBLE_EQ(decodeDepthResp(p), 2.0);
    EXPECT_FALSE(f.pop(p));
    EXPECT_EQ(f.usedBytes(), 0u);
}

TEST(Fifo, BackpressureWhenFull)
{
    PacketFifo f(20); // one 13-byte depth packet fits, two do not
    EXPECT_TRUE(f.push(encodeDepthResp(1.0)));
    EXPECT_FALSE(f.push(encodeDepthResp(2.0)));
    Packet p;
    EXPECT_TRUE(f.pop(p));
    EXPECT_TRUE(f.push(encodeDepthResp(3.0)));
}

TEST(Fifo, FrontPeekDoesNotConsume)
{
    PacketFifo f(1024);
    EXPECT_EQ(f.front(), nullptr);
    f.push(encodeDepthResp(9.0));
    ASSERT_NE(f.front(), nullptr);
    EXPECT_EQ(f.front()->type, PacketType::DepthResp);
    EXPECT_EQ(f.packetCount(), 1u);
}

// ------------------------------------------------------------ transports

TEST(InProcTransport, BidirectionalOrder)
{
    auto [a, b] = makeInProcPair();
    a->send(encodeDepthResp(1.0));
    a->send(encodeDepthResp(2.0));
    b->send(encodeImuReq());

    Packet p;
    EXPECT_TRUE(b->recv(p));
    EXPECT_DOUBLE_EQ(decodeDepthResp(p), 1.0);
    EXPECT_TRUE(b->recv(p));
    EXPECT_DOUBLE_EQ(decodeDepthResp(p), 2.0);
    EXPECT_FALSE(b->recv(p));

    EXPECT_TRUE(a->recv(p));
    EXPECT_EQ(p.type, PacketType::ImuReq);
    EXPECT_GT(a->bytesSent(), 0u);
    EXPECT_GT(a->bytesReceived(), 0u);
}

TEST(TcpTransport, LoopbackRoundTrip)
{
    auto [server, client] = TcpTransport::makeLoopbackPair();
    client->send(encodeSyncGrant(5 * kMegaCycles));
    client->send(encodeImageReq());

    // Non-blocking: poll until delivery (loopback is effectively
    // immediate, but allow a few spins).
    Packet p;
    int spins = 0;
    while (!server->recv(p) && spins++ < 10000) {}
    EXPECT_EQ(p.type, PacketType::SyncGrant);
    EXPECT_EQ(decodeSyncGrant(p), 5 * kMegaCycles);
    spins = 0;
    while (!server->recv(p) && spins++ < 10000) {}
    EXPECT_EQ(p.type, PacketType::ImageReq);

    // And the reverse direction with a large payload (camera frame).
    server->send(imageResp(64, 48, [](size_t) { return 128; }));
    spins = 0;
    while (!client->recv(p) && spins++ < 10000) {}
    env::Image r;
    decodeImageRespInto(p, r);
    EXPECT_EQ(r.width, 64);
    EXPECT_NEAR(r.pixels[100], 0.5f, 1.0 / 255.0);
}

TEST(TcpTransport, PeerCloseSurfacesClosedState)
{
    auto [server, client] = TcpTransport::makeLoopbackPair();
    client->send(encodeDepthResp(6.5));
    client.reset(); // orderly close

    // In-flight data is still delivered...
    Packet p;
    int spins = 0;
    while (!server->recv(p) && spins++ < 10000) {}
    EXPECT_EQ(p.type, PacketType::DepthResp);

    // ...then the close is surfaced instead of "no data" forever.
    spins = 0;
    while (server->state() == TransportState::Open && spins++ < 10000)
        server->recv(p);
    EXPECT_EQ(server->state(), TransportState::Closed);
    EXPECT_FALSE(server->recv(p));

    // Sending into the closed transport fails loudly, not silently.
    EXPECT_THROW(
        {
            for (int i = 0; i < 64; ++i)
                server->send(encodeDepthResp(1.0));
        },
        TransportError);
}

TEST(TcpTransport, CorruptStreamIsRejectedNotLoopedOn)
{
    auto [server, client] = TcpTransport::makeLoopbackPair();
    client->send(encodeDepthResp(1.0));
    Packet p;
    int spins = 0;
    while (!server->recv(p) && spins++ < 10000) {}

    // Inject garbage at the framing layer by sending a packet whose
    // type byte the peer will not recognize: forge it via a raw Packet.
    Packet forged;
    forged.type = static_cast<PacketType>(0x6b);
    forged.payload = {1, 2, 3};
    client->send(forged);
    spins = 0;
    bool threw = false;
    while (spins++ < 10000) {
        try {
            if (server->recv(p))
                continue;
        } catch (const TransportError &e) {
            threw = true;
            EXPECT_NE(std::string(e.what()).find("framing"),
                      std::string::npos);
            break;
        }
    }
    EXPECT_TRUE(threw);
    EXPECT_EQ(server->state(), TransportState::Error);
}

TEST(TcpTransport, WaitReadableSeesInFlightData)
{
    auto [server, client] = TcpTransport::makeLoopbackPair();
    EXPECT_FALSE(server->waitReadable(0));
    client->send(encodeImuReq());
    EXPECT_TRUE(server->waitReadable(1000));
    Packet p;
    ASSERT_TRUE(server->recv(p));
    EXPECT_EQ(p.type, PacketType::ImuReq);
}

// ------------------------------------------------- TCP read discipline

namespace {

/** A TcpTransport whose peer is a raw socket, so a test decides how
 *  the peer's bytes are split into writes. */
struct RawPeer
{
    std::unique_ptr<TcpTransport> end;
    int fd = -1;

    RawPeer()
    {
        TcpListener listener(0, 1);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(listener.port());
        fd = socket(AF_INET, SOCK_STREAM, 0);
        if (fd >= 0 && connect(fd, reinterpret_cast<sockaddr *>(&addr),
                               sizeof(addr)) == 0)
            end = listener.accept(5000);
    }

    ~RawPeer()
    {
        if (fd >= 0)
            ::close(fd);
    }

    /** Write @p bytes with one blocking send(). */
    void
    write(const std::vector<uint8_t> &bytes) const
    {
        ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        ASSERT_EQ(n, ssize_t(bytes.size()));
    }
};

constexpr size_t kReadBytes = 16384; ///< TcpTransport's read buffer

} // namespace

TEST(TcpTransportReads, TwoFramesInOneSegmentTakeOneRead)
{
    RawPeer peer;
    ASSERT_NE(peer.end, nullptr);
    std::vector<uint8_t> wire;
    serializePacket(encodeDepthResp(1.0), wire);
    serializePacket(encodeDepthResp(2.0), wire);
    peer.write(wire);
    ASSERT_TRUE(peer.end->waitReadable(1000));

    Packet p;
    ASSERT_TRUE(peer.end->recv(p));
    EXPECT_DOUBLE_EQ(decodeDepthResp(p), 1.0);
    ASSERT_TRUE(peer.end->recv(p)); // buffered: no syscall
    EXPECT_DOUBLE_EQ(decodeDepthResp(p), 2.0);
    EXPECT_EQ(peer.end->syscalls().recvs, 1u);
    EXPECT_EQ(peer.end->syscalls().emptyRecvs, 0u);
}

TEST(TcpTransportReads, FrameLargerThanOneReadArrivesWhole)
{
    RawPeer peer;
    ASSERT_NE(peer.end, nullptr);
    std::vector<uint8_t> wire;
    serializePacket(imageResp(200, 200, [](size_t i) { return i % 251; }),
                    wire);
    ASSERT_GT(wire.size(), 2 * kReadBytes);
    peer.write(wire);
    ASSERT_TRUE(peer.end->waitReadable(1000));

    // Two full reads do not end the pump; the short third one does,
    // and the frame is whole after it.
    Packet p;
    ASSERT_TRUE(peer.end->recv(p));
    env::Image back;
    decodeImageRespInto(p, back);
    ASSERT_EQ(back.pixels.size(), 200u * 200u);
    for (size_t i = 0; i < back.pixels.size(); i += 997)
        EXPECT_EQ(back.pixels[i], float(i % 251) / 255.0f) << i;
    EXPECT_EQ(peer.end->syscalls().recvs, wire.size() / kReadBytes + 1);
    EXPECT_EQ(peer.end->syscalls().emptyRecvs, 0u);
}

TEST(TcpTransportReads, QuietAfterSentinelUntilNextSend)
{
    auto [server, client] = TcpTransport::makeLoopbackPair();
    client->send(encodeSyncGrant(7));
    ASSERT_TRUE(server->waitReadable(1000));
    Packet p;
    ASSERT_TRUE(server->recv(p));
    EXPECT_EQ(p.type, PacketType::SyncGrant);
    const uint64_t reads = server->syscalls().recvs;

    // The grant ended the peer's period, so recv() does not read —
    // even when a misbehaving peer talks past its sentinel.
    client->send(encodeDepthResp(3.0));
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(server->recv(p));
    EXPECT_EQ(server->syscalls().recvs, reads);

    // Our own send opens the next exchange and reading resumes.
    server->send(encodeSyncDone(7));
    int spins = 0;
    while (!server->recv(p) && spins++ < 10000) {}
    EXPECT_EQ(p.type, PacketType::DepthResp);
    EXPECT_GT(server->syscalls().recvs, reads);

    // So does a wait that sees bytes arrive while quiet.
    client->send(encodeSyncGrant(8));
    spins = 0;
    while (!server->recv(p) && spins++ < 10000) {}
    EXPECT_EQ(p.type, PacketType::SyncGrant);
    client->send(encodeDepthResp(4.0));
    EXPECT_FALSE(server->recv(p));
    ASSERT_TRUE(server->waitReadable(1000));
    ASSERT_TRUE(server->recv(p));
    EXPECT_DOUBLE_EQ(decodeDepthResp(p), 4.0);
}

TEST(TcpTransportReads, PeerCloseAfterSentinelSurfacesOnNextSend)
{
    auto [server, client] = TcpTransport::makeLoopbackPair();
    client->send(encodeSyncDone(5));
    client.reset(); // orderly close right after the sentinel
    ASSERT_TRUE(server->waitReadable(1000));
    Packet p;
    ASSERT_TRUE(server->recv(p));
    EXPECT_EQ(p.type, PacketType::SyncDone);

    // Quiet: the close is not read until we speak again...
    EXPECT_FALSE(server->recv(p));
    EXPECT_EQ(server->state(), TransportState::Open);

    // ...and then it is. The send itself may already see the close.
    try {
        server->send(encodeSyncGrant(5));
    } catch (const TransportError &) {
    }
    int spins = 0;
    while (server->state() == TransportState::Open && spins++ < 10000)
        EXPECT_FALSE(server->recv(p));
    EXPECT_EQ(server->state(), TransportState::Closed);
}

TEST(InProcTransport, PeerDestructionSurfacesClosedState)
{
    auto [a, b] = makeInProcPair();
    EXPECT_EQ(a->state(), TransportState::Open);
    b.reset();
    EXPECT_EQ(a->state(), TransportState::Closed);
    EXPECT_THROW(a->send(encodeImuReq()), TransportError);
}

// ----------------------------------------------------------- RoseBridge

namespace {

struct BridgeHarness
{
    std::unique_ptr<Transport> hostEnd;
    std::unique_ptr<Transport> bridgeEnd;
    RoseBridge bridge;

    BridgeHarness(BridgeConfig cfg = {})
        : bridge((init(), *bridgeEnd), cfg)
    {
    }

  private:
    void
    init()
    {
        auto [a, b] = makeInProcPair();
        hostEnd = std::move(a);
        bridgeEnd = std::move(b);
    }
};

} // namespace

TEST(RoseBridge, GrantsAccumulateBudget)
{
    BridgeHarness h;
    EXPECT_TRUE(h.bridge.stalled());
    h.hostEnd->send(encodeSyncGrant(1000));
    h.hostEnd->send(encodeCfgStepSize(1000));
    h.bridge.hostService();
    EXPECT_EQ(h.bridge.cycleBudget(), 1000u);
    EXPECT_EQ(h.bridge.cyclesPerSync(), 1000u);
    EXPECT_FALSE(h.bridge.stalled());

    h.bridge.consumeCycles(400);
    EXPECT_EQ(h.bridge.cycleBudget(), 600u);
    h.bridge.consumeCycles(600);
    EXPECT_TRUE(h.bridge.stalled());
}

TEST(RoseBridgeDeathTest, OverconsumePanics)
{
    BridgeHarness h;
    h.hostEnd->send(encodeSyncGrant(10));
    h.bridge.hostService();
    EXPECT_DEATH(h.bridge.consumeCycles(11), "granted");
}

TEST(RoseBridge, CompleteSyncSendsDone)
{
    BridgeHarness h;
    h.bridge.completeSync(12345);
    Packet p;
    ASSERT_TRUE(h.hostEnd->recv(p));
    EXPECT_EQ(p.type, PacketType::SyncDone);
    EXPECT_EQ(decodeSyncDone(p), 12345u);
}

TEST(RoseBridge, DataPacketsLandInRxFifo)
{
    BridgeHarness h;
    h.hostEnd->send(encodeDepthResp(4.5));
    h.bridge.hostService();
    EXPECT_EQ(h.bridge.rxFifo().packetCount(), 1u);
    EXPECT_EQ(h.bridge.stats().rxPackets, 1u);
    // Visible through the register file.
    EXPECT_EQ(h.bridge.read(reg::kRxCount), 1u);
    EXPECT_EQ(h.bridge.read(reg::kRxType),
              uint32_t(PacketType::DepthResp));
    EXPECT_EQ(h.bridge.read(reg::kRxLen), 8u);
}

TEST(RoseBridge, RxOverflowDropsAndCounts)
{
    BridgeConfig small;
    small.rxFifoBytes = 16; // one depth packet (13B), no more
    BridgeHarness h(small);
    h.hostEnd->send(encodeDepthResp(1.0));
    h.hostEnd->send(encodeDepthResp(2.0));
    h.bridge.hostService();
    EXPECT_EQ(h.bridge.stats().rxPackets, 1u);
    EXPECT_EQ(h.bridge.stats().rxDropped, 1u);
}

TEST(RoseBridge, MmioTxAssemblesPacket)
{
    BridgeHarness h;
    // Hand-roll a VelocityCmd through the register interface.
    Packet ref = encodeVelocityCmd({1.0, 2.0, 3.0});
    h.bridge.write(reg::kTxType, uint32_t(ref.type));
    h.bridge.write(reg::kTxLen, uint32_t(ref.payload.size()));
    for (size_t off = 0; off < ref.payload.size(); off += 4) {
        uint32_t w = 0;
        for (size_t b = 0; b < 4 && off + b < ref.payload.size(); ++b)
            w |= uint32_t(ref.payload[off + b]) << (8 * b);
        h.bridge.write(reg::kTxData, w);
    }
    h.bridge.write(reg::kTxCommit, 1);
    EXPECT_EQ(h.bridge.txFifo().packetCount(), 1u);

    // hostService flushes it to the transport.
    h.bridge.hostService();
    Packet p;
    ASSERT_TRUE(h.hostEnd->recv(p));
    VelocityCmdPayload v = decodeVelocityCmd(p);
    EXPECT_DOUBLE_EQ(v.forward, 1.0);
    EXPECT_DOUBLE_EQ(v.lateral, 2.0);
    EXPECT_DOUBLE_EQ(v.yawRate, 3.0);
}

TEST(RoseBridge, BudgetRegistersReadable)
{
    BridgeHarness h;
    h.hostEnd->send(encodeSyncGrant((uint64_t(7) << 32) | 5u));
    h.bridge.hostService();
    EXPECT_EQ(h.bridge.read(reg::kBudgetLo), 5u);
    EXPECT_EQ(h.bridge.read(reg::kBudgetHi), 7u);
}

// -------------------------------------------------------- TargetDriver

TEST(TargetDriver, RoundTripThroughBridge)
{
    BridgeHarness h;
    TargetDriver drv(h.bridge);

    // SoC -> host.
    EXPECT_TRUE(drv.txSend(encodeImageReq()));
    h.bridge.hostService();
    Packet p;
    ASSERT_TRUE(h.hostEnd->recv(p));
    EXPECT_EQ(p.type, PacketType::ImageReq);

    // Host -> SoC.
    h.hostEnd->send(imageResp(16, 12, [](size_t) { return 64; }));
    h.bridge.hostService();

    EXPECT_EQ(drv.rxCount(), 1u);
    auto rx = drv.rxPop();
    ASSERT_TRUE(rx.has_value());
    env::Image out;
    decodeImageRespInto(*rx, out);
    EXPECT_EQ(out.width, 16);
    EXPECT_NEAR(out.pixels[7], 0.25f, 1.0 / 255.0);
    EXPECT_FALSE(drv.rxPop().has_value());
}

TEST(TargetDriver, AccessCountingTracksMmio)
{
    BridgeHarness h;
    TargetDriver drv(h.bridge);
    drv.takeAccessCount();

    h.hostEnd->send(encodeDepthResp(2.0));
    h.bridge.hostService();
    auto rx = drv.rxPop();
    ASSERT_TRUE(rx.has_value());
    // rxPop: count + type + len + 2 data words + consume = 6 accesses.
    EXPECT_EQ(drv.takeAccessCount(), 6u);
    EXPECT_EQ(drv.takeAccessCount(), 0u);
}

TEST(TargetDriver, TxBackpressureReported)
{
    BridgeConfig tiny;
    tiny.txFifoBytes = 4; // nothing fits (header alone is 5 bytes)
    BridgeHarness h(tiny);
    TargetDriver drv(h.bridge);
    EXPECT_FALSE(drv.txSend(encodeImageReq()));
    EXPECT_FALSE(drv.txSend(encodeVelocityCmd({1, 2, 3})));
}

// ----------------------------------------------------------- robustness

namespace {

/** Hand-assemble a raw frame with an arbitrary type byte and length
 *  field (the length may lie about the payload that follows). */
std::vector<uint8_t>
rawFrame(uint8_t type, uint32_t claimed_len,
         const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> wire;
    wire.push_back(type);
    wire.push_back(claimed_len & 0xff);
    wire.push_back((claimed_len >> 8) & 0xff);
    wire.push_back((claimed_len >> 16) & 0xff);
    wire.push_back((claimed_len >> 24) & 0xff);
    wire.insert(wire.end(), payload.begin(), payload.end());
    return wire;
}

} // namespace

TEST(Framing, RejectsUnknownTypeByte)
{
    for (const std::vector<uint8_t> &wire :
         {rawFrame(0x7f, 0, {}), rawFrame(0xee, 3, {1, 2, 3})}) {
        Packet p;
        size_t consumed = 0;
        std::string err;
        EXPECT_EQ(tryDecodeFrame(wire.data(), wire.size(), consumed, p,
                                 &err),
                  FrameStatus::Malformed);
        EXPECT_EQ(consumed, 0u);
        EXPECT_NE(err.find("unknown packet type"), std::string::npos);
    }
}

TEST(Framing, RejectsOversizedLengthWithoutAllocating)
{
    // A length field claiming 4 GiB must be rejected from the 5 header
    // bytes alone — no allocation, no waiting for bytes that can never
    // legitimately arrive.
    std::vector<uint8_t> wire =
        rawFrame(uint8_t(PacketType::DepthResp), 0xffffffffu, {});
    Packet p;
    size_t consumed = 0;
    std::string err;
    EXPECT_EQ(tryDecodeFrame(wire.data(), wire.size(), consumed, p, &err),
              FrameStatus::Malformed);
    EXPECT_NE(err.find("kMaxPayloadBytes"), std::string::npos);

    // One past the bound is equally malformed.
    wire = rawFrame(uint8_t(PacketType::ImageResp),
                    uint32_t(kMaxPayloadBytes) + 1, {});
    EXPECT_EQ(tryDecodeFrame(wire.data(), wire.size(), consumed, p, &err),
              FrameStatus::Malformed);
}

TEST(Framing, TruncatedFrameIsNeedMoreNotHang)
{
    std::vector<uint8_t> wire;
    serializePacket(encodeDepthResp(2.5), wire);
    Packet p;
    size_t consumed = 1234;
    for (size_t n = 0; n < wire.size(); ++n) {
        EXPECT_EQ(tryDecodeFrame(wire.data(), n, consumed, p),
                  FrameStatus::NeedMore);
        EXPECT_EQ(consumed, 0u);
    }
    EXPECT_EQ(tryDecodeFrame(wire.data(), wire.size(), consumed, p),
              FrameStatus::Ok);
    EXPECT_EQ(consumed, wire.size());

    // Fed one byte at a time, a FrameBuffer holds the prefix and
    // yields the frame only once its last byte arrives.
    FrameBuffer fb;
    for (size_t i = 0; i + 1 < wire.size(); ++i) {
        fb.append(&wire[i], 1);
        EXPECT_EQ(fb.next(p), FrameStatus::NeedMore);
    }
    fb.append(&wire.back(), 1);
    ASSERT_EQ(fb.next(p), FrameStatus::Ok);
    EXPECT_DOUBLE_EQ(decodeDepthResp(p), 2.5);
    EXPECT_EQ(fb.pendingBytes(), 0u);
}

TEST(Framing, FrameBufferDrainsSplitStream)
{
    // Serialize every packet type back to back, feed the bytes to a
    // FrameBuffer in awkward 7-byte slices, and verify each frame
    // round-trips in order.
    std::vector<Packet> sent = {
        encodeSyncGrant(17),         encodeSyncDone(17),
        encodeCfgStepSize(1000),     encodeImuReq(),
        encodeImuResp({}),           encodeImageReq(),
        imageResp(8, 4, [](size_t) { return 128; }),
        encodeDepthReq(),
        encodeDepthResp(4.25),       encodeVelocityCmd({1, 2, 3}),
    };
    std::vector<uint8_t> wire;
    for (const Packet &p : sent)
        serializePacket(p, wire);

    FrameBuffer fb;
    std::vector<Packet> got;
    for (size_t off = 0; off < wire.size(); off += 7) {
        size_t n = std::min<size_t>(7, wire.size() - off);
        fb.append(wire.data() + off, n);
        Packet p;
        while (fb.next(p) == FrameStatus::Ok)
            got.push_back(p);
    }
    ASSERT_EQ(got.size(), sent.size());
    for (size_t i = 0; i < sent.size(); ++i) {
        EXPECT_EQ(got[i].type, sent[i].type) << "packet " << i;
        EXPECT_EQ(got[i].payload, sent[i].payload) << "packet " << i;
    }
    EXPECT_DOUBLE_EQ(decodeDepthResp(got[8]), 4.25);
    EXPECT_EQ(fb.pendingBytes(), 0u);
    Packet none;
    EXPECT_EQ(fb.next(none), FrameStatus::NeedMore);
}

TEST(Framing, FrameBufferPoisonsOnMalformed)
{
    FrameBuffer fb;
    std::vector<uint8_t> good;
    serializePacket(encodeDepthResp(1.0), good);
    fb.append(good.data(), good.size());
    std::vector<uint8_t> bad = rawFrame(0x42, 1, {9});
    fb.append(bad.data(), bad.size());

    Packet p;
    EXPECT_EQ(fb.next(p), FrameStatus::Ok); // the good frame first
    std::string err;
    EXPECT_EQ(fb.next(p, &err), FrameStatus::Malformed);
    // Once framing is lost the stream stays rejected.
    fb.append(good.data(), good.size());
    EXPECT_EQ(fb.next(p), FrameStatus::Malformed);
    fb.clear();
    fb.append(good.data(), good.size());
    EXPECT_EQ(fb.next(p), FrameStatus::Ok);
}

TEST(Framing, FuzzedBuffersNeverOverreadOrHang)
{
    // Random byte soup through the validated parser: every buffer must
    // resolve to Ok frames followed by NeedMore or Malformed — never a
    // crash, a hang, or a payload above the bound.
    rose::Rng rng(12345);
    for (int trial = 0; trial < 500; ++trial) {
        size_t n = 1 + rng.uniformInt(256);
        std::vector<uint8_t> buf(n);
        for (uint8_t &b : buf)
            b = uint8_t(rng.uniformInt(256));
        FrameBuffer fb;
        fb.append(buf.data(), buf.size());
        Packet p;
        size_t guard = 0;
        FrameStatus s;
        while ((s = fb.next(p)) == FrameStatus::Ok) {
            EXPECT_LE(p.payload.size(), kMaxPayloadBytes);
            ASSERT_LT(guard++, buf.size()) << "parser failed to make "
                                              "progress";
        }
        EXPECT_TRUE(s == FrameStatus::NeedMore ||
                    s == FrameStatus::Malformed);
    }
}

TEST(Packet, TruncatedPayloadThrows)
{
    // A data packet whose payload is shorter than its decoder expects
    // must fail loudly (never read out of bounds) — but as a catchable
    // PayloadError, since fault injection can corrupt length fields
    // and the resilience layer recovers from it.
    Packet p;
    p.type = PacketType::DepthResp;
    p.payload = {1, 2, 3}; // needs 8 bytes
    EXPECT_THROW(decodeDepthResp(p), PayloadError);
}

TEST(RoseBridge, UnmappedRegistersAreBenign)
{
    BridgeHarness h;
    EXPECT_EQ(h.bridge.read(0xF8), 0u);
    h.bridge.write(0xF8, 42); // warns, does not crash
    EXPECT_EQ(h.bridge.stats().mmioReads, 1u);
    EXPECT_EQ(h.bridge.stats().mmioWrites, 1u);
}
