/**
 * @file
 * Fuzz/property tests for the bridge wire framing (util/frame.hh over
 * bridge::Packet).
 *
 * Two properties, each over hundreds of seeded-random streams:
 *
 *  1. Robustness: arbitrary bytes pushed through FrameBuffer in
 *     arbitrary chunk sizes always classify every prefix as exactly
 *     Ok / NeedMore / Malformed — no crash, no hang, no unbounded
 *     allocation (any Ok payload respects kMaxPayloadBytes), and a
 *     poisoned buffer stays Malformed forever.
 *
 *  2. Round-trip: every packet type, encoded and serialized into one
 *     stream then re-fed through the decoder fragmented at random
 *     boundaries, comes back byte-equal and in order regardless of
 *     how the stream was chunked.
 *
 * The image payload codec and the target driver's RX path get their
 * own seeded sweeps: malformed image headers and dimensions must throw
 * PayloadError without touching the caller's image, and every payload
 * length must cross the MMIO queue intact at exactly 3 + ceil(len/4)
 * reads and one write. A packet restored from checkpoint state goes
 * through the same header validation: a bad type byte or an inflated
 * length throws SerdeError before any payload buffer is sized.
 *
 * All randomness is from the repo's deterministic Rng, so a failing
 * seed is printed and reproducible.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <new>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bridge/packet.hh"
#include "bridge/rose_bridge.hh"
#include "bridge/target_driver.hh"
#include "bridge/transport.hh"
#include "env/sensors.hh"
#include "util/geometry.hh"
#include "util/rng.hh"
#include "util/serde.hh"

using namespace rose;
using namespace rose::bridge;

// The largest single operator-new request since the last reset, so a
// test can show that no buffer was sized from an untrusted length.
namespace {
std::atomic<size_t> g_largestAlloc{0};
} // namespace

void *
operator new(size_t n)
{
    size_t prev = g_largestAlloc.load(std::memory_order_relaxed);
    while (n > prev && !g_largestAlloc.compare_exchange_weak(
                           prev, n, std::memory_order_relaxed)) {
    }
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](size_t n)
{
    return ::operator new(n);
}

// Out of line, so GCC does not pair the inlined free() with the
// operator new at each call site (-Wmismatched-new-delete).
__attribute__((noinline)) void
operator delete(void *p) noexcept
{
    std::free(p);
}

void operator delete[](void *p) noexcept { ::operator delete(p); }
void operator delete(void *p, size_t) noexcept { ::operator delete(p); }
void operator delete[](void *p, size_t) noexcept { ::operator delete(p); }

namespace {

/** Feed a byte stream to a FrameBuffer in random-size chunks, draining
 *  after every append. Fills @p decoded with the decoded packets;
 *  asserts the classification invariants along the way. (Void return:
 *  gtest ASSERT_* only works in void functions — callers check
 *  HasFatalFailure().) */
void
pushChunked(FrameBuffer &fb, const std::vector<uint8_t> &stream,
            Rng &rng, std::vector<Packet> &decoded,
            bool *poisoned = nullptr)
{
    bool dead = false;
    size_t pos = 0;
    while (pos < stream.size()) {
        size_t chunk = 1 + rng.uniformInt(257); // 1..257 bytes
        if (chunk > stream.size() - pos)
            chunk = stream.size() - pos;
        fb.append(stream.data() + pos, chunk);
        pos += chunk;

        // Drain. Each Ok consumes >= kHeaderBytes, so the loop is
        // bounded by stream bytes / header size — enforce it so a
        // zero-consumption decoder bug hangs the test run, not CI.
        size_t guard = stream.size() / Packet::kHeaderBytes + 2;
        for (;;) {
            ASSERT_GT(guard--, 0u) << "decoder loop did not terminate";
            Packet p;
            std::string err;
            FrameStatus st = fb.next(p, &err);
            ASSERT_TRUE(st == FrameStatus::Ok ||
                        st == FrameStatus::NeedMore ||
                        st == FrameStatus::Malformed)
                << "unclassified status " << int(st);
            if (st == FrameStatus::Ok) {
                ASSERT_FALSE(dead)
                    << "Ok after Malformed: poison did not stick";
                ASSERT_TRUE(isValidPacketType(uint8_t(p.type)));
                ASSERT_LE(p.payload.size(), kMaxPayloadBytes);
                decoded.push_back(std::move(p));
                continue;
            }
            if (st == FrameStatus::Malformed) {
                EXPECT_FALSE(err.empty())
                    << "Malformed must carry a diagnostic";
                dead = true;
            }
            break; // NeedMore or Malformed: nothing more this chunk
        }
    }
    if (poisoned)
        *poisoned = dead;
}

/** Build one of each packet type, with payload contents drawn from
 *  rng so repeated calls produce distinct packets. */
std::vector<Packet>
samplePackets(Rng &rng)
{
    env::ImuSample imu;
    imu.accel = {rng.uniform(-20, 20), rng.uniform(-20, 20),
                 rng.uniform(-20, 20)};
    imu.gyro = {rng.uniform(-5, 5), rng.uniform(-5, 5),
                rng.uniform(-5, 5)};
    imu.timestamp = rng.uniform(0, 1e4);

    Packet img = encodeImageResp(int(4 + rng.uniformInt(29)),
                                 int(4 + rng.uniformInt(29)));
    uint8_t *px = imageRespPixels(img);
    for (size_t i = 4; i < img.payload.size(); ++i)
        *px++ = uint8_t(rng.next());

    VelocityCmdPayload cmd;
    cmd.forward = rng.uniform(-10, 10);
    cmd.lateral = rng.uniform(-10, 10);
    cmd.yawRate = rng.uniform(-3, 3);

    return {
        encodeSyncGrant(rng.next()),
        encodeSyncDone(rng.next()),
        encodeCfgStepSize(1 + rng.uniformInt(1u << 20)),
        encodeImuReq(),
        encodeImuResp(imu),
        encodeImageReq(),
        img,
        encodeDepthReq(),
        encodeDepthResp(rng.uniform(0, 100)),
        encodeVelocityCmd(cmd),
    };
}

} // namespace

TEST(FramingFuzz, RandomBytesNeverCrashOrHang)
{
    // Pure noise: almost every stream poisons quickly (the first bad
    // type byte), but nothing may crash, loop, or allocate past the
    // payload bound on the way there.
    for (uint64_t seed = 0; seed < 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(0xf022'0000 + seed);

        std::vector<uint8_t> noise(64 + rng.uniformInt(4096));
        for (uint8_t &b : noise)
            b = uint8_t(rng.next());

        FrameBuffer fb;
        std::vector<Packet> decoded;
        pushChunked(fb, noise, rng, decoded);
        if (HasFatalFailure())
            return;
    }
}

TEST(FramingFuzz, ValidTypeBytesStressLengthHandling)
{
    // Adversarial middle ground: streams whose bytes are biased toward
    // valid type codes and plausible little-endian lengths, so the
    // decoder frequently gets past the type check and must survive the
    // length-field paths (huge lengths, truncated payloads).
    const uint8_t types[] = {0x01, 0x02, 0x03, 0x10, 0x11,
                             0x12, 0x13, 0x14, 0x15, 0x16};
    for (uint64_t seed = 0; seed < 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(0xb1a5'0000 + seed);

        std::vector<uint8_t> stream;
        size_t records = 1 + rng.uniformInt(40);
        for (size_t r = 0; r < records; ++r) {
            stream.push_back(types[rng.uniformInt(10)]);
            // Length field: mostly small, sometimes enormous.
            uint32_t len = rng.bernoulli(0.15)
                               ? uint32_t(rng.next())
                               : uint32_t(rng.uniformInt(512));
            for (int i = 0; i < 4; ++i)
                stream.push_back(uint8_t(len >> (8 * i)));
            // Truncated-or-complete payload filler.
            size_t fill = rng.uniformInt(300);
            for (size_t i = 0; i < fill; ++i)
                stream.push_back(uint8_t(rng.next()));
        }

        FrameBuffer fb;
        std::vector<Packet> decoded;
        pushChunked(fb, stream, rng, decoded);
        if (HasFatalFailure())
            return;
    }
}

TEST(FramingFuzz, RoundTripSurvivesArbitraryFragmentation)
{
    for (uint64_t seed = 0; seed < 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(0x0f2a'6000 + seed);

        // A stream of several full packet sets, shuffled draws.
        std::vector<Packet> sent;
        size_t sets = 1 + rng.uniformInt(3);
        for (size_t s = 0; s < sets; ++s) {
            std::vector<Packet> batch = samplePackets(rng);
            for (Packet &p : batch)
                sent.push_back(std::move(p));
        }

        std::vector<uint8_t> stream;
        for (const Packet &p : sent)
            serializePacket(p, stream);

        FrameBuffer fb;
        bool poisoned = false;
        std::vector<Packet> got;
        pushChunked(fb, stream, rng, got, &poisoned);
        if (HasFatalFailure())
            return;

        EXPECT_FALSE(poisoned) << "valid stream classified Malformed";
        ASSERT_EQ(got.size(), sent.size());
        EXPECT_EQ(fb.pendingBytes(), 0u);
        for (size_t i = 0; i < sent.size(); ++i) {
            EXPECT_EQ(got[i].type, sent[i].type) << "packet " << i;
            EXPECT_EQ(got[i].payload, sent[i].payload) << "packet " << i;
        }
    }
}

TEST(FramingFuzz, TypedCodecsRoundTripThroughTheWire)
{
    // Beyond byte equality: the typed decode of a re-framed packet
    // reproduces the encoded values exactly.
    Rng rng(0xc0dec);
    env::ImuSample imu;
    imu.accel = {1.25, -9.81, 0.5};
    imu.gyro = {-0.125, 0.75, 2.0};
    imu.timestamp = 123.456;

    Packet img = encodeImageResp(8, 6);
    for (size_t i = 0; i < 48; ++i)
        imageRespPixels(img)[i] = uint8_t(i * 5);

    VelocityCmdPayload cmd{3.5, -1.25, 0.5};

    std::vector<uint8_t> stream;
    serializePacket(encodeSyncGrant(0x1234'5678'9abc'def0ULL), stream);
    serializePacket(encodeImuResp(imu), stream);
    serializePacket(img, stream);
    serializePacket(encodeDepthResp(42.5), stream);
    serializePacket(encodeVelocityCmd(cmd), stream);

    FrameBuffer fb;
    std::vector<Packet> got;
    pushChunked(fb, stream, rng, got);
    ASSERT_EQ(got.size(), 5u);

    EXPECT_EQ(decodeSyncGrant(got[0]), 0x1234'5678'9abc'def0ULL);

    env::ImuSample imu2 = decodeImuResp(got[1]);
    EXPECT_EQ(imu2.accel.x, imu.accel.x);
    EXPECT_EQ(imu2.accel.y, imu.accel.y);
    EXPECT_EQ(imu2.accel.z, imu.accel.z);
    EXPECT_EQ(imu2.gyro.x, imu.gyro.x);
    EXPECT_EQ(imu2.timestamp, imu.timestamp);

    env::Image img2;
    decodeImageRespInto(got[2], img2);
    ASSERT_EQ(img2.width, 8);
    ASSERT_EQ(img2.height, 6);
    for (size_t i = 0; i < img2.pixels.size(); ++i)
        EXPECT_EQ(img2.pixels[i], float(i * 5) / 255.0f) << "pixel " << i;

    EXPECT_EQ(decodeDepthResp(got[3]), 42.5);

    VelocityCmdPayload cmd2 = decodeVelocityCmd(got[4]);
    EXPECT_EQ(cmd2.forward, cmd.forward);
    EXPECT_EQ(cmd2.lateral, cmd.lateral);
    EXPECT_EQ(cmd2.yawRate, cmd.yawRate);
}

TEST(FramingFuzz, HeaderEdgeCases)
{
    Packet p;
    std::string err;
    size_t consumed = 0;

    // Empty / short prefixes of a valid header: NeedMore, 0 consumed.
    std::vector<uint8_t> valid;
    serializePacket(encodeDepthReq(), valid);
    for (size_t n = 0; n < valid.size(); ++n) {
        EXPECT_EQ(tryDecodeFrame(valid.data(), n, consumed, p, &err),
                  FrameStatus::NeedMore)
            << "prefix " << n;
        EXPECT_EQ(consumed, 0u);
    }
    EXPECT_EQ(tryDecodeFrame(valid.data(), valid.size(), consumed, p,
                             &err),
              FrameStatus::Ok);
    EXPECT_EQ(consumed, valid.size());

    // Unknown type byte: the decoder validates the header as a unit,
    // so a lone bad byte is NeedMore until the header completes, then
    // Malformed.
    uint8_t bad_type[] = {0xee, 0, 0, 0, 0};
    EXPECT_EQ(tryDecodeFrame(bad_type, 1, consumed, p, &err),
              FrameStatus::NeedMore);
    EXPECT_EQ(tryDecodeFrame(bad_type, sizeof(bad_type), consumed, p,
                             &err),
              FrameStatus::Malformed);

    // Length above kMaxPayloadBytes: Malformed, not NeedMore — a
    // poisoned length must never make the receiver wait forever.
    uint32_t huge = uint32_t(kMaxPayloadBytes) + 1;
    uint8_t oversize[] = {0x10, uint8_t(huge), uint8_t(huge >> 8),
                          uint8_t(huge >> 16), uint8_t(huge >> 24)};
    EXPECT_EQ(tryDecodeFrame(oversize, sizeof(oversize), consumed, p,
                             &err),
              FrameStatus::Malformed);

    // Length exactly at the bound with no payload yet: NeedMore (it is
    // legitimate, just incomplete).
    uint32_t max = uint32_t(kMaxPayloadBytes);
    uint8_t at_bound[] = {0x13, uint8_t(max), uint8_t(max >> 8),
                          uint8_t(max >> 16), uint8_t(max >> 24)};
    EXPECT_EQ(tryDecodeFrame(at_bound, sizeof(at_bound), consumed, p,
                             &err),
              FrameStatus::NeedMore);
}

TEST(FramingFuzz, PoisonedBufferStaysPoisoned)
{
    FrameBuffer fb;
    uint8_t junk[] = {0xff, 1, 2, 3, 4, 5, 6, 7};
    fb.append(junk, sizeof(junk));

    Packet p;
    EXPECT_EQ(fb.next(p), FrameStatus::Malformed);

    // Even a perfectly valid packet appended afterwards must not
    // decode: framing is unrecoverable once lost.
    std::vector<uint8_t> valid;
    serializePacket(encodeImuReq(), valid);
    fb.append(valid.data(), valid.size());
    EXPECT_EQ(fb.next(p), FrameStatus::Malformed);

    fb.clear();
    fb.append(valid.data(), valid.size());
    EXPECT_EQ(fb.next(p), FrameStatus::Ok);
    EXPECT_EQ(p.type, PacketType::ImuReq);
}

// ------------------------------------------------------ image payloads

namespace {

/** An ImageResp packet with the given header and pixel bytes. */
Packet
imagePacket(uint32_t w, uint32_t h, const std::vector<uint8_t> &pixels)
{
    StateWriter bw;
    bw.u16(uint16_t(w));
    bw.u16(uint16_t(h));
    bw.bytes(pixels.data(), pixels.size());
    return Packet{PacketType::ImageResp, bw.take()};
}

/** The per-pixel quantizer and dequantizer, one value at a time. */
uint8_t
quantize(float v)
{
    return uint8_t(clampd(double(v), 0.0, 1.0) * 255.0 + 0.5);
}

float
dequantize(uint8_t b)
{
    return b / 255.0f;
}

} // namespace

TEST(FramingFuzz, ImageCodecMatchesPerPixelExpressions)
{
    // The camera's byte for a float pixel is the bridge's quantizer,
    // special values included.
    const float specials[] = {
        -1.0f, -0.0f, 0.0f, 0.5f / 255.0f, 0.5f, 1.0f, 1.5f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::denorm_min()};
    for (float v : specials)
        EXPECT_EQ(env::pixel::byte(v, 0.0f), quantize(v)) << v;
    env::Image out;
    for (uint64_t seed = 0; seed < 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(0x1a6e'0000 + seed);
        const int w = int(rng.uniformInt(70));
        const int h = int(rng.uniformInt(70));
        Packet p = encodeImageResp(w, h);
        ASSERT_EQ(p.payload.size(), 4 + size_t(w) * h);
        uint8_t *px = imageRespPixels(p);
        for (int i = 0; i < w * h; ++i) {
            float v = rng.bernoulli(0.1)
                          ? specials[rng.uniformInt(std::size(specials))]
                          : float(rng.uniform(-0.2, 1.2));
            px[i] = env::pixel::byte(v, 0.0f);
            ASSERT_EQ(px[i], quantize(v)) << "pixel " << i << " = " << v;
        }

        decodeImageRespInto(p, out);
        ASSERT_EQ(out.width, w);
        ASSERT_EQ(out.height, h);
        for (size_t i = 0; i < out.pixels.size(); ++i) {
            float want = dequantize(p.payload[4 + i]);
            ASSERT_EQ(std::memcmp(&out.pixels[i], &want, sizeof(float)),
                      0)
                << "pixel " << i;
        }
    }
}

TEST(FramingFuzz, MalformedImagePayloadsThrowAndLeaveImageIntact)
{
    env::Image keep(3, 2);
    keep.pixels = {0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f};
    const env::Image original = keep;
    auto expectRejected = [&](const Packet &p, const std::string &what) {
        SCOPED_TRACE(what);
        EXPECT_THROW(decodeImageRespInto(p, keep), PayloadError);
        EXPECT_EQ(keep.width, original.width);
        EXPECT_EQ(keep.height, original.height);
        EXPECT_EQ(keep.pixels, original.pixels);
    };

    // Truncated headers: fewer than the four dimension bytes.
    for (size_t n = 0; n < 4; ++n) {
        Packet p{PacketType::ImageResp, std::vector<uint8_t>(n, 7)};
        expectRejected(p, "header bytes " + std::to_string(n));
    }

    // Extreme dimensions: 65535 on either side needs 65535*h bytes.
    expectRejected(imagePacket(65535, 65535, {}), "65535x65535 empty");
    expectRejected(imagePacket(65535, 2, std::vector<uint8_t>(65535)),
                   "65535x2 with one row");
    expectRejected(imagePacket(0, 5, {1}), "0x5 with a byte");

    // Seeded w*h != remaining, on both sides of the true size.
    for (uint64_t seed = 0; seed < 300; ++seed) {
        Rng rng(0xd1e5'0000 + seed);
        uint32_t w = uint32_t(rng.uniformInt(65536));
        uint32_t h = uint32_t(rng.uniformInt(65536));
        if (rng.bernoulli(0.5)) {
            w = uint32_t(rng.uniformInt(40));
            h = uint32_t(rng.uniformInt(40));
        }
        size_t want = size_t(w) * h;
        size_t have = size_t(rng.uniformInt(2048));
        if (have == want)
            ++have;
        std::vector<uint8_t> px(have);
        for (uint8_t &b : px)
            b = uint8_t(rng.next());
        expectRejected(imagePacket(w, h, px),
                       "seed " + std::to_string(seed) + ": " +
                           std::to_string(w) + "x" + std::to_string(h) +
                           " with " + std::to_string(have));
    }

    // Zero-area images are legal: the image empties.
    env::Image empty = original;
    decodeImageRespInto(imagePacket(0, 0, {}), empty);
    EXPECT_EQ(empty.width, 0);
    EXPECT_EQ(empty.height, 0);
    EXPECT_TRUE(empty.pixels.empty());
    decodeImageRespInto(imagePacket(0, 65535, {}), empty);
    EXPECT_EQ(empty.height, 65535);
    EXPECT_TRUE(empty.pixels.empty());

    // The widest legal row: 65535 x 1.
    std::vector<uint8_t> row(65535);
    for (size_t i = 0; i < row.size(); ++i)
        row[i] = uint8_t(i * 7);
    env::Image wide;
    decodeImageRespInto(imagePacket(65535, 1, row), wide);
    ASSERT_EQ(wide.pixels.size(), row.size());
    for (size_t i = 0; i < row.size(); i += 997)
        EXPECT_EQ(wide.pixels[i], dequantize(row[i])) << "pixel " << i;
}

TEST(FramingFuzz, CheckpointedPacketHeaderIsValidatedBeforeAllocation)
{
    // An in-process endpoint checkpoints its inbound queue as u32
    // count + one wire frame per packet: type byte at 4, length at 5.
    auto [a, b] = makeInProcPair();
    a->send(encodeDepthResp(4.5));
    StateWriter w;
    b->saveState(w);
    const std::vector<uint8_t> good = w.take();
    ASSERT_EQ(good[4], uint8_t(PacketType::DepthResp));
    {
        StateReader r(good);
        b->restoreState(r);
        Packet p;
        ASSERT_TRUE(b->recv(p));
        EXPECT_DOUBLE_EQ(decodeDepthResp(p), 4.5);
    }

    StateWriter inflate(good);
    inflate.patchU32(5, 200u << 20); // 200 MiB
    std::vector<uint8_t> inflated = inflate.take();
    std::vector<uint8_t> bad_type = good;
    bad_type.at(4) = 0x7f;

    for (const std::vector<uint8_t> *blob : {&inflated, &bad_type}) {
        SCOPED_TRACE(blob == &inflated ? "inflated length"
                                       : "invalid type byte");
        g_largestAlloc = 0;
        StateReader r(*blob);
        EXPECT_THROW(b->restoreState(r), SerdeError);
        EXPECT_LT(g_largestAlloc.load(), size_t(1) << 20);
    }
}

// ------------------------------------------------- target driver RX path

TEST(FramingFuzz, RxPopDeliversEveryLengthAtFixedMmioCost)
{
    auto [host, soc_end] = makeInProcPair();
    RoseBridge bridge(*soc_end);
    TargetDriver drv(bridge);
    Rng rng(0x2b0b);

    std::vector<size_t> lengths;
    for (size_t n = 0; n <= 67; ++n)
        lengths.push_back(n);
    for (int i = 0; i < 200; ++i)
        lengths.push_back(size_t(rng.uniformInt(12 * 1024)));

    for (size_t len : lengths) {
        SCOPED_TRACE("len " + std::to_string(len));
        Packet sent{PacketType::DepthResp, std::vector<uint8_t>(len)};
        for (uint8_t &b : sent.payload)
            b = uint8_t(rng.next());
        host->send(sent);
        bridge.hostService();

        drv.takeAccessCount();
        uint64_t reads = bridge.stats().mmioReads;
        uint64_t writes = bridge.stats().mmioWrites;
        std::optional<Packet> got = drv.rxPop();
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->type, sent.type);
        EXPECT_EQ(got->payload, sent.payload);

        uint64_t words = (len + 3) / 4;
        EXPECT_EQ(bridge.stats().mmioReads - reads, 3 + words);
        EXPECT_EQ(bridge.stats().mmioWrites - writes, 1u);
        EXPECT_EQ(drv.takeAccessCount(), 3 + words + 1);
        EXPECT_FALSE(drv.rxPop().has_value());
        if (HasFailure())
            return;
    }
}

TEST(FramingFuzz, RxDataTailWordIsZeroPadded)
{
    auto [host, soc_end] = makeInProcPair();
    RoseBridge bridge(*soc_end);
    for (size_t len = 1; len <= 9; ++len) {
        SCOPED_TRACE("len " + std::to_string(len));
        Packet sent{PacketType::DepthResp, {}};
        for (size_t i = 0; i < len; ++i)
            sent.payload.push_back(uint8_t(0xa0 + i));
        host->send(sent);
        bridge.hostService();

        // Words are little-endian; bytes past the payload read as
        // zero, including whole words read after the end.
        for (size_t off = 0; off < len + 8; off += 4) {
            uint32_t want = 0;
            for (size_t b = 0; b < 4; ++b) {
                if (off + b < len)
                    want |= uint32_t(sent.payload[off + b]) << (8 * b);
            }
            EXPECT_EQ(bridge.read(reg::kRxData), want) << "offset " << off;
        }
        bridge.write(reg::kRxConsume, 1);
    }
    EXPECT_EQ(bridge.read(reg::kRxCount), 0u);
}
