#include "packet.hh"

#include "util/logging.hh"

namespace rose::bridge {

bool
isDataPacket(PacketType t)
{
    return static_cast<uint8_t>(t) >= 0x10;
}

bool
isValidPacketType(uint8_t raw)
{
    switch (static_cast<PacketType>(raw)) {
      case PacketType::SyncGrant:
      case PacketType::SyncDone:
      case PacketType::CfgStepSize:
      case PacketType::ImuReq:
      case PacketType::ImuResp:
      case PacketType::ImageReq:
      case PacketType::ImageResp:
      case PacketType::DepthReq:
      case PacketType::DepthResp:
      case PacketType::VelocityCmd:
        return true;
    }
    return false;
}

std::string
packetTypeName(PacketType t)
{
    switch (t) {
      case PacketType::SyncGrant: return "SyncGrant";
      case PacketType::SyncDone: return "SyncDone";
      case PacketType::CfgStepSize: return "CfgStepSize";
      case PacketType::ImuReq: return "ImuReq";
      case PacketType::ImuResp: return "ImuResp";
      case PacketType::ImageReq: return "ImageReq";
      case PacketType::ImageResp: return "ImageResp";
      case PacketType::DepthReq: return "DepthReq";
      case PacketType::DepthResp: return "DepthResp";
      case PacketType::VelocityCmd: return "VelocityCmd";
    }
    return "Unknown";
}

// ----------------------------------------------------------------- codecs

namespace {

/** Payload reader of every packet decoder: underrun is PayloadError. */
using PayloadReader = BasicStateReader<PayloadError>;

Packet
makeU64Packet(PacketType t, uint64_t v)
{
    StateWriter w;
    w.u64(v);
    return Packet{t, w.take()};
}

uint64_t
takeU64(const Packet &p, PacketType expect)
{
    rose_assert(p.type == expect, "packet type mismatch: got ",
                packetTypeName(p.type));
    PayloadReader r(p.payload);
    return r.u64();
}

} // namespace

Packet
encodeSyncGrant(uint64_t cycles)
{
    return makeU64Packet(PacketType::SyncGrant, cycles);
}

uint64_t
decodeSyncGrant(const Packet &p)
{
    return takeU64(p, PacketType::SyncGrant);
}

Packet
encodeSyncDone(uint64_t cycles_run)
{
    return makeU64Packet(PacketType::SyncDone, cycles_run);
}

uint64_t
decodeSyncDone(const Packet &p)
{
    return takeU64(p, PacketType::SyncDone);
}

Packet
encodeCfgStepSize(uint64_t cycles_per_sync)
{
    return makeU64Packet(PacketType::CfgStepSize, cycles_per_sync);
}

uint64_t
decodeCfgStepSize(const Packet &p)
{
    return takeU64(p, PacketType::CfgStepSize);
}

Packet
encodeImuReq()
{
    return Packet{PacketType::ImuReq, {}};
}

Packet
encodeImuResp(const env::ImuSample &s)
{
    StateWriter w;
    w.f64(s.accel.x);
    w.f64(s.accel.y);
    w.f64(s.accel.z);
    w.f64(s.gyro.x);
    w.f64(s.gyro.y);
    w.f64(s.gyro.z);
    w.f64(s.timestamp);
    return Packet{PacketType::ImuResp, w.take()};
}

env::ImuSample
decodeImuResp(const Packet &p)
{
    rose_assert(p.type == PacketType::ImuResp, "expected ImuResp");
    PayloadReader r(p.payload);
    env::ImuSample s;
    s.accel.x = r.f64();
    s.accel.y = r.f64();
    s.accel.z = r.f64();
    s.gyro.x = r.f64();
    s.gyro.y = r.f64();
    s.gyro.z = r.f64();
    s.timestamp = r.f64();
    return s;
}

Packet
encodeImageReq()
{
    return Packet{PacketType::ImageReq, {}};
}

Packet
encodeImageResp(int width, int height)
{
    // One allocation: the header goes into the reserved payload, and
    // the pixels are rendered straight into its tail.
    const size_t pixels = size_t(width) * size_t(height);
    StateWriter w;
    w.reserve(4 + pixels);
    w.u16(static_cast<uint16_t>(width));
    w.u16(static_cast<uint16_t>(height));
    Packet p{PacketType::ImageResp, w.take()};
    p.payload.resize(4 + pixels);
    return p;
}

uint8_t *
imageRespPixels(Packet &p)
{
    rose_assert(p.type == PacketType::ImageResp && p.payload.size() >= 4,
                "expected an ImageResp");
    return p.payload.data() + 4;
}

Packet
renderImageResp(env::Camera &cam, const env::World &world,
                const Vec3 &position, const Quat &attitude)
{
    Packet p = encodeImageResp(cam.config().width, cam.config().height);
    cam.renderInto(world, position, attitude, imageRespPixels(p));
    return p;
}

void
decodeImageRespInto(const Packet &p, env::Image &img)
{
    rose_assert(p.type == PacketType::ImageResp, "expected ImageResp");
    PayloadReader r(p.payload);
    int w = r.u16();
    int h = r.u16();
    // Dimensions must agree with the payload exactly: corrupted
    // dimension bytes would otherwise request an allocation of up to
    // 64K x 64K pixels or walk off the end of the payload.
    if (size_t(w) * size_t(h) != r.remaining())
        throw PayloadError(
            "image dimensions disagree with payload size (" +
            std::to_string(w) + "x" + std::to_string(h) + " vs " +
            std::to_string(r.remaining()) + " pixel bytes)");
    img.width = w;
    img.height = h;
    img.pixels.resize(size_t(w) * size_t(h));
    // Validated above: exactly one payload byte per pixel remains.
    const uint8_t *src = p.payload.data() + 4;
    for (float &v : img.pixels)
        v = *src++ / 255.0f;
}

Packet
encodeDepthReq()
{
    return Packet{PacketType::DepthReq, {}};
}

Packet
encodeDepthResp(double depth_m)
{
    StateWriter w;
    w.f64(depth_m);
    return Packet{PacketType::DepthResp, w.take()};
}

double
decodeDepthResp(const Packet &p)
{
    rose_assert(p.type == PacketType::DepthResp, "expected DepthResp");
    PayloadReader r(p.payload);
    return r.f64();
}

Packet
encodeVelocityCmd(const VelocityCmdPayload &v)
{
    StateWriter w;
    w.f64(v.forward);
    w.f64(v.lateral);
    w.f64(v.yawRate);
    return Packet{PacketType::VelocityCmd, w.take()};
}

VelocityCmdPayload
decodeVelocityCmd(const Packet &p)
{
    rose_assert(p.type == PacketType::VelocityCmd, "expected VelocityCmd");
    PayloadReader r(p.payload);
    VelocityCmdPayload v;
    v.forward = r.f64();
    v.lateral = r.f64();
    v.yawRate = r.f64();
    return v;
}

} // namespace rose::bridge
