#include "packet.hh"

#include <cstring>

#include "util/logging.hh"
#include "util/serde.hh"

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

// ------------------------------------------------------------- ByteWriter

void
ByteWriter::u16(uint16_t v)
{
    u8(v & 0xff);
    u8(v >> 8);
}

void
ByteWriter::u32(uint32_t v)
{
    u16(v & 0xffff);
    u16(v >> 16);
}

void
ByteWriter::u64(uint64_t v)
{
    u32(v & 0xffffffffu);
    u32(v >> 32);
}

void
ByteWriter::f64(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
ByteWriter::bytes(const uint8_t *data, size_t n)
{
    out_.insert(out_.end(), data, data + n);
}

// ------------------------------------------------------------- ByteReader

uint8_t
ByteReader::u8()
{
    if (pos_ >= in_.size())
        throw PayloadError("packet payload underrun");
    return in_[pos_++];
}

uint16_t
ByteReader::u16()
{
    uint16_t lo = u8();
    return lo | (uint16_t(u8()) << 8);
}

uint32_t
ByteReader::u32()
{
    uint32_t lo = u16();
    return lo | (uint32_t(u16()) << 16);
}

uint64_t
ByteReader::u64()
{
    uint64_t lo = u32();
    return lo | (uint64_t(u32()) << 32);
}

double
ByteReader::f64()
{
    uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

void
ByteReader::bytes(uint8_t *data, size_t n)
{
    if (pos_ + n > in_.size())
        throw PayloadError("packet payload underrun");
    std::memcpy(data, in_.data() + pos_, n);
    pos_ += n;
}

// ----------------------------------------------------------------- codecs

namespace {

Packet
makeU64Packet(PacketType t, uint64_t v)
{
    Packet p;
    p.type = t;
    ByteWriter w(p.payload);
    w.u64(v);
    return p;
}

uint64_t
takeU64(const Packet &p, PacketType expect)
{
    rose_assert(p.type == expect, "packet type mismatch: got ",
                packetTypeName(p.type));
    ByteReader r(p.payload);
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
    Packet p;
    p.type = PacketType::ImuResp;
    ByteWriter w(p.payload);
    w.f64(s.accel.x);
    w.f64(s.accel.y);
    w.f64(s.accel.z);
    w.f64(s.gyro.x);
    w.f64(s.gyro.y);
    w.f64(s.gyro.z);
    w.f64(s.timestamp);
    return p;
}

env::ImuSample
decodeImuResp(const Packet &p)
{
    rose_assert(p.type == PacketType::ImuResp, "expected ImuResp");
    ByteReader r(p.payload);
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
encodeImageResp(const env::Image &img)
{
    Packet p;
    p.type = PacketType::ImageResp;
    p.payload.reserve(4 + img.pixels.size());
    ByteWriter w(p.payload);
    w.u16(static_cast<uint16_t>(img.width));
    w.u16(static_cast<uint16_t>(img.height));
    p.payload.resize(4 + img.pixels.size());
    uint8_t *dst = p.payload.data() + 4;
    for (float v : img.pixels) {
        double c = clampd(double(v), 0.0, 1.0);
        *dst++ = static_cast<uint8_t>(c * 255.0 + 0.5);
    }
    return p;
}

void
decodeImageRespInto(const Packet &p, env::Image &img)
{
    rose_assert(p.type == PacketType::ImageResp, "expected ImageResp");
    ByteReader r(p.payload);
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
    Packet p;
    p.type = PacketType::DepthResp;
    ByteWriter w(p.payload);
    w.f64(depth_m);
    return p;
}

double
decodeDepthResp(const Packet &p)
{
    rose_assert(p.type == PacketType::DepthResp, "expected DepthResp");
    ByteReader r(p.payload);
    return r.f64();
}

Packet
encodeVelocityCmd(const VelocityCmdPayload &v)
{
    Packet p;
    p.type = PacketType::VelocityCmd;
    ByteWriter w(p.payload);
    w.f64(v.forward);
    w.f64(v.lateral);
    w.f64(v.yawRate);
    return p;
}

VelocityCmdPayload
decodeVelocityCmd(const Packet &p)
{
    rose_assert(p.type == PacketType::VelocityCmd, "expected VelocityCmd");
    ByteReader r(p.payload);
    VelocityCmdPayload v;
    v.forward = r.f64();
    v.lateral = r.f64();
    v.yawRate = r.f64();
    return v;
}

// ----------------------------------------------------------- wire framing

void
serializePacket(const Packet &p, std::vector<uint8_t> &out)
{
    ByteWriter w(out);
    w.u8(static_cast<uint8_t>(p.type));
    w.u32(static_cast<uint32_t>(p.payload.size()));
    if (!p.payload.empty())
        w.bytes(p.payload.data(), p.payload.size());
}

void
savePacket(StateWriter &w, const Packet &p)
{
    w.u8(uint8_t(p.type));
    w.u32(uint32_t(p.payload.size()));
    if (!p.payload.empty())
        w.bytes(p.payload.data(), p.payload.size());
}

Packet
loadPacket(StateReader &r)
{
    Packet p;
    p.type = PacketType(r.u8());
    uint32_t n = r.u32();
    p.payload.resize(n);
    if (n > 0)
        r.bytes(p.payload.data(), n);
    return p;
}

FrameStatus
tryDecodeFrame(const uint8_t *data, size_t size, size_t &consumed,
               Packet &out, std::string *error)
{
    consumed = 0;
    if (size < Packet::kHeaderBytes)
        return FrameStatus::NeedMore;

    // Validate the full header before touching the payload: a corrupt
    // type or length must never drive an allocation or a wait.
    if (!isValidPacketType(data[0])) {
        if (error) {
            *error = detail::concat("unknown packet type byte 0x",
                                    std::hex, unsigned(data[0]));
        }
        return FrameStatus::Malformed;
    }
    uint32_t len = uint32_t(data[1]) | (uint32_t(data[2]) << 8) |
                   (uint32_t(data[3]) << 16) | (uint32_t(data[4]) << 24);
    if (len > kMaxPayloadBytes) {
        if (error) {
            *error = detail::concat(
                "frame length ", len, " exceeds kMaxPayloadBytes (",
                kMaxPayloadBytes, ") for ",
                packetTypeName(static_cast<PacketType>(data[0])));
        }
        return FrameStatus::Malformed;
    }
    if (size < Packet::kHeaderBytes + len)
        return FrameStatus::NeedMore;

    out.type = static_cast<PacketType>(data[0]);
    out.payload.assign(data + Packet::kHeaderBytes,
                       data + Packet::kHeaderBytes + len);
    consumed = Packet::kHeaderBytes + len;
    return FrameStatus::Ok;
}

// ------------------------------------------------------------ FrameBuffer

void
FrameBuffer::append(const uint8_t *data, size_t n)
{
    buf_.insert(buf_.end(), data, data + n);
}

FrameStatus
FrameBuffer::next(Packet &out, std::string *error)
{
    if (poisoned_) {
        if (error)
            *error = poisonError_;
        return FrameStatus::Malformed;
    }
    size_t consumed = 0;
    std::string err;
    FrameStatus s =
        tryDecodeFrame(buf_.data() + pos_, buf_.size() - pos_, consumed,
                       out, &err);
    switch (s) {
      case FrameStatus::Ok:
        pos_ += consumed;
        // Amortized compaction: drop the consumed prefix only once it
        // dominates the buffer, keeping the drain linear overall.
        if (pos_ >= 4096 && pos_ * 2 >= buf_.size()) {
            buf_.erase(buf_.begin(), buf_.begin() + pos_);
            pos_ = 0;
        }
        break;
      case FrameStatus::NeedMore:
        break;
      case FrameStatus::Malformed:
        poisoned_ = true;
        poisonError_ = err;
        if (error)
            *error = err;
        break;
    }
    return s;
}

void
FrameBuffer::clear()
{
    buf_.clear();
    pos_ = 0;
    poisoned_ = false;
    poisonError_.clear();
}

bool
deserializePacket(std::vector<uint8_t> &buf, Packet &out)
{
    size_t consumed = 0;
    std::string err;
    switch (tryDecodeFrame(buf.data(), buf.size(), consumed, out, &err)) {
      case FrameStatus::Ok:
        buf.erase(buf.begin(), buf.begin() + consumed);
        return true;
      case FrameStatus::NeedMore:
        return false;
      case FrameStatus::Malformed:
        rose_warn("dropping unframeable byte stream: ", err);
        buf.clear();
        return false;
    }
    return false;
}

} // namespace rose::bridge
