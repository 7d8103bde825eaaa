/**
 * @file
 * The RoSÉ packet protocol (Section 3.4.1).
 *
 * "Packets consist of a header, containing the packet type and number of
 * bytes, as well as a payload containing the serialized contents of the
 * message." Two families exist:
 *
 *  - Synchronization packets: communicate simulation state (cycle grants,
 *    completion, step-size configuration) with the RoSÉ bridge but are
 *    never visible to the modeled SoC.
 *  - Data packets: sensor requests/responses and actuation commands; the
 *    only packets visible to the simulated SoC, surfaced through the
 *    bridge's memory-mapped queues.
 *
 * All multi-byte fields are serialized little-endian.
 */

#ifndef ROSE_BRIDGE_PACKET_HH
#define ROSE_BRIDGE_PACKET_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "env/sensors.hh"
#include "util/geometry.hh"

namespace rose {
class StateWriter;
class StateReader;
} // namespace rose

namespace rose::bridge {

/**
 * Thrown when a structurally valid frame carries a semantically
 * malformed payload (truncated fields, inconsistent image dimensions).
 * Such packets can reach the decoders through injected payload
 * corruption even when the wire framing survives; throwing — instead
 * of aborting — lets the mission supervisor treat a poisoned payload
 * like any other recoverable transport fault.
 */
class PayloadError : public std::runtime_error
{
  public:
    explicit PayloadError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Wire identifiers for every packet kind. */
enum class PacketType : uint8_t
{
    // --- Synchronization packets (bridge-level only) ---
    SyncGrant = 0x01,   ///< host -> bridge: advance N target cycles
    SyncDone = 0x02,    ///< bridge -> host: granted cycles consumed
    CfgStepSize = 0x03, ///< host -> bridge: cycles per sync period

    // --- Data packets (visible to the SoC) ---
    ImuReq = 0x10,
    ImuResp = 0x11,
    ImageReq = 0x12,
    ImageResp = 0x13,
    DepthReq = 0x14,
    DepthResp = 0x15,
    VelocityCmd = 0x16,
};

/** True for the packet kinds the modeled SoC may observe. */
bool isDataPacket(PacketType t);

/** True when the raw wire byte names a known PacketType. */
bool isValidPacketType(uint8_t raw);

/** Human-readable packet-type name for logs. */
std::string packetTypeName(PacketType t);

/**
 * Upper bound on a frame's payload length. The largest legitimate
 * payload is a quantized camera frame (w*h bytes + 4 bytes of
 * dimensions); 256 KiB covers any camera the environment can configure
 * with a wide margin. Frames claiming more are malformed — the bound is
 * what keeps a corrupt length field from triggering an unbounded
 * allocation or an endless NeedMore wait.
 */
constexpr size_t kMaxPayloadBytes = 256 * 1024;

/** Serialized packet: fixed header plus raw payload bytes. */
struct Packet
{
    PacketType type = PacketType::SyncGrant;
    std::vector<uint8_t> payload;

    /** Header bytes on the wire: 1 type byte + 4 length bytes. */
    static constexpr size_t kHeaderBytes = 5;

    size_t wireSize() const { return kHeaderBytes + payload.size(); }
};

// --------------------------------------------------------------------
// Byte-level serialization helpers.

/** Little-endian byte appender. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<uint8_t> &out) : out_(out) {}

    void u8(uint8_t v) { out_.push_back(v); }
    void u16(uint16_t v);
    void u32(uint32_t v);
    void u64(uint64_t v);
    void f64(double v);
    void bytes(const uint8_t *data, size_t n);

  private:
    std::vector<uint8_t> &out_;
};

/** Little-endian byte consumer; throws PayloadError on underrun. */
class ByteReader
{
  public:
    explicit ByteReader(const std::vector<uint8_t> &in) : in_(in) {}

    uint8_t u8();
    uint16_t u16();
    uint32_t u32();
    uint64_t u64();
    double f64();
    void bytes(uint8_t *data, size_t n);

    size_t remaining() const { return in_.size() - pos_; }

  private:
    const std::vector<uint8_t> &in_;
    size_t pos_ = 0;
};

// --------------------------------------------------------------------
// Typed payload codecs.

/** Payload of a VelocityCmd data packet (companion -> flight ctrl). */
struct VelocityCmdPayload
{
    double forward = 0.0;
    double lateral = 0.0;
    double yawRate = 0.0;
};

/** Encode/decode helpers; encode produces a full Packet. */
Packet encodeSyncGrant(uint64_t cycles);
uint64_t decodeSyncGrant(const Packet &p);

Packet encodeSyncDone(uint64_t cycles_run);
uint64_t decodeSyncDone(const Packet &p);

Packet encodeCfgStepSize(uint64_t cycles_per_sync);
uint64_t decodeCfgStepSize(const Packet &p);

Packet encodeImuReq();
Packet encodeImuResp(const env::ImuSample &s);
env::ImuSample decodeImuResp(const Packet &p);

Packet encodeImageReq();
/** Image payload is quantized to 8 bits per pixel for transport. */
Packet encodeImageResp(const env::Image &img);
/**
 * Decode into a caller-reused image (no steady-state allocation).
 * Throws PayloadError, leaving @p img untouched, when the header is
 * truncated or the dimensions disagree with the pixel bytes.
 */
void decodeImageRespInto(const Packet &p, env::Image &img);

Packet encodeDepthReq();
Packet encodeDepthResp(double depth_m);
double decodeDepthResp(const Packet &p);

Packet encodeVelocityCmd(const VelocityCmdPayload &v);
VelocityCmdPayload decodeVelocityCmd(const Packet &p);

/** Serialize a packet (header + payload) onto a byte stream. */
void serializePacket(const Packet &p, std::vector<uint8_t> &out);

/**
 * Checkpoint-state (de)serialization of a whole packet. Unlike the
 * wire form this is trusted input — it only ever round-trips through
 * StateWriter — but loadPacket still bounds-checks via StateReader.
 */
void savePacket(StateWriter &w, const Packet &p);
Packet loadPacket(StateReader &r);

/** Outcome of attempting to decode one frame from a byte stream. */
enum class FrameStatus : uint8_t
{
    Ok,        ///< a complete, valid frame was decoded
    NeedMore,  ///< the buffer holds only a prefix of a valid frame
    Malformed, ///< the header is invalid; the stream cannot be trusted
};

/**
 * Validated frame decoder: parse one packet from the front of a byte
 * range. The header is checked before any payload allocation: an
 * unknown type byte or a length above kMaxPayloadBytes yields
 * Malformed (with a diagnostic in @p error), never an allocation or a
 * wait for bytes that can never legitimately arrive.
 *
 * @param consumed set to the bytes consumed (only nonzero on Ok).
 */
FrameStatus tryDecodeFrame(const uint8_t *data, size_t size,
                           size_t &consumed, Packet &out,
                           std::string *error = nullptr);

/**
 * Receive-side frame accumulator: append raw stream bytes, drain
 * complete packets. Consumption uses a read cursor with amortized
 * compaction, so draining N packets costs O(bytes), not the O(n²) a
 * per-packet vector erase would.
 */
class FrameBuffer
{
  public:
    void append(const uint8_t *data, size_t n);

    /** Decode the next frame; on Malformed the buffer is poisoned and
     *  every later call returns Malformed (a byte stream cannot be
     *  resynchronized once framing is lost). */
    FrameStatus next(Packet &out, std::string *error = nullptr);

    /** Bytes buffered but not yet decoded. */
    size_t pendingBytes() const { return buf_.size() - pos_; }

    void clear();

  private:
    std::vector<uint8_t> buf_;
    size_t pos_ = 0;
    bool poisoned_ = false;
    std::string poisonError_;
};

/**
 * Try to deserialize one packet from the front of a byte buffer.
 *
 * Compatibility wrapper over tryDecodeFrame: consumed bytes are erased
 * on success; a malformed header drops the whole buffer with a warning
 * (an untyped byte stream cannot be resynchronized) and returns false.
 *
 * @return true when a complete, valid packet was available.
 */
bool deserializePacket(std::vector<uint8_t> &buf, Packet &out);

} // namespace rose::bridge

#endif // ROSE_BRIDGE_PACKET_HH
