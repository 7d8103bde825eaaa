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
#include "util/frame.hh"
#include "util/geometry.hh"
#include "util/serde.hh"

namespace rose::bridge {

/**
 * Thrown when a structurally valid frame carries a semantically
 * malformed payload (truncated fields, inconsistent image dimensions).
 * Such packets can reach the decoders through injected payload
 * corruption even when the wire framing survives; throwing — instead
 * of aborting — lets the mission supervisor treat a poisoned payload
 * like any other recoverable transport fault. Every payload decoder
 * reads through BasicStateReader<PayloadError>, so a short payload
 * throws this too.
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
    static constexpr size_t kHeaderBytes = kFrameHeaderBytes;

    size_t wireSize() const { return kHeaderBytes + payload.size(); }

    // Frame-codec traits (util/frame.hh).
    using Type = PacketType;
    static constexpr size_t kPayloadBound = kMaxPayloadBytes;
    static constexpr const char *kKind = "packet";
    static constexpr const char *kBoundName = "kMaxPayloadBytes";
    static bool validType(uint8_t raw) { return isValidPacketType(raw); }
    static std::string typeName(PacketType t) { return packetTypeName(t); }
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
/**
 * An ImageResp for a @p width x @p height frame: the u16 dimensions,
 * then one 8-bit pixel per byte, row-major, left zero for the camera
 * to render into at imageRespPixels().
 */
Packet encodeImageResp(int width, int height);
/** The row-major pixel bytes of an ImageResp made by encodeImageResp. */
uint8_t *imageRespPixels(Packet &p);
/** The ImageResp of @p cam's view from a pose, rendered in place. */
Packet renderImageResp(env::Camera &cam, const env::World &world,
                       const Vec3 &position, const Quat &attitude);
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

/** Receive-side frame accumulator over the bridge packet framing. */
using FrameBuffer = BasicFrameBuffer<Packet>;

/** Serialize a packet (header + payload) onto a byte stream. */
inline void
serializePacket(const Packet &p, std::vector<uint8_t> &out)
{
    serializeFrame(p, out);
}

/**
 * Checkpoint-state (de)serialization of a whole packet, in its wire
 * frame form. loadPacket validates the type byte and bounds the
 * length by kMaxPayloadBytes and the bytes present before it sizes
 * the payload, throwing SerdeError.
 */
inline void
savePacket(StateWriter &w, const Packet &p)
{
    writeFrame(w, p);
}

inline Packet
loadPacket(StateReader &r)
{
    return readFrame<Packet>(r);
}

} // namespace rose::bridge

#endif // ROSE_BRIDGE_PACKET_HH
