/**
 * @file
 * The type + length frame codec shared by the bridge and rosed.
 *
 * RoSÉ's packet protocol (paper §3.4.1) is a header holding the type
 * and byte count, followed by the serialized payload. The bridge's
 * packets and rosed's messages both use it: a 1-byte type and a u32
 * little-endian payload length, then the payload. This header is the
 * only implementation of that form — on a stream (tryDecodeFrame,
 * BasicFrameBuffer, serializeFrame) and inside checkpoint state
 * (writeFrame, readFrame).
 *
 * A frame type F (bridge::Packet, serve::Message) has members `type`
 * and `payload` and supplies:
 *   - `F::Type`, its wire enum;
 *   - `F::validType(uint8_t)`, true for a known type byte;
 *   - `F::kPayloadBound`, the hard bound on a payload;
 *   - `F::kKind` and `F::kBoundName`, the frame kind and the bound's
 *     name for diagnostics, and `F::typeName(F::Type)`.
 *
 * Every decoder validates the whole header before it allocates: an
 * unknown type byte or a length above the bound is malformed, never
 * an allocation or a wait for bytes that can never arrive.
 */

#ifndef ROSE_UTIL_FRAME_HH
#define ROSE_UTIL_FRAME_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/serde.hh"

namespace rose {

/** Header bytes of every frame: 1 type byte + 4 length bytes. */
constexpr size_t kFrameHeaderBytes = 5;

/** Outcome of attempting to decode one frame from a byte stream. */
enum class FrameStatus : uint8_t
{
    Ok,        ///< a complete, valid frame was decoded
    NeedMore,  ///< the buffer holds only a prefix of a valid frame
    Malformed, ///< the header is invalid; the stream cannot be trusted
};

/**
 * Check a frame header. On failure, writes the diagnostic to
 * @p error (when given) and returns false.
 */
template <class F>
bool
checkFrameHeader(uint8_t raw_type, uint32_t len, std::string *error)
{
    if (!F::validType(raw_type)) {
        if (error)
            *error = detail::concat("unknown ", F::kKind,
                                    " type byte 0x", std::hex,
                                    unsigned(raw_type));
        return false;
    }
    if (len > F::kPayloadBound) {
        if (error)
            *error = detail::concat(
                "frame length ", len, " exceeds ", F::kBoundName, " (",
                F::kPayloadBound, ") for ",
                F::typeName(typename F::Type(raw_type)));
        return false;
    }
    return true;
}

/** Append one frame (header + payload). */
template <class F>
void
writeFrame(StateWriter &w, const F &f)
{
    w.u8(uint8_t(f.type));
    w.u32(uint32_t(f.payload.size()));
    w.bytes(f.payload.data(), f.payload.size());
}

/**
 * Read one frame written by writeFrame. The header is checked and the
 * length bounded by the bytes present before the payload is sized;
 * any violation throws the reader's error type.
 */
template <class F, class Reader>
F
readFrame(Reader &r)
{
    uint8_t raw_type = r.u8();
    uint32_t len = r.u32();
    std::string err;
    if (!checkFrameHeader<F>(raw_type, len, &err))
        throw typename Reader::Error(err);
    F f;
    f.type = typename F::Type(raw_type);
    r.bytes(f.payload, len);
    return f;
}

/** Append one frame to a byte stream. */
template <class F>
void
serializeFrame(const F &f, std::vector<uint8_t> &out)
{
    StateWriter w(std::move(out));
    writeFrame(w, f);
    out = w.take();
}

/**
 * Validated frame decoder: parse one frame from the front of a byte
 * range. An invalid header yields Malformed (with a diagnostic in
 * @p error); a valid prefix yields NeedMore.
 *
 * @param consumed set to the bytes consumed (only nonzero on Ok).
 */
template <class F>
FrameStatus
tryDecodeFrame(const uint8_t *data, size_t size, size_t &consumed,
               F &out, std::string *error = nullptr)
{
    consumed = 0;
    if (size < kFrameHeaderBytes)
        return FrameStatus::NeedMore;
    StateReader header(data, kFrameHeaderBytes);
    uint8_t raw_type = header.u8();
    uint32_t len = header.u32();
    if (!checkFrameHeader<F>(raw_type, len, error))
        return FrameStatus::Malformed;
    if (size - kFrameHeaderBytes < len)
        return FrameStatus::NeedMore;

    out.type = typename F::Type(raw_type);
    out.payload.assign(data + kFrameHeaderBytes,
                       data + kFrameHeaderBytes + len);
    consumed = kFrameHeaderBytes + len;
    return FrameStatus::Ok;
}

/**
 * Receive-side frame accumulator: append raw stream bytes, drain
 * complete frames. Consumption uses a read cursor with amortized
 * compaction, so draining N frames costs O(bytes), not the O(n²) a
 * per-frame vector erase would. Once Malformed, the buffer is
 * poisoned and every later call returns Malformed: a length-prefixed
 * stream cannot be resynchronized after framing is lost.
 */
template <class F>
class BasicFrameBuffer
{
  public:
    void
    append(const uint8_t *data, size_t n)
    {
        buf_.insert(buf_.end(), data, data + n);
    }

    FrameStatus
    next(F &out, std::string *error = nullptr)
    {
        if (poisoned_) {
            if (error)
                *error = poisonError_;
            return FrameStatus::Malformed;
        }
        size_t consumed = 0;
        FrameStatus s = tryDecodeFrame(buf_.data() + pos_,
                                       buf_.size() - pos_, consumed,
                                       out, &poisonError_);
        if (s == FrameStatus::Malformed) {
            poisoned_ = true;
            if (error)
                *error = poisonError_;
        } else if (s == FrameStatus::Ok) {
            pos_ += consumed;
            // Drop the consumed prefix once the buffer is drained or
            // the prefix dominates it, keeping the drain linear.
            if (pos_ == buf_.size()) {
                buf_.clear();
                pos_ = 0;
            } else if (pos_ >= 4096 && pos_ * 2 >= buf_.size()) {
                buf_.erase(buf_.begin(),
                           buf_.begin() + std::ptrdiff_t(pos_));
                pos_ = 0;
            }
        }
        return s;
    }

    /** Bytes buffered but not yet decoded. */
    size_t pendingBytes() const { return buf_.size() - pos_; }

    void
    clear()
    {
        buf_.clear();
        pos_ = 0;
        poisoned_ = false;
        poisonError_.clear();
    }

  private:
    std::vector<uint8_t> buf_;
    size_t pos_ = 0;
    bool poisoned_ = false;
    std::string poisonError_;
};

} // namespace rose

#endif // ROSE_UTIL_FRAME_HH
