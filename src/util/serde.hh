/**
 * @file
 * Minimal byte-stream serialization for co-simulation checkpoints.
 *
 * StateWriter/StateReader implement a fixed-width little-endian wire
 * form with no alignment, no implicit framing, and no allocation
 * beyond the backing vector. Every stateful simulation component
 * exposes saveState(StateWriter&) / restoreState(StateReader&) built
 * on these primitives; core/cosim.cc adds the tagged section framing
 * and core/checkpoint.cc the integrity hash of the on-disk format.
 *
 * Doubles are serialized as their IEEE-754 bit pattern (bit_cast via
 * memcpy), so a round trip is bit-exact — which is what makes
 * resume-from-checkpoint missions hash-identical to uninterrupted
 * ones (see tests/test_checkpoint.cc golden resume).
 *
 * Every primitive appends whole bytes with one insert. On a
 * little-endian host the in-memory image of a trivially copyable
 * struct of u64/f64 fields with no padding is exactly the sequence
 * its per-field u64/f64 writes would produce, so such arrays (the
 * trajectory) go through bytes() as one block; the caller
 * static_asserts those conditions.
 */

#ifndef ROSE_UTIL_SERDE_HH
#define ROSE_UTIL_SERDE_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace rose {

/** Thrown on malformed or truncated checkpoint bytes. */
class SerdeError : public std::runtime_error
{
  public:
    explicit SerdeError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Append-only little-endian byte sink. */
class StateWriter
{
  public:
    void u8(uint8_t v) { buf_.push_back(v); }

    void u32(uint32_t v)
    {
        uint8_t b[4];
        for (int i = 0; i < 4; ++i)
            b[i] = uint8_t(v >> (8 * i));
        buf_.insert(buf_.end(), b, b + 4);
    }

    void u64(uint64_t v)
    {
        uint8_t b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = uint8_t(v >> (8 * i));
        buf_.insert(buf_.end(), b, b + 8);
    }

    /** Overwrite the u32 at byte offset @p at: a length written as a
     *  placeholder before its payload was appended. */
    void patchU32(size_t at, uint32_t v)
    {
        if (at > buf_.size() || buf_.size() - at < 4)
            throw SerdeError("checkpoint length patch out of range");
        for (int i = 0; i < 4; ++i)
            buf_[at + i] = uint8_t(v >> (8 * i));
    }

    void f64(double v)
    {
        uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void f32(float v)
    {
        uint32_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v), "float must be 32-bit");
        std::memcpy(&bits, &v, sizeof(bits));
        u32(bits);
    }

    void boolean(bool v) { u8(v ? 1 : 0); }

    void str(const std::string &s)
    {
        u32(uint32_t(s.size()));
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    void bytes(const uint8_t *data, size_t n)
    {
        buf_.insert(buf_.end(), data, data + n);
    }

    const std::vector<uint8_t> &data() const { return buf_; }
    std::vector<uint8_t> take() { return std::move(buf_); }
    size_t size() const { return buf_.size(); }

  private:
    std::vector<uint8_t> buf_;
};

/** Bounds-checked little-endian byte source; throws SerdeError. */
class StateReader
{
  public:
    StateReader(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {}

    explicit StateReader(const std::vector<uint8_t> &buf)
        : data_(buf.data()), size_(buf.size())
    {}

    uint8_t u8()
    {
        need(1);
        return data_[pos_++];
    }

    uint32_t u32()
    {
        need(4);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= uint32_t(data_[pos_ + i]) << (8 * i);
        pos_ += 4;
        return v;
    }

    uint64_t u64()
    {
        need(8);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= uint64_t(data_[pos_ + i]) << (8 * i);
        pos_ += 8;
        return v;
    }

    double f64()
    {
        uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    float f32()
    {
        uint32_t bits = u32();
        float v = 0.0f;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    bool boolean() { return u8() != 0; }

    std::string str()
    {
        uint32_t n = u32();
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    void bytes(uint8_t *out, size_t n)
    {
        need(n);
        if (n > 0) // an empty vector's data() may be null
            std::memcpy(out, data_ + pos_, n);
        pos_ += n;
    }

    /** Skip n bytes (used to step over unknown/disabled sections). */
    void skip(size_t n)
    {
        need(n);
        pos_ += n;
    }

    size_t remaining() const { return size_ - pos_; }
    size_t pos() const { return pos_; }

  private:
    void need(size_t n) const
    {
        if (size_ - pos_ < n)
            throw SerdeError("checkpoint state underrun (need " +
                             std::to_string(n) + " bytes, have " +
                             std::to_string(size_ - pos_) + ")");
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
};

} // namespace rose

#endif // ROSE_UTIL_SERDE_HH
