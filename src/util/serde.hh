/**
 * @file
 * The repo's one little-endian byte codec.
 *
 * StateWriter/BasicStateReader implement a fixed-width little-endian
 * form with no alignment, no implicit framing, and no allocation
 * beyond the backing vector. Checkpoints, the rosed journal, bridge
 * packet payloads, serve message payloads and the type + length frame
 * header (util/frame.hh) are all written and read through them. Every
 * stateful simulation component exposes saveState(StateWriter&) /
 * restoreState(StateReader&); core/cosim.cc adds the tagged section
 * framing and core/checkpoint.cc the integrity hash of the on-disk
 * format.
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
#include <string_view>
#include <utility>
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
    StateWriter() = default;

    /** Append to @p buf's existing bytes; take() hands it back. */
    explicit StateWriter(std::vector<uint8_t> buf) : buf_(std::move(buf))
    {}

    void reserve(size_t n) { buf_.reserve(buf_.size() + n); }

    void u8(uint8_t v) { buf_.push_back(v); }
    void u16(uint16_t v) { le<2>(v); }
    void u32(uint32_t v) { le<4>(v); }
    void u64(uint64_t v) { le<8>(v); }

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

    void str(std::string_view s)
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
    // Resize, then store: GCC 12 misreads an inlined range insert
    // into an empty vector as a write into a zero-byte region
    // (-Wstringop-overflow).
    template <int N>
    void le(uint64_t v)
    {
        const size_t at = buf_.size();
        buf_.resize(at + N);
        for (int i = 0; i < N; ++i)
            buf_[at + i] = uint8_t(v >> (8 * i));
    }

    std::vector<uint8_t> buf_;
};

/**
 * Bounds-checked little-endian byte source. Every read that would run
 * past the end throws @p E, and every untrusted length is checked
 * against the bytes present before anything is allocated for it. The
 * error type is the decoder family's: SerdeError for checkpoints and
 * the journal (StateReader), bridge::PayloadError for packet
 * payloads, serve::ProtocolError for serve messages.
 */
template <class E>
class BasicStateReader
{
  public:
    using Error = E;

    BasicStateReader(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {}

    explicit BasicStateReader(const std::vector<uint8_t> &buf)
        : data_(buf.data()), size_(buf.size())
    {}

    uint8_t u8()
    {
        need(1);
        return data_[pos_++];
    }

    uint16_t u16() { return uint16_t(le<2>()); }
    uint32_t u32() { return uint32_t(le<4>()); }
    uint64_t u64() { return le<8>(); }

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

    /** A u32-length-prefixed string of at most @p bound bytes. */
    std::string str(size_t bound = SIZE_MAX)
    {
        uint32_t n = u32();
        if (n > bound)
            throw E("string field length " + std::to_string(n) +
                    " exceeds bound " + std::to_string(bound));
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

    /** Replace @p out with the next @p n bytes (checked first). */
    void bytes(std::vector<uint8_t> &out, size_t n)
    {
        need(n);
        out.assign(data_ + pos_, data_ + pos_ + n);
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
            throw E("byte stream underrun (need " + std::to_string(n) +
                    " bytes, have " + std::to_string(size_ - pos_) +
                    ")");
    }

    template <int N>
    uint64_t le()
    {
        need(N);
        uint64_t v = 0;
        for (int i = 0; i < N; ++i)
            v |= uint64_t(data_[pos_ + i]) << (8 * i);
        pos_ += N;
        return v;
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
};

/**
 * The checkpoint and journal reader; throws SerdeError. A class, not
 * an alias, so component headers can forward-declare it.
 */
class StateReader : public BasicStateReader<SerdeError>
{
  public:
    using BasicStateReader::BasicStateReader;
};

} // namespace rose

#endif // ROSE_UTIL_SERDE_HH
