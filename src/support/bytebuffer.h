/**
 * @file
 * Bounds-checked binary readers and writers used by the class-file
 * serializer/parser and the instruction codec.
 *
 * All multi-byte quantities are big-endian, matching the JVM class-file
 * convention the substrate mirrors.
 */

#ifndef NSE_SUPPORT_BYTEBUFFER_H
#define NSE_SUPPORT_BYTEBUFFER_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nse
{

/** Append-only big-endian binary writer backed by a byte vector. */
class ByteWriter
{
  public:
    ByteWriter() = default;

    void putU8(uint8_t v) { bytes_.push_back(v); }

    void
    putU16(uint16_t v)
    {
        putU8(static_cast<uint8_t>(v >> 8));
        putU8(static_cast<uint8_t>(v));
    }

    void
    putU32(uint32_t v)
    {
        putU16(static_cast<uint16_t>(v >> 16));
        putU16(static_cast<uint16_t>(v));
    }

    void
    putU64(uint64_t v)
    {
        putU32(static_cast<uint32_t>(v >> 32));
        putU32(static_cast<uint32_t>(v));
    }

    void putI8(int8_t v) { putU8(static_cast<uint8_t>(v)); }
    void putI16(int16_t v) { putU16(static_cast<uint16_t>(v)); }
    void putI32(int32_t v) { putU32(static_cast<uint32_t>(v)); }
    void putI64(int64_t v) { putU64(static_cast<uint64_t>(v)); }

    /** Append raw bytes verbatim. */
    void putBytes(const uint8_t *data, size_t n);
    void putBytes(const std::vector<uint8_t> &data);

    /** Append a length-prefixed (u16) UTF-8 string. */
    void putString(std::string_view s);

    /** Overwrite a previously written u16 at an absolute offset. */
    void patchU16(size_t offset, uint16_t v);

    size_t size() const { return bytes_.size(); }
    const std::vector<uint8_t> &bytes() const { return bytes_; }
    std::vector<uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<uint8_t> bytes_;
};

/** Bounds-checked big-endian binary reader over a borrowed byte span. */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {}

    explicit ByteReader(const std::vector<uint8_t> &data)
        : ByteReader(data.data(), data.size())
    {}

    uint8_t getU8();
    uint16_t getU16();
    uint32_t getU32();
    uint64_t getU64();

    int8_t getI8() { return static_cast<int8_t>(getU8()); }
    int16_t getI16() { return static_cast<int16_t>(getU16()); }
    int32_t getI32() { return static_cast<int32_t>(getU32()); }
    int64_t getI64() { return static_cast<int64_t>(getU64()); }

    /** Read a u16 length-prefixed UTF-8 string. */
    std::string getString();

    /** Read exactly n raw bytes. */
    std::vector<uint8_t> getBytes(size_t n);

    /** Skip n bytes; fatal() when fewer remain. */
    void skip(size_t n);

    size_t pos() const { return pos_; }
    size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

  private:
    void require(size_t n) const;

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
};

} // namespace nse

#endif // NSE_SUPPORT_BYTEBUFFER_H
