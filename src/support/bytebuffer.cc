#include "support/bytebuffer.h"

#include "support/error.h"

namespace nse
{

void
ByteWriter::putBytes(const uint8_t *data, size_t n)
{
    bytes_.insert(bytes_.end(), data, data + n);
}

void
ByteWriter::putBytes(const std::vector<uint8_t> &data)
{
    putBytes(data.data(), data.size());
}

void
ByteWriter::putString(std::string_view s)
{
    NSE_CHECK(s.size() <= UINT16_MAX, "string too long: ", s.size());
    putU16(static_cast<uint16_t>(s.size()));
    putBytes(reinterpret_cast<const uint8_t *>(s.data()), s.size());
}

void
ByteWriter::patchU16(size_t offset, uint16_t v)
{
    NSE_ASSERT(offset + 2 <= bytes_.size(), "patch out of range");
    bytes_[offset] = static_cast<uint8_t>(v >> 8);
    bytes_[offset + 1] = static_cast<uint8_t>(v);
}

void
ByteReader::require(size_t n) const
{
    if (remaining() < n) {
        fatal("truncated input: need ", n, " bytes at offset ", pos_,
              " but only ", remaining(), " remain");
    }
}

uint8_t
ByteReader::getU8()
{
    require(1);
    return data_[pos_++];
}

uint16_t
ByteReader::getU16()
{
    require(2);
    uint16_t v = (static_cast<uint16_t>(data_[pos_]) << 8) |
                 static_cast<uint16_t>(data_[pos_ + 1]);
    pos_ += 2;
    return v;
}

uint32_t
ByteReader::getU32()
{
    uint32_t hi = getU16();
    uint32_t lo = getU16();
    return (hi << 16) | lo;
}

uint64_t
ByteReader::getU64()
{
    uint64_t hi = getU32();
    uint64_t lo = getU32();
    return (hi << 32) | lo;
}

std::string
ByteReader::getString()
{
    uint16_t len = getU16();
    require(len);
    std::string s(reinterpret_cast<const char *>(data_ + pos_), len);
    pos_ += len;
    return s;
}

std::vector<uint8_t>
ByteReader::getBytes(size_t n)
{
    require(n);
    std::vector<uint8_t> out(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return out;
}

void
ByteReader::skip(size_t n)
{
    require(n);
    pos_ += n;
}

} // namespace nse
