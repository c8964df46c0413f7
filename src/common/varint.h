#ifndef BIGDAWG_COMMON_VARINT_H_
#define BIGDAWG_COMMON_VARINT_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace bigdawg::common {

/// LEB128-style varints: 7 payload bits per byte, high bit = continue.
/// Small counts and offsets — the overwhelming majority in columnar
/// headers — encode in one byte instead of a fixed eight.

inline void PutVarint64(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Zigzag mapping so small-magnitude negatives stay short:
/// 0,-1,1,-2,... -> 0,1,2,3,...
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

inline void PutVarintSigned(std::string* out, int64_t v) {
  PutVarint64(out, ZigZagEncode(v));
}

/// \brief Bounds-checked varint reader over a byte buffer.
class VarintReader {
 public:
  VarintReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit VarintReader(const std::string& data)
      : VarintReader(data.data(), data.size()) {}

  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  Result<uint64_t> GetVarint64() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= size_) return Status::InvalidArgument("truncated varint");
      if (shift >= 64) return Status::InvalidArgument("varint too long");
      const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
  }

  /// InvalidArgument unless `count` items of at least `min_bytes` each
  /// fit in the unread bytes — the guard a decoder runs on a decoded
  /// count before sizing anything from it.
  Status CheckCount(uint64_t count, size_t min_bytes) const {
    if (min_bytes > 0 && count > remaining() / min_bytes) {
      return Status::InvalidArgument(
          "count " + std::to_string(count) + " x " +
          std::to_string(min_bytes) + " bytes exceeds the " +
          std::to_string(remaining()) + " bytes left");
    }
    return Status::OK();
  }

  Result<int64_t> GetVarintSigned() {
    Result<uint64_t> raw = GetVarint64();
    if (!raw.ok()) return raw.status();
    return ZigZagDecode(*raw);
  }

  Result<uint8_t> GetByte() {
    if (pos_ >= size_) return Status::InvalidArgument("truncated byte");
    return static_cast<uint8_t>(data_[pos_++]);
  }

  Result<const char*> GetBytes(size_t n) {
    if (n > size_ - pos_) return Status::InvalidArgument("truncated bytes");
    const char* p = data_ + pos_;
    pos_ += n;
    return p;
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace bigdawg::common

#endif  // BIGDAWG_COMMON_VARINT_H_
