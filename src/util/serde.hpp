// Binary serialization: little-endian, length-prefixed, bounds-checked.
//
// Used for (1) the wire protocol between Communix clients and server,
// (2) the persistent deadlock history and local signature repository, and
// (3) hashing the bytecode class model (the "class bytecode" of §III-C is
// the serialized form of a class). A corrupt or truncated buffer turns
// reads into failure (`ok()` goes false) rather than UB.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace communix {

/// Append-only little-endian encoder.
class BinaryWriter {
 public:
  void WriteU8(std::uint8_t v) { buf_.push_back(v); }
  void WriteU16(std::uint16_t v);
  void WriteU32(std::uint32_t v);
  void WriteU64(std::uint64_t v);
  void WriteI64(std::int64_t v) { WriteU64(static_cast<std::uint64_t>(v)); }
  void WriteDouble(double v);
  /// u32 length prefix + raw bytes.
  void WriteString(std::string_view s);
  void WriteBytes(std::span<const std::uint8_t> bytes);
  /// Raw bytes, no length prefix (caller knows the size).
  void WriteRaw(std::span<const std::uint8_t> bytes);

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer.
/// All reads after a failure return zero values; check ok() at the end.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t ReadU8();
  std::uint16_t ReadU16();
  std::uint32_t ReadU32();
  std::uint64_t ReadU64();
  std::int64_t ReadI64() { return static_cast<std::int64_t>(ReadU64()); }
  double ReadDouble();
  std::string ReadString();
  std::vector<std::uint8_t> ReadBytes();
  /// Reads exactly `n` raw bytes.
  std::vector<std::uint8_t> ReadRaw(std::size_t n);
  /// Fills `out` with the next out.size() raw bytes; false (and `out`
  /// untouched) if fewer remain.
  bool ReadInto(std::span<std::uint8_t> out);

  bool ok() const { return ok_; }
  /// True when every byte has been consumed and no read failed.
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

 private:
  bool Require(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace communix
