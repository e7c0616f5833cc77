#include "util/serde.hpp"

#include <cstring>

namespace communix {

void BinaryWriter::WriteU16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void BinaryWriter::WriteU32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
  }
}

void BinaryWriter::WriteU64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
  }
}

void BinaryWriter::WriteDouble(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void BinaryWriter::WriteString(std::string_view s) {
  WriteU32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void BinaryWriter::WriteBytes(std::span<const std::uint8_t> bytes) {
  WriteU32(static_cast<std::uint32_t>(bytes.size()));
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void BinaryWriter::WriteRaw(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

bool BinaryReader::Require(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t BinaryReader::ReadU8() {
  if (!Require(1)) return 0;
  return data_[pos_++];
}

std::uint16_t BinaryReader::ReadU16() {
  if (!Require(2)) return 0;
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t BinaryReader::ReadU32() {
  if (!Require(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (i * 8);
  }
  pos_ += 4;
  return v;
}

std::uint64_t BinaryReader::ReadU64() {
  if (!Require(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (i * 8);
  }
  pos_ += 8;
  return v;
}

double BinaryReader::ReadDouble() {
  const std::uint64_t bits = ReadU64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string BinaryReader::ReadString() {
  const std::uint32_t n = ReadU32();
  if (!Require(n)) return {};
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<std::uint8_t> BinaryReader::ReadBytes() {
  const std::uint32_t n = ReadU32();
  return ReadRaw(n);
}

std::vector<std::uint8_t> BinaryReader::ReadRaw(std::size_t n) {
  if (!Require(n)) return {};
  std::vector<std::uint8_t> out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

bool BinaryReader::ReadInto(std::span<std::uint8_t> out) {
  if (!Require(out.size())) return false;
  if (!out.empty()) std::memcpy(out.data(), data_.data() + pos_, out.size());
  pos_ += out.size();
  return true;
}

}  // namespace communix
