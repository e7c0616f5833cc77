#include "checks.hpp"

#include <cstring>

#include "net/message.hpp"

namespace perfbench {

std::uint64_t Digest(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0x243F6A8885A308D3ULL ^ bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = (h ^ w) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
  }
  std::uint64_t tail = 0;
  for (std::size_t s = 0; i < bytes.size(); ++i, s += 8) {
    tail |= static_cast<std::uint64_t>(bytes[i]) << s;
  }
  h = (h ^ tail) * 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 32);
}

namespace {

std::uint32_t LoadU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::optional<GetReply> ParseGetReply(std::span<const std::uint8_t> body) {
  // u8 code | u32 error length + error bytes | u32 payload length + payload
  if (body.size() < 9) return std::nullopt;
  GetReply out;
  out.code = static_cast<communix::ErrorCode>(body[0]);
  const std::size_t err_len = LoadU32(body.data() + 1);
  if (body.size() - 5 < err_len || body.size() - 5 - err_len < 4) {
    return std::nullopt;
  }
  std::size_t pos = 5 + err_len;
  const std::size_t payload_len = LoadU32(body.data() + pos);
  pos += 4;
  if (body.size() - pos != payload_len) return std::nullopt;
  if (out.code != communix::ErrorCode::kOk) return out;
  if (payload_len < 4) return std::nullopt;
  out.count = LoadU32(body.data() + pos);
  pos += 4;
  const std::size_t region_start = pos;
  for (std::uint32_t i = 0; i < out.count; ++i) {
    if (body.size() - pos < 4) return std::nullopt;
    const std::uint32_t len = LoadU32(body.data() + pos);
    pos += 4;
    if (body.size() - pos < len) return std::nullopt;
    pos += len;
  }
  if (pos != body.size()) return std::nullopt;
  out.region = body.subspan(region_start);
  return out;
}

LogReference::LogReference(
    const std::vector<std::vector<std::uint8_t>>& entries) {
  offsets_.reserve(entries.size() + 1);
  std::size_t total = 0;
  for (const auto& e : entries) total += 4 + e.size();
  region_.reserve(total);
  for (const auto& e : entries) {
    offsets_.push_back(region_.size());
    const auto n = static_cast<std::uint32_t>(e.size());
    for (int i = 0; i < 4; ++i) {
      region_.push_back(static_cast<std::uint8_t>(n >> (8 * i)));
    }
    region_.insert(region_.end(), e.begin(), e.end());
  }
  offsets_.push_back(region_.size());
}

std::span<const std::uint8_t> LogReference::Region(std::uint64_t from,
                                                   std::uint32_t count) const {
  if (from > size() || count > size() - from) return {};
  return std::span<const std::uint8_t>(region_).subspan(
      offsets_[from], offsets_[from + count] - offsets_[from]);
}

bool LogReference::Matches(const PollRecord& rec) {
  if (rec.from > size() || rec.count > size() - rec.from) return false;
  const std::uint64_t key = (rec.from << 24) ^ rec.count;
  auto it = memo_.find(key);
  if (it == memo_.end()) {
    it = memo_.emplace(key, Digest(Region(rec.from, rec.count))).first;
  }
  return it->second == rec.digest;
}

bool LogReference::MatchesBytes(std::uint64_t from, std::uint32_t count,
                                std::span<const std::uint8_t> region) const {
  if (from > size() || count > size() - from) return false;
  const auto ref = Region(from, count);
  return ref.size() == region.size() &&
         std::memcmp(ref.data(), region.data(), ref.size()) == 0;
}

bool AddReplyMatches(std::span<const std::uint8_t> body,
                     communix::ErrorCode expected) {
  const auto resp = communix::net::Response::Deserialize(body);
  return resp.has_value() && resp->code == expected;
}

}  // namespace perfbench
