#include "dimmunix/history.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace communix::dimmunix {

namespace {
constexpr std::uint32_t kHistoryMagic = 0x44494D58;  // "DIMX"
constexpr std::uint32_t kHistoryVersion = 1;
}  // namespace

int History::Add(Signature sig, SignatureOrigin origin, TimePoint now) {
  const std::uint64_t content = sig.ContentId();
  if (by_content_.count(content) > 0) return -1;
  const std::size_t index = records_.size();
  by_bug_key_[sig.BugKey()].push_back(index);
  records_.push_back(SignatureRecord{std::move(sig), origin, false, now});
  by_content_.emplace(content, index);
  return static_cast<int>(index);
}

void History::Replace(std::size_t index, Signature sig) {
  const Signature& old = records_.at(index).sig;
  const std::uint64_t old_content = old.ContentId();
  if (sig.BugKey() != old.BugKey()) {
    auto it = by_bug_key_.find(old.BugKey());
    std::erase(it->second, index);
    if (it->second.empty()) by_bug_key_.erase(it);
    auto& moved_to = by_bug_key_[sig.BugKey()];
    moved_to.insert(std::lower_bound(moved_to.begin(), moved_to.end(), index),
                    index);
  }
  by_content_.erase(old_content);
  records_[index].sig = std::move(sig);
  const std::uint64_t new_content = records_[index].sig.ContentId();
  by_content_.emplace(new_content, index);
  // A replace that actually changed the content retires the old id (the
  // merged/general signature supersedes it server-side too).
  if (new_content != old_content) {
    retired_content_ids_.push_back(old_content);
  }
}

bool History::Disable(std::uint64_t content_id) {
  auto it = by_content_.find(content_id);
  if (it == by_content_.end()) return false;
  // Only the false→true transition retires: re-disabling an already
  // disabled record must not re-enqueue it every FP hit.
  if (!records_[it->second].disabled) {
    retired_content_ids_.push_back(content_id);
  }
  records_[it->second].disabled = true;
  return true;
}

bool History::ReEnable(std::uint64_t content_id) {
  auto it = by_content_.find(content_id);
  if (it == by_content_.end()) return false;
  records_[it->second].disabled = false;
  return true;
}

std::vector<std::uint64_t> History::TakeRetiredContentIds() {
  std::vector<std::uint64_t> out;
  out.swap(retired_content_ids_);
  return out;
}

const SignatureRecord* History::Find(std::uint64_t content_id) const {
  auto it = by_content_.find(content_id);
  return it == by_content_.end() ? nullptr : &records_[it->second];
}

std::vector<std::size_t> History::FindByBugKey(std::uint64_t bug_key) const {
  auto it = by_bug_key_.find(bug_key);
  return it == by_bug_key_.end() ? std::vector<std::size_t>{} : it->second;
}

Status History::SaveToFile(const std::string& path) const {
  BinaryWriter w;
  w.WriteU32(kHistoryMagic);
  w.WriteU32(kHistoryVersion);
  w.WriteU32(static_cast<std::uint32_t>(records_.size()));
  for (const SignatureRecord& rec : records_) {
    w.WriteU8(static_cast<std::uint8_t>(rec.origin));
    w.WriteU8(rec.disabled ? 1 : 0);
    w.WriteI64(rec.added_at);
    rec.sig.Serialize(w);
  }
  // Write via a temp file + rename for crash consistency.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Error(ErrorCode::kUnavailable, "cannot open " + tmp);
    }
    out.write(reinterpret_cast<const char*>(w.data().data()),
              static_cast<std::streamsize>(w.size()));
    if (!out) {
      return Status::Error(ErrorCode::kUnavailable, "short write to " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::Error(ErrorCode::kUnavailable,
                         "rename failed: " + ec.message());
  }
  return Status::Ok();
}

Result<History> History::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Error(ErrorCode::kNotFound, "cannot open " + path);
  }
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  BinaryReader r(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  if (r.ReadU32() != kHistoryMagic || r.ReadU32() != kHistoryVersion) {
    return Status::Error(ErrorCode::kDataLoss, "bad history header: " + path);
  }
  const std::uint32_t count = r.ReadU32();
  History h;
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto origin = static_cast<SignatureOrigin>(r.ReadU8());
    const bool disabled = r.ReadU8() != 0;
    const TimePoint added = r.ReadI64();
    auto sig = Signature::Deserialize(r);
    if (!sig || !r.ok()) {
      return Status::Error(ErrorCode::kDataLoss,
                           "corrupt history record in " + path);
    }
    const int idx = h.Add(std::move(*sig), origin, added);
    if (idx >= 0 && disabled) {
      h.records_[static_cast<std::size_t>(idx)].disabled = true;
    }
  }
  return h;
}

}  // namespace communix::dimmunix
