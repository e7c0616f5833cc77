#include "communix/store/read_cache.hpp"

#include <algorithm>

namespace communix::store {

namespace {

std::size_t A1inCapacity(std::size_t capacity) {
  return std::max<std::size_t>(1, capacity / 4);
}

}  // namespace

ReadCache::ReadCache(std::size_t capacity)
    : kin_(A1inCapacity(std::max<std::size_t>(capacity, 2))),
      kam_(std::max<std::size_t>(capacity, 2) - kin_),
      kout_(std::max<std::size_t>(capacity, 2)) {}

bool ReadCache::SyncGenerationLocked(std::uint64_t generation) {
  if (generation == generation_) return true;
  if (generation < generation_) return false;
  // First access under a newer log identity: everything cached was built
  // from a retired log and must never be served again.
  if (!table_.empty() || !a1out_.empty()) ++stats_.invalidations;
  ClearLocked();
  generation_ = generation;
  return true;
}

void ReadCache::ClearLocked() {
  table_.clear();
  a1in_.clear();
  am_.clear();
  a1out_.clear();
  a1out_index_.clear();
}

void ReadCache::Clear() {
  std::lock_guard lock(mu_);
  if (!table_.empty() || !a1out_.empty()) ++stats_.invalidations;
  ClearLocked();
}

std::shared_ptr<const CachedSlice> ReadCache::Lookup(std::uint64_t generation,
                                                     std::uint64_t from) {
  std::lock_guard lock(mu_);
  if (!SyncGenerationLocked(generation)) {
    ++stats_.misses;
    return nullptr;
  }
  const auto it = table_.find(from);
  if (it == table_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  Entry& entry = it->second;
  if (entry.where == Where::kAm) {
    am_.splice(am_.begin(), am_, entry.pos);  // refresh LRU position
  }
  ++stats_.hits;
  return entry.slice;
}

void ReadCache::EvictOneLocked(std::list<std::uint64_t>& queue,
                               bool remember_ghost) {
  const std::uint64_t victim = queue.back();
  queue.pop_back();
  table_.erase(victim);
  ++stats_.evictions;
  if (remember_ghost) {
    a1out_.push_front(victim);
    a1out_index_[victim] = a1out_.begin();
    if (a1out_.size() > kout_) {
      a1out_index_.erase(a1out_.back());
      a1out_.pop_back();
    }
  }
}

void ReadCache::Insert(std::uint64_t generation,
                       std::shared_ptr<const CachedSlice> slice) {
  if (slice == nullptr) return;
  const std::uint64_t key = slice->from;
  std::lock_guard lock(mu_);
  if (!SyncGenerationLocked(generation)) return;  // stale-log data

  if (const auto it = table_.find(key); it != table_.end()) {
    // Replacement (the extension path: same key, longer slice). Where it
    // lives is unchanged — an extension is a re-reference of a key that
    // is already resident, not new evidence beyond what Lookup recorded.
    // A reader with an older view of the log may finish after one with a
    // newer view: its shorter slice must not replace the longer one.
    if (slice->upto > it->second.slice->upto) {
      it->second.slice = std::move(slice);
    }
    if (it->second.where == Where::kAm) {
      am_.splice(am_.begin(), am_, it->second.pos);
    }
    return;
  }

  if (const auto ghost = a1out_index_.find(key);
      ghost != a1out_index_.end()) {
    // Referenced again after probation eviction: a proven-hot key goes
    // into the protected LRU.
    a1out_.erase(ghost->second);
    a1out_index_.erase(ghost);
    while (am_.size() >= kam_) EvictOneLocked(am_, /*remember_ghost=*/false);
    am_.push_front(key);
    table_[key] = Entry{std::move(slice), Where::kAm, am_.begin()};
    ++stats_.promotions;
    return;
  }

  // Unknown key: probation.
  while (a1in_.size() >= kin_) EvictOneLocked(a1in_, /*remember_ghost=*/true);
  a1in_.push_front(key);
  table_[key] = Entry{std::move(slice), Where::kA1in, a1in_.begin()};
  ++stats_.admissions;
}

ReadCache::Stats ReadCache::GetStats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::size_t ReadCache::resident() const {
  std::lock_guard lock(mu_);
  return table_.size();
}

}  // namespace communix::store
