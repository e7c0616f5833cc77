#include "dimmunix/avoidance_index.hpp"

#include <algorithm>
#include <unordered_set>

namespace communix::dimmunix {

std::size_t OccupancyTable::ClampBuckets(std::size_t buckets) {
  std::size_t width = kMinBuckets;
  while (width < buckets && width < kMaxBuckets) width <<= 1;
  return width;
}

std::size_t OccupancyTable::RecommendedBuckets(std::size_t candidate_keys) {
  const std::size_t want =
      std::max(kDefaultBuckets, candidate_keys * 8);
  return ClampBuckets(want);
}

OccupancyTable::OccupancyTable(std::size_t buckets) { Resize(buckets); }

void OccupancyTable::Resize(std::size_t buckets) {
  bucket_count_ = ClampBuckets(buckets);
  lines_.reset(new Line[kStripes * bucket_count_ / 16]());
}

std::size_t CountCandidateKeys(const History& history) {
  std::unordered_set<std::uint64_t> keys;
  for (const SignatureRecord& rec : history.records()) {
    if (rec.disabled) continue;
    for (const SignatureEntry& e : rec.sig.entries()) {
      keys.insert(e.outer.TopKey());
    }
  }
  return keys.size();
}

std::shared_ptr<const AvoidanceIndex> AvoidanceIndex::Build(
    const History& history, std::uint64_t version,
    std::size_t occupancy_buckets) {
  return BuildInternal(history, version, nullptr, occupancy_buckets);
}

std::shared_ptr<const AvoidanceIndex> AvoidanceIndex::Rebuild(
    const AvoidanceIndex& prev, const History& history,
    std::uint64_t version, std::size_t occupancy_buckets) {
  return BuildInternal(history, version, &prev, occupancy_buckets);
}

std::shared_ptr<const AvoidanceIndex> AvoidanceIndex::BuildInternal(
    const History& history, std::uint64_t version,
    const AvoidanceIndex* prev, std::size_t occupancy_buckets) {
  auto index = std::shared_ptr<AvoidanceIndex>(new AvoidanceIndex());
  index->version_ = version;
  index->built_by_delta_ = prev != nullptr;
  index->entries_.reserve(history.size());

  // Reuse map: content id -> previous snapshot's immutable entry.
  std::unordered_map<std::uint64_t, std::shared_ptr<const Entry>> reusable;
  if (prev != nullptr) {
    reusable.reserve(prev->entries_.size());
    for (const auto& e : prev->entries_) reusable.emplace(e->content_id, e);
  }

  for (const SignatureRecord& rec : history.records()) {
    if (rec.disabled) continue;
    const auto ordinal = static_cast<std::uint32_t>(index->entries_.size());
    std::shared_ptr<const Entry> entry;
    if (prev != nullptr) {
      auto it = reusable.find(rec.sig.ContentId());
      if (it != reusable.end()) {
        entry = it->second;
        ++index->entries_reused_;
      }
    }
    if (entry == nullptr) {
      entry = std::make_shared<const Entry>(
          Entry{rec.sig, rec.sig.ContentId()});
      ++index->entries_copied_;
    }
    const auto& entries = entry->sig.entries();
    for (std::size_t pos = 0; pos < entries.size(); ++pos) {
      KeySlot& slot = index->by_outer_top_[entries[pos].outer.TopKey()];
      slot.candidates.push_back(
          Candidate{ordinal, static_cast<std::uint32_t>(pos)});
    }
    index->entries_.push_back(std::move(entry));
  }

  // Per-key adaptive state: the peer buckets the gate reads.
  for (auto& [key, slot] : index->by_outer_top_) {
    for (const Candidate& cand : slot.candidates) {
      const auto& sig_entries = index->entries_[cand.ordinal]->sig.entries();
      for (std::size_t j = 0; j < sig_entries.size(); ++j) {
        if (j == cand.position) continue;
        slot.peer_buckets.push_back(OccupancyTable::BucketOf(
            sig_entries[j].outer.TopKey(), occupancy_buckets));
      }
    }
    std::sort(slot.peer_buckets.begin(), slot.peer_buckets.end());
    slot.peer_buckets.erase(
        std::unique(slot.peer_buckets.begin(), slot.peer_buckets.end()),
        slot.peer_buckets.end());
  }

  // Collision gauge: distinct index keys sharing an occupancy bucket at
  // this width. Each pair costs lost skips whenever one key is occupied
  // while the other's gate evaluates.
  std::unordered_map<std::uint32_t, std::size_t> keys_per_bucket;
  for (const auto& [key, slot] : index->by_outer_top_) {
    ++keys_per_bucket[OccupancyTable::BucketOf(key, occupancy_buckets)];
  }
  for (const auto& [bucket, n] : keys_per_bucket) {
    index->key_bucket_collisions_ += n - 1;
  }
  return index;
}

}  // namespace communix::dimmunix
