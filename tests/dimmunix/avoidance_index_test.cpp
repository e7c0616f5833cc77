// AvoidanceIndex build property: after every step of a random
// Add/Replace/Disable/ReEnable sequence, Build() equals a naive
// projection of the history's enabled records — the same entries in
// record order, the same candidates and the same peer buckets per key —
// and every entry shares its record's signature payload instead of
// copying it.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "../testutil.hpp"
#include "dimmunix/avoidance_index.hpp"
#include "dimmunix/history.hpp"
#include "util/rng.hpp"

namespace communix::dimmunix {
namespace {

using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

Signature MakeSig(std::uint32_t salt) {
  return Sig2(ChainStack("ai.A", 4, F("ai.A", "s", 10 + salt)),
              ChainStack("ai.A", 4, F("ai.A", "i", 500 + salt)),
              ChainStack("ai.B", 4, F("ai.B", "s", 1000 + salt)),
              ChainStack("ai.B", 4, F("ai.B", "i", 2000 + salt)));
}

/// Per top-frame key: the (ordinal, position) candidates and the sorted,
/// deduplicated peer buckets, computed record by record.
struct Projection {
  std::vector<const SignatureRecord*> entries;
  std::map<std::uint64_t, std::vector<AvoidanceIndex::Candidate>> candidates;
  std::map<std::uint64_t, std::vector<std::uint32_t>> peers;
};

Projection Project(const History& h, std::size_t buckets) {
  Projection p;
  for (const SignatureRecord& rec : h.records()) {
    if (rec.disabled) continue;
    const auto ordinal = static_cast<std::uint32_t>(p.entries.size());
    p.entries.push_back(&rec);
    const auto& es = rec.sig.entries();
    for (std::uint32_t pos = 0; pos < es.size(); ++pos) {
      const std::uint64_t key = es[pos].outer.TopKey();
      p.candidates[key].push_back({ordinal, pos});
      for (std::uint32_t j = 0; j < es.size(); ++j) {
        if (j != pos) {
          p.peers[key].push_back(
              OccupancyTable::BucketOf(es[j].outer.TopKey(), buckets));
        }
      }
    }
  }
  for (auto& [key, b] : p.peers) {
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
  }
  return p;
}

void ExpectMatchesProjection(const AvoidanceIndex& index, const History& h,
                             std::size_t buckets, std::uint64_t step) {
  const Projection p = Project(h, buckets);
  ASSERT_EQ(index.size(), p.entries.size()) << "step " << step;
  EXPECT_EQ(index.version(), step);
  EXPECT_EQ(index.key_count(), p.candidates.size()) << "step " << step;
  for (std::size_t i = 0; i < p.entries.size(); ++i) {
    const SignatureRecord& rec = *p.entries[i];
    EXPECT_EQ(index.entry(i).content_id, rec.sig.ContentId()) << "step "
                                                              << step;
    // Shared payload, not an equal copy.
    EXPECT_EQ(&index.entry(i).sig.entries(), &rec.sig.entries())
        << "step " << step;
  }
  for (const auto& [key, cands] : p.candidates) {
    const auto* slot = index.SlotForTopFrame(key);
    ASSERT_NE(slot, nullptr) << "step " << step;
    ASSERT_EQ(slot->candidates.size(), cands.size()) << "step " << step;
    for (std::size_t c = 0; c < cands.size(); ++c) {
      EXPECT_EQ(slot->candidates[c].ordinal, cands[c].ordinal);
      EXPECT_EQ(slot->candidates[c].position, cands[c].position);
    }
    EXPECT_EQ(slot->peer_buckets, p.peers.at(key)) << "step " << step;
  }
  EXPECT_EQ(index.SlotForTopFrame(0xDEADBEEF), nullptr);
}

/// FindByBugKey against a linear scan of the records.
void ExpectBugKeyListsMatchScan(const History& h, std::uint64_t step) {
  std::set<std::uint64_t> keys;
  for (const SignatureRecord& rec : h.records()) keys.insert(rec.sig.BugKey());
  for (const std::uint64_t key : keys) {
    std::vector<std::size_t> scan;
    for (std::size_t i = 0; i < h.size(); ++i) {
      if (h.record(i).sig.BugKey() == key) scan.push_back(i);
    }
    EXPECT_EQ(h.FindByBugKey(key), scan) << "step " << step;
  }
}

TEST(AvoidanceIndexTest, BuildMatchesNaiveProjectionOverRandomMutations) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    History h;
    std::vector<std::uint64_t> contents;
    const std::size_t buckets = seed % 2 == 0 ? 16 : 1024;
    ExpectMatchesProjection(*AvoidanceIndex::Build(h, 0, buckets), h,
                            buckets, 0);

    for (std::uint64_t step = 1; step <= 60; ++step) {
      const std::uint32_t kind = static_cast<std::uint32_t>(
          rng.NextBounded(100));
      if (kind < 40 || contents.empty()) {
        // Salts repeat now and then, so some adds are duplicates.
        const Signature sig = MakeSig(static_cast<std::uint32_t>(
            seed * 1000 + rng.NextBounded(50)));
        if (h.Add(sig, SignatureOrigin::kRemote, 1) >= 0) {
          contents.push_back(sig.ContentId());
        }
      } else if (kind < 60) {
        h.Disable(contents[rng.NextBounded(contents.size())]);
      } else if (kind < 80) {
        h.ReEnable(contents[rng.NextBounded(contents.size())]);
      } else {
        // A different salt moves every top frame, so the replacement
        // also changes the record's bug key.
        const std::size_t victim = rng.NextBounded(h.size());
        const Signature repl = MakeSig(static_cast<std::uint32_t>(
            seed * 1000 + 500 + step));
        if (!h.ContainsContent(repl.ContentId())) {
          const std::uint64_t old = h.record(victim).sig.ContentId();
          h.Replace(victim, repl);
          std::erase(contents, old);
          contents.push_back(repl.ContentId());
        }
      }
      ExpectMatchesProjection(*AvoidanceIndex::Build(h, step, buckets), h,
                              buckets, step);
      ExpectBugKeyListsMatchScan(h, step);
    }
  }
}

}  // namespace
}  // namespace communix::dimmunix
