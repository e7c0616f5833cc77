// AvoidanceIndex delta-rebuild properties: a chain of Rebuild() calls
// (one per history mutation) must stay observationally identical to a
// from-scratch Build() after every step — the same candidates and the
// same peer buckets per key — while actually reusing the previous
// snapshot's entries.
#include <gtest/gtest.h>

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

/// Candidate sets as (content_id, position) pairs — ordinals renumber
/// across rebuilds, so identity must be compared by content.
std::multiset<std::pair<std::uint64_t, std::uint32_t>> CandidateContents(
    const AvoidanceIndex& index, std::uint64_t key) {
  std::multiset<std::pair<std::uint64_t, std::uint32_t>> out;
  const auto* cands = index.CandidatesForTopFrame(key);
  if (cands == nullptr) return out;
  for (const auto& c : *cands) {
    out.emplace(index.entry(c.ordinal).content_id, c.position);
  }
  return out;
}

std::vector<std::uint64_t> AllTopKeys(const History& h) {
  std::set<std::uint64_t> keys;
  for (const SignatureRecord& rec : h.records()) {
    for (const auto& e : rec.sig.entries()) keys.insert(e.outer.TopKey());
  }
  keys.insert(0xDEADBEEF);  // a key no signature has
  return {keys.begin(), keys.end()};
}

void ExpectObservationallyEqual(const AvoidanceIndex& full,
                                const AvoidanceIndex& delta,
                                const History& h, std::uint64_t step) {
  EXPECT_EQ(full.size(), delta.size()) << "step " << step;
  EXPECT_EQ(full.empty(), delta.empty()) << "step " << step;
  EXPECT_EQ(full.version(), delta.version()) << "step " << step;
  for (const std::uint64_t key : AllTopKeys(h)) {
    EXPECT_EQ(CandidateContents(full, key), CandidateContents(delta, key))
        << "step " << step << " key " << key;
    const auto* fs = full.SlotForTopFrame(key);
    const auto* ds = delta.SlotForTopFrame(key);
    ASSERT_EQ(fs == nullptr, ds == nullptr) << "step " << step;
    if (fs != nullptr) {
      EXPECT_EQ(fs->peer_buckets, ds->peer_buckets) << "step " << step;
    }
  }
}

TEST(AvoidanceIndexTest, DeltaRebuildChainMatchesFullBuild) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    History h;
    std::vector<std::uint64_t> contents;
    auto index = AvoidanceIndex::Build(h, 0);

    for (std::uint64_t step = 1; step <= 60; ++step) {
      const std::uint32_t kind = static_cast<std::uint32_t>(
          rng.NextBounded(100));
      if (kind < 40 || contents.empty()) {
        const Signature sig = MakeSig(static_cast<std::uint32_t>(
            seed * 1000 + step));
        if (h.Add(sig, SignatureOrigin::kRemote, 1) >= 0) {
          contents.push_back(sig.ContentId());
        }
      } else if (kind < 60) {
        h.Disable(contents[rng.NextBounded(contents.size())]);
      } else if (kind < 80) {
        h.ReEnable(contents[rng.NextBounded(contents.size())]);
      } else {
        const std::size_t victim = rng.NextBounded(h.size());
        const Signature repl = MakeSig(static_cast<std::uint32_t>(
            seed * 1000 + 500 + step));
        if (!h.ContainsContent(repl.ContentId())) {
          const std::uint64_t old =
              h.record(victim).sig.ContentId();
          h.Replace(victim, repl);
          std::erase(contents, old);
          contents.push_back(repl.ContentId());
        }
      }
      auto delta = AvoidanceIndex::Rebuild(*index, h, step);
      const auto full = AvoidanceIndex::Build(h, step);
      ExpectObservationallyEqual(*full, *delta, h, step);
      EXPECT_TRUE(delta->built_by_delta());
      EXPECT_FALSE(full->built_by_delta());
      EXPECT_EQ(delta->entries_reused() + delta->entries_copied(),
                delta->size());
      index = std::move(delta);
    }
    // Over a 60-mutation chain almost every record survives each step.
    EXPECT_GT(index->entries_reused() + index->entries_copied(), 0u);
  }
}

TEST(AvoidanceIndexTest, DeltaRebuildReusesUnchangedEntries) {
  History h;
  for (std::uint32_t i = 0; i < 10; ++i) {
    h.Add(MakeSig(i), SignatureOrigin::kRemote, 1);
  }
  auto index = AvoidanceIndex::Build(h, 1);
  h.Add(MakeSig(100), SignatureOrigin::kRemote, 2);
  const auto delta = AvoidanceIndex::Rebuild(*index, h, 2);
  EXPECT_EQ(delta->entries_reused(), 10u);
  EXPECT_EQ(delta->entries_copied(), 1u);
  // Reuse is by shared_ptr identity, not by equal copies.
  EXPECT_EQ(&index->entry(0), &delta->entry(0));
}

}  // namespace
}  // namespace communix::dimmunix
