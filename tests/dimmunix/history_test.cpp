#include "dimmunix/history.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "../testutil.hpp"
#include "dimmunix/avoidance_index.hpp"
#include "util/fnv.hpp"

namespace communix::dimmunix {
namespace {

using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

Signature MakeSig(std::uint32_t salt) {
  return Sig2(ChainStack("h.A", 6, F("h.A", "s1", 10 + salt)),
              ChainStack("h.A", 6, F("h.A", "i1", 11 + salt)),
              ChainStack("h.B", 6, F("h.B", "s2", 20 + salt)),
              ChainStack("h.B", 6, F("h.B", "i2", 21 + salt)));
}

TEST(HistoryTest, AddAndDeduplicate) {
  History h;
  EXPECT_EQ(h.Add(MakeSig(0), SignatureOrigin::kLocal, 1), 0);
  EXPECT_EQ(h.Add(MakeSig(1), SignatureOrigin::kRemote, 2), 1);
  EXPECT_EQ(h.Add(MakeSig(0), SignatureOrigin::kLocal, 3), -1)
      << "identical content must deduplicate";
  EXPECT_EQ(h.size(), 2u);
  EXPECT_TRUE(h.ContainsContent(MakeSig(0).ContentId()));
}

TEST(HistoryTest, RecordsKeepMetadata) {
  History h;
  h.Add(MakeSig(0), SignatureOrigin::kRemote, 77);
  EXPECT_EQ(h.record(0).origin, SignatureOrigin::kRemote);
  EXPECT_EQ(h.record(0).added_at, 77);
  EXPECT_FALSE(h.record(0).disabled);
}

TEST(HistoryTest, FindByBugKey) {
  History h;
  h.Add(MakeSig(0), SignatureOrigin::kLocal, 1);
  h.Add(MakeSig(5), SignatureOrigin::kLocal, 1);
  const auto hits = h.FindByBugKey(MakeSig(0).BugKey());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 0u);
  EXPECT_TRUE(h.FindByBugKey(12345).empty());
}

TEST(HistoryTest, FindByBugKeyStaysAscendingAcrossReplace) {
  // Records 0, 2 and 4 are manifestations of bug A (same top frames,
  // different frames below them); 1 and 3 are manifestations of bug B.
  const auto manifestation = [](std::uint32_t salt, std::uint32_t variant) {
    return Sig2(ChainStack("h.V" + std::to_string(variant), 6,
                           F("h.A", "s1", 10 + salt)),
                ChainStack("h.A", 6, F("h.A", "i1", 11 + salt)),
                ChainStack("h.B", 6, F("h.B", "s2", 20 + salt)),
                ChainStack("h.B", 6, F("h.B", "i2", 21 + salt)));
  };
  History h;
  for (std::uint32_t i = 0; i < 5; ++i) {
    ASSERT_EQ(h.Add(manifestation(i % 2 == 0 ? 0 : 100, i),
                    SignatureOrigin::kRemote, 1),
              static_cast<int>(i));
  }
  const std::uint64_t bug_a = h.record(0).sig.BugKey();
  const std::uint64_t bug_b = h.record(1).sig.BugKey();
  ASSERT_NE(bug_a, bug_b);
  EXPECT_EQ(h.FindByBugKey(bug_a), (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(h.FindByBugKey(bug_b), (std::vector<std::size_t>{1, 3}));

  // Moving record 2 to bug B must land it between 1 and 3.
  h.Replace(2, manifestation(100, 7));
  EXPECT_EQ(h.FindByBugKey(bug_a), (std::vector<std::size_t>{0, 4}));
  EXPECT_EQ(h.FindByBugKey(bug_b), (std::vector<std::size_t>{1, 2, 3}));
  // A same-bug replace leaves the lists alone; emptying a bug drops it.
  h.Replace(1, manifestation(100, 8));
  EXPECT_EQ(h.FindByBugKey(bug_b), (std::vector<std::size_t>{1, 2, 3}));
  h.Replace(0, manifestation(100, 9));
  h.Replace(4, manifestation(100, 10));
  EXPECT_TRUE(h.FindByBugKey(bug_a).empty());
  EXPECT_EQ(h.FindByBugKey(bug_b),
            (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(HistoryTest, FindReturnsTheRecordOfAContentId) {
  History h;
  for (std::uint32_t i = 0; i < 120; ++i) {
    h.Add(MakeSig(i * 100), SignatureOrigin::kRemote, i);
  }
  const SignatureRecord* rec = h.Find(MakeSig(7300).ContentId());
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->sig, MakeSig(7300));
  EXPECT_EQ(rec->added_at, 73);
  EXPECT_EQ(h.Find(12345), nullptr);
}

TEST(HistoryTest, CandidatesIndexByOuterTop) {
  // The candidates-by-top-frame projection lives in AvoidanceIndex (the
  // runtime's published snapshot), built from the history.
  History h;
  const Signature s = MakeSig(0);
  h.Add(s, SignatureOrigin::kLocal, 1);
  const auto index = AvoidanceIndex::Build(h, 1);
  for (const auto& e : s.entries()) {
    const auto* cands = index->CandidatesForTopFrame(e.outer.TopKey());
    ASSERT_NE(cands, nullptr);
    ASSERT_EQ(cands->size(), 1u);
    EXPECT_EQ((*cands)[0].ordinal, 0u);
  }
  EXPECT_EQ(index->CandidatesForTopFrame(999), nullptr);
}

TEST(HistoryTest, DisableRemovesFromIndex) {
  History h;
  const Signature s = MakeSig(0);
  h.Add(s, SignatureOrigin::kLocal, 1);
  ASSERT_TRUE(h.Disable(s.ContentId()));
  EXPECT_TRUE(h.record(0).disabled);
  const auto disabled = AvoidanceIndex::Build(h, 1);
  EXPECT_EQ(disabled->CandidatesForTopFrame(s.entries()[0].outer.TopKey()),
            nullptr);
  ASSERT_TRUE(h.ReEnable(s.ContentId()));
  const auto enabled = AvoidanceIndex::Build(h, 2);
  EXPECT_NE(enabled->CandidatesForTopFrame(s.entries()[0].outer.TopKey()),
            nullptr);
}

TEST(HistoryTest, DisableUnknownFails) {
  History h;
  EXPECT_FALSE(h.Disable(42));
  EXPECT_FALSE(h.ReEnable(42));
}

TEST(HistoryTest, ReplaceSwapsContent) {
  History h;
  h.Add(MakeSig(0), SignatureOrigin::kLocal, 1);
  const Signature merged = MakeSig(9);
  h.Replace(0, merged);
  EXPECT_EQ(h.record(0).sig, merged);
  EXPECT_TRUE(h.ContainsContent(merged.ContentId()));
  EXPECT_FALSE(h.ContainsContent(MakeSig(0).ContentId()));
  // A rebuilt index follows the new content.
  const auto index = AvoidanceIndex::Build(h, 1);
  EXPECT_NE(index->CandidatesForTopFrame(merged.entries()[0].outer.TopKey()),
            nullptr);
}

TEST(HistoryTest, RetiredLedgerRecordsReplaceAndFreshDisable) {
  History h;
  h.Add(MakeSig(0), SignatureOrigin::kLocal, 1);
  h.Add(MakeSig(1), SignatureOrigin::kRemote, 2);
  EXPECT_EQ(h.retired_pending(), 0u) << "Add never feeds the ledger";

  // Replace retires the replaced content id (generalization superseded
  // it); Disable retires on the false→true transition only, so marking
  // an already-disabled signature again succeeds but enqueues nothing.
  h.Replace(0, MakeSig(9));
  ASSERT_TRUE(h.Disable(MakeSig(1).ContentId()));
  EXPECT_TRUE(h.Disable(MakeSig(1).ContentId()));
  EXPECT_EQ(h.retired_pending(), 2u);

  const auto drained = h.TakeRetiredContentIds();
  EXPECT_EQ(drained, (std::vector<std::uint64_t>{MakeSig(0).ContentId(),
                                                 MakeSig(1).ContentId()}));
  EXPECT_EQ(h.retired_pending(), 0u);
  EXPECT_TRUE(h.TakeRetiredContentIds().empty()) << "drain is destructive";

  // Replacing with identical content retires nothing — the history still
  // vouches for those bytes.
  h.Replace(0, MakeSig(9));
  EXPECT_EQ(h.retired_pending(), 0u);
}

TEST(HistoryTest, SaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "communix_hist_test.bin")
          .string();
  History h;
  h.Add(MakeSig(0), SignatureOrigin::kLocal, 10);
  h.Add(MakeSig(1), SignatureOrigin::kRemote, 20);
  h.Disable(MakeSig(1).ContentId());
  ASSERT_TRUE(h.SaveToFile(path).ok());

  auto loaded = History::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const History& l = loaded.value();
  ASSERT_EQ(l.size(), 2u);
  EXPECT_EQ(l.record(0).sig, MakeSig(0));
  EXPECT_EQ(l.record(0).origin, SignatureOrigin::kLocal);
  EXPECT_EQ(l.record(0).added_at, 10);
  EXPECT_TRUE(l.record(1).disabled);
  std::remove(path.c_str());
}

TEST(HistoryTest, RoundTripSurvivesIndexRebuild) {
  // Save/Load must preserve `disabled` flags and SignatureOrigin, and an
  // AvoidanceIndex rebuilt from the loaded history must honor them: a
  // disabled signature contributes no candidates, an enabled one keeps
  // every (ordinal, position) pair.
  const std::string path =
      (std::filesystem::temp_directory_path() / "communix_hist_index.bin")
          .string();
  History h;
  const Signature enabled_sig = MakeSig(0);
  const Signature disabled_sig = MakeSig(100);
  h.Add(enabled_sig, SignatureOrigin::kRemote, 5);
  h.Add(disabled_sig, SignatureOrigin::kLocal, 6);
  h.Disable(disabled_sig.ContentId());
  ASSERT_TRUE(h.SaveToFile(path).ok());

  auto loaded = History::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const History& l = loaded.value();
  ASSERT_EQ(l.size(), 2u);
  EXPECT_EQ(l.record(0).origin, SignatureOrigin::kRemote);
  EXPECT_EQ(l.record(1).origin, SignatureOrigin::kLocal);
  EXPECT_FALSE(l.record(0).disabled);
  EXPECT_TRUE(l.record(1).disabled);

  const auto index = AvoidanceIndex::Build(l, 7);
  EXPECT_EQ(index->version(), 7u);
  ASSERT_EQ(index->size(), 1u) << "disabled signature must not be indexed";
  EXPECT_EQ(index->entry(0).content_id, enabled_sig.ContentId());
  for (const auto& e : enabled_sig.entries()) {
    const auto* cands = index->CandidatesForTopFrame(e.outer.TopKey());
    ASSERT_NE(cands, nullptr);
    EXPECT_EQ((*cands)[0].ordinal, 0u);
  }
  for (const auto& e : disabled_sig.entries()) {
    EXPECT_EQ(index->CandidatesForTopFrame(e.outer.TopKey()), nullptr);
  }

  // Re-enabling after load restores the candidates on the next rebuild.
  History mutated = l;
  ASSERT_TRUE(mutated.ReEnable(disabled_sig.ContentId()));
  const auto rebuilt = AvoidanceIndex::Build(mutated, 8);
  EXPECT_EQ(rebuilt->size(), 2u);
  for (const auto& e : disabled_sig.entries()) {
    EXPECT_NE(rebuilt->CandidatesForTopFrame(e.outer.TopKey()), nullptr);
  }
  std::remove(path.c_str());
}

TEST(HistoryTest, CachedContentIdsMatchFreshHashesAcrossSaveLoad) {
  // Every record's cached ContentId() equals Fnv1a(ToBytes()) — before
  // saving, after loading, and after a Replace rewrote a record.
  const std::string path =
      (std::filesystem::temp_directory_path() / "communix_hist_ids.bin")
          .string();
  const auto expect_fresh = [](const History& hist, const char* when) {
    for (const SignatureRecord& rec : hist.records()) {
      const auto bytes = rec.sig.ToBytes();
      EXPECT_EQ(rec.sig.ContentId(), Fnv1a(std::span<const std::uint8_t>(
                                         bytes.data(), bytes.size())))
          << when;
      EXPECT_TRUE(hist.ContainsContent(rec.sig.ContentId())) << when;
    }
  };
  History h;
  for (std::uint32_t i = 0; i < 20; ++i) {
    h.Add(MakeSig(i * 50), SignatureOrigin::kRemote, i);
  }
  h.Replace(3, MakeSig(5000));
  expect_fresh(h, "before save");
  ASSERT_TRUE(h.SaveToFile(path).ok());
  auto loaded = History::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), h.size());
  expect_fresh(loaded.value(), "after load");
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_EQ(loaded.value().record(i).sig.ContentId(),
              h.record(i).sig.ContentId());
  }
  std::remove(path.c_str());
}

TEST(HistoryTest, LoadMissingFileFails) {
  auto r = History::LoadFromFile("/nonexistent/path/history.bin");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kNotFound);
}

TEST(HistoryTest, LoadCorruptFileFails) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "communix_hist_corrupt.bin")
          .string();
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a history file", f);
    std::fclose(f);
  }
  auto r = History::LoadFromFile(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(HistoryTest, TruncatedFileFails) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "communix_hist_trunc.bin")
          .string();
  History h;
  h.Add(MakeSig(0), SignatureOrigin::kLocal, 1);
  ASSERT_TRUE(h.SaveToFile(path).ok());
  // Truncate to half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  auto r = History::LoadFromFile(path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace communix::dimmunix
