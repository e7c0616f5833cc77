#include "dimmunix/signature.hpp"

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "util/fnv.hpp"
#include "util/sha256.hpp"

namespace communix::dimmunix {
namespace {

using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;
using testutil::Stack;

Signature SampleSig(std::uint32_t salt = 0) {
  return Sig2(ChainStack("app.A", 6, F("app.A", "lockA", 100 + salt)),
              ChainStack("app.A", 7, F("app.A", "waitB", 110 + salt)),
              ChainStack("app.B", 6, F("app.B", "lockB", 200 + salt)),
              ChainStack("app.B", 7, F("app.B", "waitA", 210 + salt)));
}

/// SampleSig with a class hash on every frame (the uploaded form).
Signature HashedSampleSig(std::uint32_t salt = 0) {
  std::vector<SignatureEntry> entries = SampleSig(salt).entries();
  for (auto& e : entries) {
    for (auto* stack : {&e.outer, &e.inner}) {
      for (auto& f : stack->mutable_frames()) {
        f.class_hash = Sha256::Hash(f.class_name);
      }
    }
  }
  return Signature(std::move(entries));
}

std::uint64_t FreshContentId(const Signature& s) {
  const auto bytes = s.ToBytes();
  return Fnv1a(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
}

TEST(SignatureTest, CanonicalOrderIndependentOfEntryOrder) {
  const auto outer1 = ChainStack("a.X", 5, F("a.X", "s1", 10));
  const auto inner1 = ChainStack("a.X", 6, F("a.X", "i1", 11));
  const auto outer2 = ChainStack("a.Y", 5, F("a.Y", "s2", 20));
  const auto inner2 = ChainStack("a.Y", 6, F("a.Y", "i2", 21));
  const Signature ab = Sig2(outer1, inner1, outer2, inner2);
  const Signature ba = Sig2(outer2, inner2, outer1, inner1);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.BugKey(), ba.BugKey());
  EXPECT_EQ(ab.ContentId(), ba.ContentId());
}

TEST(SignatureTest, BugKeyDependsOnTopFramesOnly) {
  // Same top frames, different lower frames => same bug.
  const Signature a = Sig2(ChainStack("a.X", 5, F("a.X", "s1", 10)),
                           ChainStack("a.X", 5, F("a.X", "i1", 11)),
                           ChainStack("a.Y", 5, F("a.Y", "s2", 20)),
                           ChainStack("a.Y", 5, F("a.Y", "i2", 21)));
  const Signature b = Sig2(ChainStack("other.Z", 9, F("a.X", "s1", 10)),
                           ChainStack("other.Z", 3, F("a.X", "i1", 11)),
                           ChainStack("other.W", 2, F("a.Y", "s2", 20)),
                           ChainStack("other.W", 4, F("a.Y", "i2", 21)));
  EXPECT_EQ(a.BugKey(), b.BugKey());
  EXPECT_NE(a.ContentId(), b.ContentId()) << "different manifestations";
}

TEST(SignatureTest, BugKeyChangesWithInnerTop) {
  const Signature a = SampleSig();
  const Signature b = Sig2(ChainStack("app.A", 6, F("app.A", "lockA", 100)),
                           ChainStack("app.A", 7, F("app.A", "waitB", 999)),
                           ChainStack("app.B", 6, F("app.B", "lockB", 200)),
                           ChainStack("app.B", 7, F("app.B", "waitA", 210)));
  EXPECT_NE(a.BugKey(), b.BugKey());
}

TEST(SignatureTest, MinOuterDepth) {
  const Signature s = Sig2(ChainStack("a.X", 3, F("a.X", "s1", 10)),
                           ChainStack("a.X", 8, F("a.X", "i1", 11)),
                           ChainStack("a.Y", 7, F("a.Y", "s2", 20)),
                           ChainStack("a.Y", 8, F("a.Y", "i2", 21)));
  EXPECT_EQ(s.MinOuterDepth(), 3u);
  EXPECT_EQ(Signature().MinOuterDepth(), 0u);
}

TEST(SignatureTest, SerializationRoundTrip) {
  const Signature s = SampleSig();
  const auto bytes = s.ToBytes();
  const auto back = Signature::FromBytes(
      std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, s);
  EXPECT_EQ(back->BugKey(), s.BugKey());
  EXPECT_EQ(back->ContentId(), s.ContentId());
}

TEST(SignatureTest, SerializationPreservesHashes) {
  Signature s = SampleSig();
  std::vector<SignatureEntry> entries = s.entries();
  entries[0].outer.mutable_frames()[0].class_hash = Sha256::Hash("bytecode");
  s = Signature(std::move(entries));
  const auto bytes = s.ToBytes();
  const auto back = Signature::FromBytes(
      std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  ASSERT_TRUE(back.has_value());
  ASSERT_TRUE(back->entries()[0].outer.frames()[0].class_hash.has_value());
  EXPECT_EQ(*back->entries()[0].outer.frames()[0].class_hash,
            Sha256::Hash("bytecode"));
}

TEST(SignatureTest, FromBytesRejectsGarbage) {
  const std::vector<std::uint8_t> garbage = {0xFF, 0x12, 0x00, 0x09, 0xAB};
  EXPECT_FALSE(Signature::FromBytes(std::span<const std::uint8_t>(
                   garbage.data(), garbage.size()))
                   .has_value());
}

TEST(SignatureTest, FromBytesRejectsTrailingBytes) {
  auto bytes = SampleSig().ToBytes();
  bytes.push_back(0);
  EXPECT_FALSE(Signature::FromBytes(std::span<const std::uint8_t>(
                   bytes.data(), bytes.size()))
                   .has_value());
}

TEST(SignatureTest, FromBytesRejectsTruncation) {
  const auto bytes = SampleSig().ToBytes();
  for (std::size_t cut :
       {std::size_t{1}, std::size_t{5}, std::size_t{20}, bytes.size() / 2}) {
    ASSERT_LT(cut, bytes.size());
    EXPECT_FALSE(Signature::FromBytes(std::span<const std::uint8_t>(
                     bytes.data(), bytes.size() - cut))
                     .has_value())
        << "cut=" << cut;
  }
}

TEST(SignatureTest, FromBytesRejectsTruncationAtEveryByte) {
  // Covers every field boundary, including inside each 32-byte class
  // hash, which the decoder reads straight into the digest.
  const auto bytes = HashedSampleSig().ToBytes();
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    BinaryReader r(std::span<const std::uint8_t>(bytes.data(), keep));
    EXPECT_FALSE(Signature::Deserialize(r).has_value()) << "keep=" << keep;
    EXPECT_FALSE(r.ok()) << "keep=" << keep;
  }
  const auto whole = Signature::FromBytes(
      std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(*whole, HashedSampleSig());
}

TEST(SignatureTest, CopiesShareOnePayload) {
  const Signature s = SampleSig();
  const Signature copy = s;  // NOLINT(performance-unnecessary-copy-*)
  EXPECT_EQ(&copy.entries(), &s.entries());
  EXPECT_EQ(copy.BugKey(), s.BugKey());
  EXPECT_EQ(copy, s);
}

TEST(SignatureTest, CachedContentIdMatchesFreshHashAfterDecode) {
  for (std::uint32_t salt = 0; salt < 20; ++salt) {
    const Signature made = salt % 2 == 0 ? SampleSig(salt)
                                         : HashedSampleSig(salt);
    const auto bytes = made.ToBytes();
    const auto decoded = Signature::FromBytes(
        std::span<const std::uint8_t>(bytes.data(), bytes.size()));
    ASSERT_TRUE(decoded.has_value());
    // A copy taken before the first ContentId() call sees the cached id.
    const Signature early_copy = *decoded;
    const std::uint64_t id = decoded->ContentId();
    EXPECT_EQ(id, Fnv1a(std::span<const std::uint8_t>(bytes.data(),
                                                      bytes.size())));
    EXPECT_EQ(id, FreshContentId(*decoded));
    EXPECT_EQ(early_copy.ContentId(), id);
    EXPECT_EQ(decoded->ContentId(), id) << "cached value is stable";
    EXPECT_EQ(made.ContentId(), id);
  }
}

TEST(SignatureTest, TakeEntriesMovesOnlyWhenUnshared) {
  Signature sole = SampleSig();
  const SignatureEntry* payload = sole.entries().data();
  const auto moved = std::move(sole).TakeEntries();
  EXPECT_EQ(moved.data(), payload) << "sole owner: entries move out";
  EXPECT_TRUE(sole.empty());  // NOLINT(bugprone-use-after-move)

  Signature shared = SampleSig();
  const Signature keeper = shared;
  auto copied = std::move(shared).TakeEntries();
  EXPECT_NE(copied.data(), keeper.entries().data());
  EXPECT_EQ(copied, keeper.entries());
  copied[0].outer.TrimToDepth(1);
  EXPECT_EQ(keeper, SampleSig()) << "the other owner is untouched";
}

TEST(SignatureTest, EmptySignatureHasNoEntries) {
  const Signature none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.num_threads(), 0u);
  EXPECT_EQ(none.BugKey(), 0u);
  EXPECT_EQ(none.ContentId(), FreshContentId(none));
  EXPECT_EQ(none, Signature(std::vector<SignatureEntry>{}));
}

TEST(SignatureTest, SignatureSizeRoughlyMatchesPaper) {
  // The paper reports ~1.7 KB per signature; ours with realistic stack
  // depths and hashes should be the same order of magnitude.
  Signature s = Sig2(ChainStack("org.app.ModuleAlpha", 14,
                                F("org.app.ModuleAlpha", "acquire", 482)),
                     ChainStack("org.app.ModuleAlpha", 15,
                                F("org.app.ModuleAlpha", "block", 501)),
                     ChainStack("org.app.ModuleBeta", 14,
                                F("org.app.ModuleBeta", "acquire", 233)),
                     ChainStack("org.app.ModuleBeta", 15,
                                F("org.app.ModuleBeta", "block", 250)));
  std::vector<SignatureEntry> entries = s.entries();
  for (auto& e : entries) {
    for (auto* stack : {&e.outer, &e.inner}) {
      for (auto& f : stack->mutable_frames()) {
        f.class_hash = Sha256::Hash(f.class_name);
      }
    }
  }
  s = Signature(std::move(entries));
  const auto bytes = s.ToBytes();
  EXPECT_GT(bytes.size(), 500u);
  EXPECT_LT(bytes.size(), 8'000u);
}

// ---- Merge (§III-D) -----------------------------------------------------

TEST(MergeTest, MergesToLongestCommonSuffixes) {
  const Frame topA = F("a.X", "s1", 10);
  const Frame topAi = F("a.X", "i1", 11);
  const Frame topB = F("a.Y", "s2", 20);
  const Frame topBi = F("a.Y", "i2", 21);
  // Two manifestations: same top frames, different callers below.
  const Signature m1 =
      Sig2(Stack({F("p.Caller1", "run", 1), F("a.X", "mid", 5), topA}),
           Stack({F("p.Caller1", "run", 2), topAi}),
           Stack({F("q.Caller1", "run", 1), topB}),
           Stack({F("q.Caller1", "run", 2), topBi}));
  const Signature m2 =
      Sig2(Stack({F("p.Caller2", "go", 9), F("a.X", "mid", 5), topA}),
           Stack({F("p.Caller2", "go", 8), topAi}),
           Stack({F("q.Caller2", "go", 7), topB}),
           Stack({F("q.Caller2", "go", 6), topBi}));
  const auto merged = Signature::Merge(m1, m2, 0);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->BugKey(), m1.BugKey());
  // Outer stack of the a.X entry: common suffix is [mid, topA].
  bool found = false;
  for (const auto& e : merged->entries()) {
    if (e.outer.TopKey() == topA.location_key) {
      found = true;
      EXPECT_EQ(e.outer.depth(), 2u);
      EXPECT_EQ(e.inner.depth(), 1u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(MergeTest, RefusesDifferentBugs) {
  const auto a = SampleSig(0);
  const auto b = SampleSig(1);  // different lines => different tops
  EXPECT_FALSE(Signature::Merge(a, b, 0).has_value());
}

TEST(MergeTest, RespectsMinOuterDepth) {
  const Frame topA = F("a.X", "s1", 10);
  const Frame topB = F("a.Y", "s2", 20);
  const Frame innA = F("a.X", "i1", 11);
  const Frame innB = F("a.Y", "i2", 21);
  // Only the top outer frame is common => merged outer depth 1.
  const Signature m1 = Sig2(Stack({F("p.C1", "r", 1), topA}),
                            ChainStack("a.X", 6, innA),
                            Stack({F("q.C1", "r", 1), topB}),
                            ChainStack("a.Y", 6, innB));
  const Signature m2 = Sig2(Stack({F("p.C2", "r", 2), topA}),
                            ChainStack("a.X", 6, innA),
                            Stack({F("q.C2", "r", 2), topB}),
                            ChainStack("a.Y", 6, innB));
  EXPECT_FALSE(Signature::Merge(m1, m2, 5).has_value())
      << "remote merges below depth 5 must be refused (anti-DoS)";
  const auto unconstrained = Signature::Merge(m1, m2, 0);
  ASSERT_TRUE(unconstrained.has_value());
  EXPECT_EQ(unconstrained->MinOuterDepth(), 1u);
}

TEST(MergeTest, MergeIsCommutative) {
  const Frame topA = F("a.X", "s1", 10);
  const Frame topB = F("a.Y", "s2", 20);
  const auto mk = [&](const std::string& caller) {
    return Sig2(Stack({F(caller, "r", 1), F("a.X", "mid", 3), topA}),
                ChainStack("a.X", 6, F("a.X", "i1", 11)),
                Stack({F(caller, "r", 2), topB}),
                ChainStack("a.Y", 6, F("a.Y", "i2", 21)));
  };
  const auto ab = Signature::Merge(mk("p.C1"), mk("p.C2"), 0);
  const auto ba = Signature::Merge(mk("p.C2"), mk("p.C1"), 0);
  ASSERT_TRUE(ab.has_value());
  ASSERT_TRUE(ba.has_value());
  EXPECT_EQ(*ab, *ba);
}

TEST(MergeTest, MergeIdempotent) {
  const auto s = SampleSig();
  const auto merged = Signature::Merge(s, s, 0);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(*merged, s);
}

TEST(MergeTest, MergedMatchesBothManifestations) {
  // The generalization must match any flow either original matched.
  const Frame topA = F("a.X", "s1", 10);
  const CallStack flow1 =
      Stack({F("p.C1", "r", 1), F("a.X", "mid", 3), topA});
  const CallStack flow2 =
      Stack({F("p.C2", "r", 9), F("a.X", "mid", 3), topA});
  const Signature m1 = Sig2(flow1, ChainStack("a.X", 4, F("a.X", "i", 11)),
                            ChainStack("a.Y", 4, F("a.Y", "s2", 20)),
                            ChainStack("a.Y", 4, F("a.Y", "i2", 21)));
  const Signature m2 = Sig2(flow2, ChainStack("a.X", 4, F("a.X", "i", 11)),
                            ChainStack("a.Y", 4, F("a.Y", "s2", 20)),
                            ChainStack("a.Y", 4, F("a.Y", "i2", 21)));
  const auto merged = Signature::Merge(m1, m2, 0);
  ASSERT_TRUE(merged.has_value());
  for (const auto& e : merged->entries()) {
    if (e.outer.TopKey() == topA.location_key) {
      EXPECT_TRUE(e.outer.MatchesSuffixOf(flow1));
      EXPECT_TRUE(e.outer.MatchesSuffixOf(flow2));
    }
  }
}

}  // namespace
}  // namespace communix::dimmunix
