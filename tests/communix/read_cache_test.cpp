// Tests for the read/bootstrap performance tier's hot-read path: the 2Q
// admission cache in isolation (probation, ghost promotion, generation
// invalidation) and the store's ReadSince on top of it — the cached GET
// fast path must stay byte-identical to the cold scan under every
// combination of backend, cache setting, appends, resets and compaction.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "../testutil.hpp"
#include "communix/store/read_cache.hpp"
#include "communix/store/signature_store.hpp"
#include "util/serde.hpp"

namespace communix::store {
namespace {

using dimmunix::Signature;
using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

std::shared_ptr<const CachedSlice> Slice(std::uint64_t from,
                                         std::uint64_t upto) {
  auto s = std::make_shared<CachedSlice>();
  s->from = from;
  s->upto = upto;
  s->count = static_cast<std::uint32_t>(upto - from);
  s->payload = {static_cast<std::uint8_t>(from), static_cast<std::uint8_t>(upto)};
  return s;
}

TEST(ReadCacheTest, MissThenAdmitThenHit) {
  ReadCache cache(8);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  cache.Insert(1, Slice(0, 10));
  const auto hit = cache.Lookup(1, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->upto, 10u);
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.admissions, 1u);
}

TEST(ReadCacheTest, ExtensionReplacesInPlace) {
  ReadCache cache(8);
  cache.Insert(1, Slice(0, 10));
  cache.Insert(1, Slice(0, 25));  // same key, longer slice
  const auto hit = cache.Lookup(1, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->upto, 25u);
  EXPECT_EQ(cache.resident(), 1u);
}

TEST(ReadCacheTest, ShorterSliceNeverReplacesLonger) {
  // A reader with an older view of the log can finish after one with a
  // newer view; its insert must not roll the cached slice back.
  ReadCache cache(8);
  cache.Insert(1, Slice(0, 25));
  cache.Insert(1, Slice(0, 10));
  const auto hit = cache.Lookup(1, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->upto, 25u);
  EXPECT_EQ(hit->count, 25u);
}

TEST(ReadCacheTest, OneShotCursorsWashThroughProbation) {
  // 2Q's reason to exist: a burst of one-off cursors must not evict the
  // hot key. Capacity 8 → A1in holds 2, Am holds 6.
  ReadCache cache(8);
  cache.Insert(1, Slice(0, 10));       // the hot key, in probation
  (void)cache.Lookup(1, 0);            // A1in hit: no promotion yet
  for (std::uint64_t k = 100; k < 102; ++k) {
    cache.Insert(1, Slice(k, k + 1));  // evicts key 0 from A1in -> ghost
  }
  EXPECT_EQ(cache.Lookup(1, 0), nullptr) << "fell out of probation";
  // Re-reference after probation eviction: the ghost queue remembers the
  // key, so the re-insert goes straight to the protected LRU.
  cache.Insert(1, Slice(0, 10));
  EXPECT_EQ(cache.GetStats().promotions, 1u);
  // Now a long burst of one-shot cursors cannot displace it.
  for (std::uint64_t k = 200; k < 240; ++k) {
    cache.Insert(1, Slice(k, k + 1));
  }
  EXPECT_NE(cache.Lookup(1, 0), nullptr)
      << "protected key survived the scan burst";
}

TEST(ReadCacheTest, NewerGenerationDropsEverything) {
  ReadCache cache(8);
  cache.Insert(3, Slice(0, 10));
  ASSERT_NE(cache.Lookup(3, 0), nullptr);
  EXPECT_EQ(cache.Lookup(4, 0), nullptr) << "new generation invalidates";
  EXPECT_EQ(cache.resident(), 0u);
  EXPECT_EQ(cache.GetStats().invalidations, 1u);
  // And the old generation can never resurface or pollute.
  cache.Insert(3, Slice(0, 10));
  EXPECT_EQ(cache.Lookup(4, 0), nullptr);
  EXPECT_EQ(cache.Lookup(3, 0), nullptr) << "stale reader misses cleanly";
}

TEST(ReadCacheTest, ClearDropsResidentsAndGhosts) {
  ReadCache cache(4);
  cache.Insert(1, Slice(0, 10));
  cache.Insert(1, Slice(5, 10));
  cache.Clear();
  EXPECT_EQ(cache.resident(), 0u);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
}

// ---- the store's ReadSince fast path over the cache ----

class ReadSinceTest : public ::testing::TestWithParam<Backend> {
 protected:
  std::unique_ptr<SignatureStore> Make(std::size_t slices = 64) const {
    StoreOptions opts;
    opts.backend = GetParam();
    opts.user_shards = 4;
    opts.dedup_shards = 4;
    opts.read_cache_slices = slices;
    return SignatureStore::Create(opts);
  }

  static Signature MakeSig(std::uint32_t salt) {
    return Sig2(ChainStack("rc.A", 6, F("rc.A", "s1", 100 + salt)),
                ChainStack("rc.A", 6, F("rc.A", "i1", 9100 + salt)),
                ChainStack("rc.B", 6, F("rc.B", "s2", 20300 + salt)),
                ChainStack("rc.B", 6, F("rc.B", "i2", 31400 + salt)));
  }

  void Add(SignatureStore& store, std::uint32_t salt) {
    const Signature sig = MakeSig(salt);
    ASSERT_EQ(store.Add(1 + salt % 5, 0, TopFrameSet(sig), sig.ContentId(),
                        sig, 0, limits_),
              AddOutcome::kAccepted);
  }

  ReadSinceTest() { limits_.per_user_daily_limit = 1u << 20; }

  Limits limits_;
};

TEST_P(ReadSinceTest, CachedAndColdRepliesAreByteIdentical) {
  auto cached = Make(64);
  auto cold = Make(0);
  for (std::uint32_t i = 0; i < 40; ++i) {
    Add(*cached, i);
    Add(*cold, i);
  }
  for (const std::uint64_t from : {0u, 1u, 17u, 39u, 40u, 99u}) {
    SignatureStore::ReadPath cpath{}, kpath{};
    const auto a = cached->ReadSince(from, &cpath);  // cold fill
    const auto b = cached->ReadSince(from, &cpath);  // served from cache
    const auto c = cold->ReadSince(from, &kpath);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(a->payload, c->payload) << "from=" << from;
    EXPECT_EQ(b->payload, c->payload) << "from=" << from;
    EXPECT_EQ(b->count, c->count);
    if (from < 40) {
      EXPECT_EQ(cpath, SignatureStore::ReadPath::kCacheHit);
      EXPECT_EQ(kpath, SignatureStore::ReadPath::kColdScan);
    }
  }
}

TEST_P(ReadSinceTest, ExtensionScansOnlyTheSuffix) {
  auto store = Make();
  for (std::uint32_t i = 0; i < 10; ++i) Add(*store, i);
  SignatureStore::ReadPath path{};
  const auto first = store->ReadSince(0, &path);
  EXPECT_EQ(path, SignatureStore::ReadPath::kColdScan);
  ASSERT_EQ(first->count, 10u);

  for (std::uint32_t i = 10; i < 14; ++i) Add(*store, i);
  const auto extended = store->ReadSince(0, &path);
  EXPECT_EQ(path, SignatureStore::ReadPath::kCacheExtend)
      << "append must not force a full rescan";
  ASSERT_EQ(extended->count, 14u);
  // The extension's prefix is the first slice's bytes, verbatim.
  ASSERT_GE(extended->payload.size(), first->payload.size());
  EXPECT_TRUE(std::equal(first->payload.begin(), first->payload.end(),
                         extended->payload.begin()));
  // And the whole thing matches a cold scan.
  auto cold = Make(0);
  for (std::uint32_t i = 0; i < 14; ++i) Add(*cold, i);
  EXPECT_EQ(extended->payload, cold->ReadSince(0)->payload);
}

TEST_P(ReadSinceTest, HotCursorHitRateIsHigh) {
  // The acceptance bar: >= 90% hits on a repeat-read workload.
  auto store = Make();
  for (std::uint32_t i = 0; i < 50; ++i) Add(*store, i);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(store->ReadSince(0)->count, 50u);
  }
  const auto stats = store->read_cache_stats();
  const double hit_rate =
      static_cast<double>(stats.hits) / (stats.hits + stats.misses);
  EXPECT_GE(hit_rate, 0.9) << "hits=" << stats.hits
                           << " misses=" << stats.misses;
}

TEST_P(ReadSinceTest, EmptyCursorPollsBypassTheCache) {
  auto store = Make();
  for (std::uint32_t i = 0; i < 3; ++i) Add(*store, i);
  const auto before = store->read_cache_stats();
  SignatureStore::ReadPath path{};
  const auto slice = store->ReadSince(3, &path);  // from == size
  EXPECT_EQ(slice->count, 0u);
  EXPECT_EQ(path, SignatureStore::ReadPath::kCacheHit) << "zero scan work";
  const auto after = store->read_cache_stats();
  EXPECT_EQ(after.misses, before.misses) << "no stats pollution";
}

TEST_P(ReadSinceTest, GenerationBumpsInvalidateAcrossLogSwaps) {
  auto store = Make();
  for (std::uint32_t i = 0; i < 8; ++i) Add(*store, i);
  const std::uint64_t gen0 = store->read_generation();
  ASSERT_EQ(store->ReadSince(0)->count, 8u);  // fill the cache

  // A lineage reset swaps the log: the generation must move and the old
  // slice must never be served again.
  store->ResetForReplication(4242);
  EXPECT_NE(store->read_generation(), gen0);
  SignatureStore::ReadPath path{};
  EXPECT_EQ(store->ReadSince(0, &path)->count, 0u);

  for (std::uint32_t i = 100; i < 103; ++i) Add(*store, i);
  const auto fresh = store->ReadSince(0);
  EXPECT_EQ(fresh->count, 3u) << "post-swap reads see only the new log";
}

TEST_P(ReadSinceTest, CompactInvalidatesAndRepliesStayConsistent) {
  auto store = Make();
  for (std::uint32_t i = 0; i < 12; ++i) Add(*store, i);
  ASSERT_EQ(store->ReadSince(0)->count, 12u);
  const std::uint64_t gen_before = store->read_generation();
  const std::uint64_t epoch_before = store->epoch();

  ASSERT_TRUE(store->MarkSuperseded(3));
  ASSERT_TRUE(store->MarkSuperseded(7));
  // Marks alone must not disturb cursors or the cache generation.
  EXPECT_EQ(store->ReadSince(0)->count, 12u);
  EXPECT_EQ(store->read_generation(), gen_before);

  EXPECT_EQ(store->Compact(), 2u);
  EXPECT_NE(store->read_generation(), gen_before);
  EXPECT_NE(store->epoch(), epoch_before) << "compaction is a new lineage";
  EXPECT_EQ(store->ReadSince(0)->count, 10u);
  // Cached and cold agree on the compacted log too.
  EXPECT_EQ(store->ReadSince(0)->payload, store->ReadSince(0)->payload);
}

/// Entries actually carried by a slice's payload.
std::uint32_t PayloadEntries(const CachedSlice& slice) {
  BinaryReader r(std::span<const std::uint8_t>(slice.payload.data(),
                                               slice.payload.size()));
  std::uint32_t n = 0;
  while (!r.AtEnd()) {
    r.ReadBytes();
    if (!r.ok()) return ~0u;
    ++n;
  }
  return n;
}

TEST_P(ReadSinceTest, StaleSnapshotNeverShipsAMismatchedCount) {
  // Poll A fixes its view of the log (10 entries); before it consults the
  // cache, an ADD lands and poll B caches the 11-entry slice for the same
  // cursor. A must not extend B's slice "up to 10" (a reply whose count
  // says 10 over an 11-entry payload), and the cache must end up holding
  // the 11-entry slice. The sharded backend reads lock-free, so the hook
  // runs B to completion inside A; the monolithic one holds its read lock
  // across A, so B's ADD waits until A is done.
  std::unique_ptr<SignatureStore> store;
  std::thread poll_b;
  std::atomic<bool> fired{false};
  StoreOptions opts;
  opts.backend = GetParam();
  opts.user_shards = 4;
  opts.dedup_shards = 4;
  opts.read_snapshot_hook_for_test = [&] {
    if (fired.exchange(true)) return;
    poll_b = std::thread([&] {
      Add(*store, 10);
      const auto b = store->ReadSince(0);
      EXPECT_EQ(b->count, 11u);
      EXPECT_EQ(PayloadEntries(*b), b->count);
    });
    if (GetParam() == Backend::kSharded) poll_b.join();
  };
  store = SignatureStore::Create(opts);
  for (std::uint32_t i = 0; i < 10; ++i) Add(*store, i);

  const auto a = store->ReadSince(0);
  if (poll_b.joinable()) poll_b.join();
  ASSERT_TRUE(fired.load());
  EXPECT_EQ(PayloadEntries(*a), a->count);
  EXPECT_EQ(a->upto - a->from, a->count);
  EXPECT_EQ(a->count, GetParam() == Backend::kSharded ? 11u : 10u);

  SignatureStore::ReadPath path{};
  const auto next = store->ReadSince(0, &path);
  EXPECT_EQ(path, SignatureStore::ReadPath::kCacheHit);
  ASSERT_EQ(next->count, 11u);
  auto cold = Make(0);
  for (std::uint32_t i = 0; i <= 10; ++i) Add(*cold, i);
  EXPECT_EQ(next->payload, cold->ReadSince(0)->payload);
}

TEST_P(ReadSinceTest, ConcurrentReadersAndWritersStayCoherent) {
  // Hammer ReadSince while ADDs land: every reply must be internally
  // consistent (count parses against payload) and a prefix of the final
  // cold scan. Run under TSAN via the communix test binary.
  auto store = Make();
  for (std::uint32_t i = 0; i < 4; ++i) Add(*store, i);
  std::atomic<bool> stop{false};
  std::vector<std::shared_ptr<const CachedSlice>> seen;
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto slice = store->ReadSince(0);
      if (slice && slice->count > 0) seen.push_back(std::move(slice));
    }
  });
  for (std::uint32_t i = 4; i < 120; ++i) Add(*store, i);
  stop.store(true, std::memory_order_release);
  reader.join();

  const auto final_slice = store->ReadSince(0);
  ASSERT_EQ(final_slice->count, 120u);
  for (const auto& slice : seen) {
    ASSERT_LE(slice->payload.size(), final_slice->payload.size());
    EXPECT_TRUE(std::equal(slice->payload.begin(), slice->payload.end(),
                           final_slice->payload.begin()))
        << "mid-flight reply was not a prefix of the final log";
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ReadSinceTest,
                         ::testing::Values(Backend::kSharded,
                                           Backend::kMonolithic),
                         [](const auto& info) {
                           return info.param == Backend::kSharded
                                      ? "Sharded"
                                      : "Monolithic";
                         });

}  // namespace
}  // namespace communix::store
