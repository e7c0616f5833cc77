// Shared signature payloads on the agent's install path: content ids
// computed concurrently on copies of one signature while an install runs
// (a TSAN target, see tools/ci.sh --tsan), and validation that trims its
// own signature without touching other owners of the payload.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "bytecode/synthetic.hpp"
#include "communix/agent.hpp"
#include "sim/attacker.hpp"
#include "util/clock.hpp"
#include "util/fnv.hpp"
#include "util/sha256.hpp"

namespace communix {
namespace {

using bytecode::GenerateApp;
using bytecode::SyntheticApp;
using bytecode::SyntheticSpec;
using dimmunix::DimmunixRuntime;
using dimmunix::Signature;
using dimmunix::SignatureEntry;
using sim::MakeCriticalPathSignature;

SyntheticApp ShareApp() {
  SyntheticSpec spec;
  spec.name = "shareapp";
  spec.target_loc = 10'000;
  spec.sync_blocks = 30;
  spec.analyzable_sync_blocks = 22;
  spec.nested_sync_blocks = 8;
  spec.sync_helpers = 2;
  spec.classes = 6;
  spec.driver_chain_length = 8;
  spec.seed = 11;
  return GenerateApp(spec);
}

/// Every ordered pair of distinct nested sites, at the given depth.
std::vector<Signature> NestedPairSignatures(const SyntheticApp& app,
                                            std::size_t depth) {
  std::vector<Signature> out;
  for (std::size_t a = 0; a < app.nested_sites.size(); ++a) {
    for (std::size_t b = 0; b < app.nested_sites.size(); ++b) {
      if (a == b) continue;
      out.push_back(MakeCriticalPathSignature(app, app.nested_sites[a],
                                              app.nested_sites[b], depth));
    }
  }
  return out;
}

std::uint64_t FreshContentId(const std::vector<std::uint8_t>& bytes) {
  return Fnv1a(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
}

TEST(SignatureSharingTest, ContentIdRacesAgentInstall) {
  const SyntheticApp app = ShareApp();
  VirtualClock clock;
  DimmunixRuntime runtime(clock);
  LocalRepository repo;
  CommunixAgent agent(runtime, app.program, repo);

  // The repository the agent installs from, and a second batch of
  // freshly decoded signatures whose content ids nobody has computed.
  for (const Signature& s : NestedPairSignatures(app, 6)) {
    repo.Append({s.ToBytes()});
  }
  std::vector<Signature> fresh;
  std::vector<std::uint64_t> expected;
  for (const Signature& s : NestedPairSignatures(app, 7)) {
    const auto bytes = s.ToBytes();
    auto decoded = Signature::FromBytes(
        std::span<const std::uint8_t>(bytes.data(), bytes.size()));
    ASSERT_TRUE(decoded.has_value());
    fresh.push_back(std::move(*decoded));
    expected.push_back(FreshContentId(bytes));
  }
  ASSERT_GE(fresh.size(), 8u);

  // Four readers hash their own copies of the fresh signatures (racing
  // each other for the first computation) while the main thread installs
  // the repository and then adds the very same payloads to the runtime.
  constexpr int kReaders = 4;
  std::atomic<bool> go{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, copies = fresh, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int round = 0; round < 50; ++round) {
        for (std::size_t k = 0; k < copies.size(); ++k) {
          const std::size_t i = (k + static_cast<std::size_t>(t) * 7) %
                                copies.size();
          const Signature again = copies[i];
          if (again.ContentId() != expected[i] ||
              copies[i].ContentId() != expected[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  const auto report = agent.ProcessNewSignatures();
  for (const Signature& s : fresh) {
    runtime.AddSignature(s, dimmunix::SignatureOrigin::kRemote);
  }
  for (auto& r : readers) r.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(report.accepted, 0u);
  const auto history = runtime.SnapshotHistory();
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(fresh[i].ContentId(), expected[i]);
    EXPECT_TRUE(history.ContainsContent(expected[i]));
  }
}

TEST(SignatureSharingTest, ValidateAndTrimLeavesOtherOwnersIntact) {
  const SyntheticApp app = ShareApp();
  VirtualClock clock;
  DimmunixRuntime runtime(clock);
  LocalRepository repo;
  CommunixAgent agent(runtime, app.program, repo);
  const Signature valid = MakeCriticalPathSignature(
      app, app.nested_sites[0], app.nested_sites[1], 6);

  // Fully matching: nothing to trim, so the payload is kept as is.
  Signature untouched = valid;
  ASSERT_EQ(agent.ValidateAndTrim(untouched),
            CommunixAgent::Verdict::kValid);
  EXPECT_EQ(&untouched.entries(), &valid.entries());

  // A corrupt bottom frame: the validated signature is trimmed, the
  // other owner of the original payload is not.
  std::vector<SignatureEntry> entries = valid.entries();
  entries[0].outer.mutable_frames()[0].class_hash = Sha256::Hash("junk");
  const Signature corrupt(std::move(entries));
  const auto corrupt_bytes = corrupt.ToBytes();
  Signature trimmed = corrupt;
  ASSERT_EQ(agent.ValidateAndTrim(trimmed), CommunixAgent::Verdict::kValid);
  EXPECT_NE(trimmed, corrupt);
  EXPECT_EQ(trimmed.BugKey(), corrupt.BugKey());
  EXPECT_EQ(corrupt.ToBytes(), corrupt_bytes);
  EXPECT_EQ(trimmed.ContentId(), FreshContentId(trimmed.ToBytes()));

  // A top-frame mismatch rejects and leaves the signature as it was.
  entries = valid.entries();
  entries[1].inner.mutable_frames().back().class_hash = Sha256::Hash("x");
  Signature rejected(std::move(entries));
  const auto* payload = &rejected.entries();
  EXPECT_EQ(agent.ValidateAndTrim(rejected),
            CommunixAgent::Verdict::kRejectedHash);
  EXPECT_EQ(&rejected.entries(), payload);
}

}  // namespace
}  // namespace communix
