// The output checkers catch corrupted poll replies and wrong ADD outcomes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "checks.hpp"
#include "inputs.hpp"
#include "net/message.hpp"
#include "obs/snapshot_io.hpp"
#include "report.hpp"
#include "util/serde.hpp"

namespace perfbench {
namespace {

using communix::ErrorCode;

std::vector<std::vector<std::uint8_t>> Log(std::size_t n) {
  std::vector<std::vector<std::uint8_t>> entries;
  for (std::size_t i = 0; i < n; ++i) {
    entries.push_back(FleetSignature(1, i).ToBytes());
  }
  return entries;
}

/// The serialized Response a server sends for GET(from) over `log`.
std::vector<std::uint8_t> GetReplyBody(
    const std::vector<std::vector<std::uint8_t>>& log, std::size_t from) {
  communix::BinaryWriter w;
  w.WriteU32(static_cast<std::uint32_t>(log.size() - from));
  for (std::size_t i = from; i < log.size(); ++i) w.WriteBytes(log[i]);
  communix::net::Response resp;
  resp.payload = w.take();
  return resp.Serialize();
}

PollRecord RecordOf(std::uint64_t from, const std::vector<std::uint8_t>& body) {
  const auto rep = ParseGetReply(body);
  EXPECT_TRUE(rep.has_value());
  if (!rep) return {};
  return PollRecord{from, rep->count, Digest(rep->region)};
}

TEST(PollChecker, AcceptsAnIntactReply) {
  const auto log = Log(12);
  LogReference ref(log);
  const auto body = GetReplyBody(log, 4);
  const PollRecord rec = RecordOf(4, body);
  EXPECT_EQ(rec.count, 8u);
  EXPECT_TRUE(ref.Matches(rec));
  const auto rep = ParseGetReply(body);
  EXPECT_TRUE(ref.MatchesBytes(4, rep->count, rep->region));
}

TEST(PollChecker, CatchesACorruptedEntryByte) {
  const auto log = Log(12);
  LogReference ref(log);
  auto body = GetReplyBody(log, 4);
  body[body.size() - 100] ^= 0x01;  // inside the last entry's bytes
  const auto rep = ParseGetReply(body);
  ASSERT_TRUE(rep.has_value());  // framing still valid
  EXPECT_FALSE(ref.Matches(PollRecord{4, rep->count, Digest(rep->region)}));
  EXPECT_FALSE(ref.MatchesBytes(4, rep->count, rep->region));
}

TEST(PollChecker, CatchesBrokenFraming) {
  const auto log = Log(6);
  auto body = GetReplyBody(log, 0);
  // The response's payload starts after code (1) + error length (4) +
  // payload length (4); then count (4) and the first entry's length.
  body[1 + 4 + 4 + 4] ^= 0x40;
  EXPECT_FALSE(ParseGetReply(body).has_value());
  auto truncated = GetReplyBody(log, 0);
  truncated.pop_back();
  EXPECT_FALSE(ParseGetReply(truncated).has_value());
}

TEST(PollChecker, CatchesEntriesFromTheWrongCursor) {
  const auto log = Log(12);
  LogReference ref(log);
  const auto body = GetReplyBody(log, 5);
  const auto rep = ParseGetReply(body);
  // The same bytes claimed for cursor 4 (one entry missing at the front)
  // or past the end of the log do not match.
  EXPECT_FALSE(ref.Matches(PollRecord{4, rep->count, Digest(rep->region)}));
  EXPECT_FALSE(ref.Matches(PollRecord{6, rep->count, Digest(rep->region)}));
  EXPECT_FALSE(ref.Matches(PollRecord{5, rep->count + 1, Digest(rep->region)}));
}

TEST(AddChecker, CatchesAWrongOutcome) {
  communix::net::Response resp;
  resp.code = ErrorCode::kOk;
  const auto ok = resp.Serialize();
  EXPECT_TRUE(AddReplyMatches(ok, ErrorCode::kOk));
  // A duplicate the server accepted, or a forged token it let through.
  EXPECT_FALSE(AddReplyMatches(ok, ErrorCode::kAlreadyExists));
  EXPECT_FALSE(AddReplyMatches(ok, ErrorCode::kPermissionDenied));
  resp.code = ErrorCode::kResourceExhausted;
  resp.error = "daily signature quota exceeded";
  const auto quota = resp.Serialize();
  EXPECT_TRUE(AddReplyMatches(quota, ErrorCode::kResourceExhausted));
  EXPECT_FALSE(AddReplyMatches(quota, ErrorCode::kOk));
  std::vector<std::uint8_t> garbage = {0x00, 0xff};
  EXPECT_FALSE(AddReplyMatches(garbage, ErrorCode::kOk));
}

/// Saved component snapshots use the snapshot_io JSON format, so the
/// offline tools (sig_inspect stats) can re-render them.
TEST(Snapshots, SavedFilesParseBackWithSnapshotIo) {
  communix::obs::MetricsRegistry reg;
  reg.GetCounter("server.adds_accepted")->Add(3);
  reg.GetHistogram("server.get.cache_hit_ns")->Report(700);
  ASSERT_TRUE(SaveSnapshot(".", "snapshot_test", reg));
  std::ifstream in("snapshot_test.metrics.json");
  std::stringstream text;
  text << in.rdbuf();
  std::remove("snapshot_test.metrics.json");
  const auto snap = communix::obs::SnapshotFromJson(text.str());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->Value("server.adds_accepted"), 3u);
  ASSERT_NE(snap->FindHistogram("server.get.cache_hit_ns"), nullptr);
  EXPECT_NE(communix::obs::RenderSnapshotText(*snap).find("adds_accepted"),
            std::string::npos);
}

}  // namespace
}  // namespace perfbench
