#include "communix/plugin.hpp"

#include "util/logging.hpp"

namespace communix {

using dimmunix::CallStack;
using dimmunix::Frame;
using dimmunix::Signature;
using dimmunix::SignatureEntry;

CommunixPlugin::CommunixPlugin(dimmunix::DimmunixRuntime& runtime,
                               const bytecode::Program& app,
                               net::ClientTransport& transport,
                               UserToken token, Options options)
    : runtime_(runtime),
      app_(app),
      transport_(transport),
      token_(token),
      options_(std::move(options)) {}

bool CommunixPlugin::SyncHistory() {
  if (options_.history_path.empty()) return false;
  // Version-gated: the history version counts every runtime mutation
  // (each one an index rebuild), so an unchanged version skips both the
  // runtime lock and the copy.
  auto snapshot = runtime_.SnapshotHistoryIfChanged(&last_synced_version_);
  if (!snapshot) {
    Bump(&Stats::history_syncs_skipped);
    return false;
  }
  const Status s = snapshot->SaveToFile(options_.history_path);
  if (!s.ok()) {
    // Roll the cursor back so the next tick retries the save.
    last_synced_version_ = ~std::uint64_t{0};
    CX_LOG(kInfo, "plugin") << "history sync failed: " << s.ToString();
    return false;
  }
  Bump(&Stats::history_syncs);
  return true;
}

std::size_t CommunixPlugin::SyncSuperseded() {
  // Backlog first (ids a failed sync left behind), then the fresh drain.
  std::vector<std::uint64_t> ids = std::move(superseded_backlog_);
  superseded_backlog_.clear();
  for (std::uint64_t id : runtime_.DrainRetiredContentIds()) {
    ids.push_back(id);
  }
  if (ids.empty()) return 0;

  net::MarkSupersededRequest mark;
  mark.token.assign(token_.begin(), token_.end());
  mark.content_ids = ids;
  auto result = transport_.Call(net::BuildMarkSupersededRequest(mark));
  const bool delivered = result.ok() && result.value().ok();
  if (!delivered) {
    // Re-stash: the retirement must eventually reach the server, and the
    // server-side mark is idempotent, so retrying a possibly-delivered
    // frame is safe.
    superseded_backlog_ = std::move(ids);
    Bump(&Stats::transport_failures);
    return 0;
  }
  Bump(&Stats::superseded_synced, mark.content_ids.size());
  if (const auto marked = net::ParseMarkSupersededReply(result.value())) {
    Bump(&Stats::superseded_marked, *marked);
  }
  return mark.content_ids.size();
}

void CommunixPlugin::Install() {
  runtime_.SetNewSignatureCallback([this](const Signature& sig) {
    const Status s = UploadSignature(sig);
    if (!s.ok()) {
      CX_LOG(kInfo, "plugin") << "upload rejected: " << s.ToString();
    }
  });
}

Signature CommunixPlugin::AttachHashes(const Signature& sig) const {
  auto attach = [this](const CallStack& stack) {
    std::vector<Frame> frames = stack.frames();
    for (Frame& f : frames) {
      f.class_hash = app_.ClassHashByName(f.class_name);
    }
    return CallStack(std::move(frames));
  };
  std::vector<SignatureEntry> entries;
  entries.reserve(sig.num_threads());
  for (const SignatureEntry& e : sig.entries()) {
    entries.push_back(SignatureEntry{attach(e.outer), attach(e.inner)});
  }
  return Signature(std::move(entries));
}

Status CommunixPlugin::UploadSignature(const Signature& sig) {
  Bump(&Stats::uploads_attempted);

  const Signature hashed = AttachHashes(sig);
  BinaryWriter w;
  w.WriteRaw(std::span<const std::uint8_t>(token_.data(), token_.size()));
  hashed.Serialize(w);

  net::Request request;
  request.type = net::MsgType::kAddSignature;
  request.payload = w.take();

  auto result = transport_.Call(request);
  if (!result.ok()) {
    Bump(&Stats::transport_failures);
    return result.status();
  }
  const net::Response& resp = result.value();
  if (resp.ok()) {
    Bump(&Stats::uploads_accepted);
    return Status::Ok();
  }
  Bump(&Stats::uploads_rejected);
  return Status::Error(resp.code, resp.error);
}

CommunixPlugin::Stats CommunixPlugin::GetStats() const {
  std::lock_guard lock(stats_mu_);
  return stats_;
}

void CommunixPlugin::Bump(std::uint64_t Stats::*counter, std::uint64_t n) {
  std::lock_guard lock(stats_mu_);
  stats_.*counter += n;
}

}  // namespace communix
