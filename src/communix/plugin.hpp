// Communix plugin (§III-A, §III-B).
//
// Runs on top of Dimmunix inside the application. When Dimmunix produces
// a new deadlock signature, the plugin (1) attaches to every call-stack
// frame the hash of the bytecode of the class containing that frame and
// (2) uploads the signature to the Communix server with the user's
// encrypted id. It also persists the runtime's history periodically;
// the sync is gated on the runtime's lock-free history version counter,
// so the periodic tick costs one atomic load — no runtime lock, no deep
// copy — whenever nothing changed.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "bytecode/program.hpp"
#include "communix/ids.hpp"
#include "dimmunix/runtime.hpp"
#include "net/message.hpp"

namespace communix {

class CommunixPlugin {
 public:
  struct Options {
    /// Where SyncHistory persists the runtime's history; empty disables
    /// persistence (SyncHistory becomes a no-op).
    std::string history_path;
  };

  CommunixPlugin(dimmunix::DimmunixRuntime& runtime,
                 const bytecode::Program& app, net::ClientTransport& transport,
                 UserToken token, Options options = {});

  /// Registers the upload hook on the runtime's new-signature callback.
  void Install();

  /// Periodic history persistence tick. Copies and saves the history to
  /// `options.history_path` only if its version moved since the last
  /// sync; otherwise returns false without stalling the runtime.
  bool SyncHistory();

  /// Returns a copy of `sig` with per-frame class-bytecode hashes attached
  /// (frames whose class is unknown to the app keep no hash; the
  /// receiving agent will trim them during validation).
  dimmunix::Signature AttachHashes(const dimmunix::Signature& sig) const;

  /// Synchronous upload (hook calls this; also usable directly).
  Status UploadSignature(const dimmunix::Signature& sig);

  /// Ships every content id the runtime retired since the last sync
  /// (generalization replaces, FP auto-disables) to the server in ONE
  /// kMarkSuperseded frame — one store pass per agent sync instead of a
  /// round trip per retirement. Returns the number of ids shipped; on
  /// transport failure the ids are re-stashed for the next tick, so no
  /// retirement is silently dropped. A tick with nothing to retire costs
  /// one runtime-lock drain and no wire traffic.
  std::size_t SyncSuperseded();

  struct Stats {
    std::uint64_t uploads_attempted = 0;
    std::uint64_t uploads_accepted = 0;
    std::uint64_t uploads_rejected = 0;
    std::uint64_t transport_failures = 0;
    std::uint64_t history_syncs = 0;          // SyncHistory calls that saved
    std::uint64_t history_syncs_skipped = 0;  // ticks with unchanged version
    std::uint64_t superseded_synced = 0;   // retired ids shipped to server
    std::uint64_t superseded_marked = 0;   // entries the server reported
                                           // newly marked across syncs
  };
  Stats GetStats() const;

 private:
  dimmunix::DimmunixRuntime& runtime_;
  const bytecode::Program& app_;
  net::ClientTransport& transport_;
  const UserToken token_;
  const Options options_;

  void Bump(std::uint64_t Stats::*counter, std::uint64_t n = 1);

  mutable std::mutex stats_mu_;
  Stats stats_;  // guarded by stats_mu_
  /// Retired ids a failed SyncSuperseded left behind (retried first on
  /// the next tick, ahead of newly drained ids).
  std::vector<std::uint64_t> superseded_backlog_;
  /// History version captured by the last successful SyncHistory; the
  /// sentinel forces the first tick to persist even an empty history.
  std::uint64_t last_synced_version_ = ~std::uint64_t{0};
};

}  // namespace communix
