// Communix agent (§III-A, §III-C1, §III-C3, §III-D).
//
// Runs inside the Java application's address space together with
// Dimmunix. At application start it inspects the *new* signatures in the
// local repository and, for each one:
//
//  1. Hash check. Every call stack carries per-frame class-bytecode
//     hashes. Starting from the top frame: if the top frame's hash does
//     not match the running application, the signature is rejected;
//     otherwise the longest matching suffix is kept (frames below the
//     first mismatch are dropped). Inner stacks are checked too, even
//     though avoidance does not use them: a version change between the
//     outer and inner lock statements may have fixed the bug (§III-C3).
//
//  2. Depth check. Outer call stacks shallower than `min_outer_depth`
//     (default 5) are rejected — shallow stacks over-generalize and are
//     the lever of performance-DoS attacks (§III-C1).
//
//  3. Nesting check. Each outer stack must end in a *nested* synchronized
//     block/method, per the precomputed static analysis. This caps the
//     number of acceptable fake signatures at the number of nested sync
//     sites in the application (§III-C1). Signatures that fail only this
//     check are re-examined when new classes are loaded (§III-C3).
//
// Valid signatures are then *generalized*: if the history has a signature
// of the same deadlock bug, the two are merged into their longest common
// call-stack suffixes; merges involving a remote signature must keep
// outer depth >= 5. Unmergeable signatures are added as new bugs (§III-D).
#pragma once

#include <cstdint>
#include <unordered_set>

#include "bytecode/nesting.hpp"
#include "bytecode/program.hpp"
#include "communix/repository.hpp"
#include "dimmunix/runtime.hpp"

namespace communix {

class CommunixAgent {
 public:
  struct Options {
    std::size_t min_outer_depth = 5;
    /// Disable individual checks for ablation experiments.
    bool hash_check_enabled = true;
    bool depth_check_enabled = true;
    bool nesting_check_enabled = true;
  };

  /// Construction performs the (expensive) nesting pre-analysis, which
  /// the paper runs at first application shutdown; Table I reports its
  /// cost separately. Use the other constructor to inject a precomputed
  /// report.
  CommunixAgent(dimmunix::DimmunixRuntime& runtime,
                const bytecode::Program& app, LocalRepository& repo)
      : CommunixAgent(runtime, app, repo, Options{}) {}
  CommunixAgent(dimmunix::DimmunixRuntime& runtime,
                const bytecode::Program& app, LocalRepository& repo,
                Options options);
  CommunixAgent(dimmunix::DimmunixRuntime& runtime,
                const bytecode::Program& app, LocalRepository& repo,
                bytecode::NestingReport nesting, Options options);

  /// Validation outcome for one signature.
  enum class Verdict {
    kValid,
    kRejectedMalformed,
    kRejectedHash,
    kRejectedDepth,
    kRejectedNesting,
  };

  /// Validates `sig` against the running application; on success the
  /// stacks may have been trimmed to their hash-matching suffixes.
  Verdict ValidateAndTrim(dimmunix::Signature& sig) const;

  struct ScanReport {
    std::size_t examined = 0;
    std::size_t accepted = 0;
    std::size_t merged = 0;    // generalized into an existing signature
    std::size_t added = 0;     // new deadlock bug
    std::size_t rejected_malformed = 0;
    std::size_t rejected_hash = 0;
    std::size_t rejected_depth = 0;
    std::size_t rejected_nesting = 0;
  };

  /// Application-start pass: inspect repository signatures in state kNew.
  ScanReport ProcessNewSignatures();

  /// New classes were loaded: re-examine signatures that previously
  /// failed *only* the nesting check (adding classes can only uncover
  /// more nested sites, §III-C3). Pass the refreshed nesting report.
  ScanReport RecheckNestingRejected(const bytecode::NestingReport& updated);

  const bytecode::NestingReport& nesting_report() const { return nesting_; }

 private:
  ScanReport ProcessState(SigState state);

  /// Depth of the longest hash-matching suffix of `stack`; 0 => top frame
  /// mismatched (reject).
  std::size_t MatchingSuffixDepth(const dimmunix::CallStack& stack) const;

  bool OuterTopsAreNested(const dimmunix::Signature& sig) const;

  /// Installs a batch of validated signatures under ONE runtime history
  /// mutation (one avoidance-index republish), counting merges/adds into
  /// `report`. Signatures are applied in order, so later batch members
  /// can merge into earlier ones exactly as sequential installs would.
  void InstallBatch(std::vector<dimmunix::Signature> sigs, ScanReport* report);

  void RebuildNestedKeySet();

  dimmunix::DimmunixRuntime& runtime_;
  const bytecode::Program& app_;
  LocalRepository& repo_;
  const Options options_;
  bytecode::NestingReport nesting_;
  /// Frame location keys (class.method:line) of nested monitorenter sites.
  std::unordered_set<std::uint64_t> nested_frame_keys_;
};

}  // namespace communix
