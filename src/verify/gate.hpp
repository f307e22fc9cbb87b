// OracleGate: the opt-in enforcement wrapper around runOracle().
//
// One gate instance is shared by every audit point in a process — the
// RoutingTable::build hook, every FabricManager epoch publish and the
// simulator's mid-reconfiguration snapshots.  The gate serialises audits behind a mutex (table builds can
// run concurrently inside sweeps), counts verdicts per audit point, and on
// a violation dumps a replayable oracle_case/1 JSONL witness
// (verify/replay.hpp).  It never mutates the audited structures, draws no
// RNG and never blocks a publish: enforcement is the caller's job (benches
// exit nonzero, the fabric records a kOracleViolation anomaly), so
// simulation determinism is preserved even under a failing gate.
//
// `plantViolation` is the built-in fault injection: instead of the real
// rule the gate audits an unrestricted copy (every turn allowed, blocks
// dropped) which has a cyclic dependency graph on any topology containing
// an undirected cycle.  CI uses it to prove the gate actually fires.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "verify/replay.hpp"

namespace downup::verify {

/// A copy of `perms` with every turn allowed and every per-node block
/// dropped (releases become irrelevant).  On any topology with an
/// undirected cycle the result has a cyclic CDG — a genuine planted
/// violation with a real witness, not a synthetic report.
routing::TurnPermissions unrestrictedCopy(const routing::TurnPermissions& perms);

class OracleGate {
 public:
  struct Options {
    bool enabled = true;
    /// Run the forward-BFS distance cross-check when a table is supplied
    /// and the topology has at most `deepMaxChannels` channels (the check
    /// is O(nodes x channels)).
    bool deepDistanceCheck = true;
    std::uint32_t deepMaxChannels = 8192;
    /// When non-empty, violations dump to `<prefix>.case<N>.jsonl`.
    std::string dumpPathPrefix;
    std::uint32_t maxDumpedCases = 8;
    /// Fault injection: audit an unrestricted copy of each rule instead of
    /// the rule itself (see unrestrictedCopy).
    bool plantViolation = false;
  };

  explicit OracleGate(Options options) : options_(std::move(options)) {}
  OracleGate() : OracleGate(Options{}) {}

  OracleGate(const OracleGate&) = delete;
  OracleGate& operator=(const OracleGate&) = delete;
  ~OracleGate();

  /// Audits one snapshot; true = clean.  Thread-safe; read-only on the
  /// audited structures; disabled gates return true without running.
  bool audit(const OracleInput& input, const CaseContext& context);

  /// Installs this gate as the global RoutingTable::build audit hook
  /// (routing/audit.hpp); every table construction in the process is then
  /// audited at point "table_build".  The destructor uninstalls the hook
  /// while it is still this gate's; other gates' destructors leave it.
  void installBuildHook();
  static void uninstallBuildHook();

  bool enabled() const noexcept { return options_.enabled; }
  std::uint64_t audits() const noexcept {
    return audits_.load(std::memory_order_relaxed);
  }
  std::uint64_t violations() const noexcept {
    return violations_.load(std::memory_order_relaxed);
  }
  std::uint64_t casesDumped() const noexcept {
    return casesDumped_.load(std::memory_order_relaxed);
  }
  /// Audits observed at one audit point ("table_build", "epoch_publish",
  /// "mid_reconfig_quarantine", ...).
  std::uint64_t auditsAt(std::string_view point) const;
  std::string lastCasePath() const;
  /// The last violating report (empty-default when none).
  OracleReport lastViolation() const;

 private:
  void dumpCase(const OracleInput& input, const OracleReport& report,
                const CaseContext& context);

  Options options_;
  mutable std::mutex mutex_;
  std::map<std::string, std::uint64_t, std::less<>> pointAudits_;
  std::string lastCasePath_;
  OracleReport lastViolation_;
  std::atomic<std::uint64_t> audits_{0};
  std::atomic<std::uint64_t> violations_{0};
  std::atomic<std::uint64_t> casesDumped_{0};
};

}  // namespace downup::verify
