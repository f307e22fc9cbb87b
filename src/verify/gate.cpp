#include "verify/gate.hpp"

#include <fstream>
#include <optional>

#include "routing/audit.hpp"
#include "topology/topology.hpp"

namespace downup::verify {

using routing::DirectionMap;
using routing::TurnPermissions;
using routing::TurnSet;
using topo::Topology;

TurnPermissions unrestrictedCopy(const TurnPermissions& perms) {
  const Topology& topo = perms.topology();
  DirectionMap dirs(topo.channelCount());
  for (ChannelId c = 0; c < topo.channelCount(); ++c) dirs[c] = perms.dir(c);
  return TurnPermissions(topo, std::move(dirs), TurnSet::allAllowed());
}

namespace {

void buildHookTrampoline(void* ctx, const TurnPermissions& perms,
                         const routing::RoutingTable& table,
                         std::span<const std::uint64_t> channelAlive) {
  auto* gate = static_cast<OracleGate*>(ctx);
  OracleInput input;
  input.perms = &perms;
  input.table = &table;
  // The build mask is bit-packed; the oracle takes bytes.
  std::vector<std::uint8_t> alive;
  if (!channelAlive.empty()) {
    alive.resize(perms.topology().channelCount());
    for (ChannelId c = 0; c < alive.size(); ++c) {
      alive[c] = (channelAlive[c >> 6] >> (c & 63)) & 1u;
    }
    input.channelAlive = alive;
  }
  gate->audit(input, {.point = "table_build"});
}

}  // namespace

OracleGate::~OracleGate() { routing::clearTableAuditHook(this); }

void OracleGate::installBuildHook() {
  routing::setTableAuditHook(&buildHookTrampoline, this);
}

void OracleGate::uninstallBuildHook() {
  routing::setTableAuditHook(nullptr, nullptr);
}

bool OracleGate::audit(const OracleInput& input, const CaseContext& context) {
  if (!options_.enabled) return true;
  audits_.fetch_add(1, std::memory_order_relaxed);

  OracleInput effective = input;
  std::optional<TurnPermissions> planted;
  if (options_.plantViolation) {
    // Audit the corrupted rule: the table (built against the real rule) no
    // longer matches it, so keep only the rule and state layers — the point
    // of planting is to prove the cycle detector and the dump path fire.
    planted.emplace(unrestrictedCopy(*input.perms));
    effective.perms = &*planted;
    effective.table = nullptr;
  }
  if (effective.table != nullptr) {
    effective.deepDistanceCheck =
        effective.deepDistanceCheck ||
        (options_.deepDistanceCheck &&
         effective.perms->topology().channelCount() <= options_.deepMaxChannels);
  }

  const OracleReport report = runOracle(effective);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pointAudits_[context.point];
    if (!report.ok()) lastViolation_ = report;
  }
  if (report.ok()) return true;

  violations_.fetch_add(1, std::memory_order_relaxed);
  dumpCase(effective, report, context);
  return false;
}

void OracleGate::dumpCase(const OracleInput& input, const OracleReport& report,
                          const CaseContext& context) {
  if (options_.dumpPathPrefix.empty()) return;
  const std::uint64_t n = casesDumped_.fetch_add(1, std::memory_order_relaxed);
  if (n >= options_.maxDumpedCases) {
    casesDumped_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  const std::string path =
      options_.dumpPathPrefix + ".case" + std::to_string(n) + ".jsonl";
  std::ofstream out(path);
  if (!out) {
    casesDumped_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  writeReplayCase(out, input, report, context);
  std::lock_guard<std::mutex> lock(mutex_);
  lastCasePath_ = path;
}

std::uint64_t OracleGate::auditsAt(std::string_view point) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = pointAudits_.find(point);
  return it == pointAudits_.end() ? 0 : it->second;
}

std::string OracleGate::lastCasePath() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lastCasePath_;
}

OracleReport OracleGate::lastViolation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lastViolation_;
}

}  // namespace downup::verify
