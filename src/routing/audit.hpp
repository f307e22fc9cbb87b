// Process-global audit hook for routing-table construction.
//
// The verify subsystem (src/verify/) wants to observe every table the
// process ever builds, but routing cannot link verify (verify sits above
// routing in the dependency DAG).  The seam is a single global function
// pointer: RoutingTable::build and rebuildDead invoke it — when installed —
// with the finished table, the rule it was built against and the alive
// mask.  The hook must be read-only on its arguments and must not build
// tables itself.  Installation is not synchronised with concurrent builds:
// install before construction starts (the observer contract every other
// hook in this repo follows).
#pragma once

#include <cstdint>
#include <span>

namespace downup::routing {

class RoutingTable;
class TurnPermissions;

using TableAuditHook = void (*)(void* ctx, const TurnPermissions& perms,
                                const RoutingTable& table,
                                std::span<const std::uint64_t> channelAlive);

/// Installs (or with nullptr clears) the global hook.
void setTableAuditHook(TableAuditHook hook, void* ctx) noexcept;

/// Clears the global hook only while `ctx` is its installed context, so an
/// owner never removes a hook someone else installed.
void clearTableAuditHook(const void* ctx) noexcept;

/// Invoked by RoutingTable::build / rebuildDead; no-op when unset.
void invokeTableAuditHook(const TurnPermissions& perms,
                          const RoutingTable& table,
                          std::span<const std::uint64_t> channelAlive) noexcept;

}  // namespace downup::routing
