#include "routing/audit.hpp"

#include <atomic>

namespace downup::routing {

namespace {

std::atomic<TableAuditHook> g_hook{nullptr};
std::atomic<void*> g_ctx{nullptr};

}  // namespace

void setTableAuditHook(TableAuditHook hook, void* ctx) noexcept {
  // Context first so a racing invoke never pairs the new hook with a stale
  // context (hooks are installed before builds start; this is belt and
  // braces for test teardown).
  if (hook == nullptr) {
    g_hook.store(nullptr, std::memory_order_release);
    g_ctx.store(nullptr, std::memory_order_release);
  } else {
    g_ctx.store(ctx, std::memory_order_release);
    g_hook.store(hook, std::memory_order_release);
  }
}

void clearTableAuditHook(const void* ctx) noexcept {
  if (g_ctx.load(std::memory_order_acquire) != ctx) return;
  setTableAuditHook(nullptr, nullptr);
}

void invokeTableAuditHook(const TurnPermissions& perms,
                          const RoutingTable& table,
                          std::span<const std::uint64_t> channelAlive) noexcept {
  const TableAuditHook hook = g_hook.load(std::memory_order_acquire);
  if (hook == nullptr) return;
  hook(g_ctx.load(std::memory_order_acquire), perms, table, channelAlive);
}

}  // namespace downup::routing
