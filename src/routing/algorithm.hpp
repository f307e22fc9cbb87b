// A Routing bundles a named turn-permission assignment with its routing
// table.  TurnPermissions lives behind a unique_ptr so the table's internal
// reference stays valid when a Routing is moved.  The Topology (and, for the
// classifiers, the spanning tree) must outlive the Routing.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "routing/routing_table.hpp"

namespace downup::routing {

class Routing {
 public:
  /// `pool` (optional) parallelises the table build; output is identical
  /// at any thread count.  `spans` (optional) records the table-build
  /// stage spans.  Neither pointer is retained.
  Routing(std::string name, TurnPermissions perms,
          util::ThreadPool* pool = nullptr,
          util::SpanRecorder* spans = nullptr)
      : name_(std::move(name)),
        perms_(std::make_unique<TurnPermissions>(std::move(perms))),
        table_(RoutingTable::build(*perms_, pool, {}, spans)) {}

  const std::string& name() const noexcept { return name_; }
  const TurnPermissions& permissions() const noexcept { return *perms_; }
  const RoutingTable& table() const noexcept { return table_; }

 private:
  std::string name_;
  std::unique_ptr<TurnPermissions> perms_;
  RoutingTable table_;
};

}  // namespace downup::routing
