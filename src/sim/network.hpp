// Cycle-accurate wormhole network simulator (the IRFlexSim0.5 substitute).
//
// Model per cycle (in phase order):
//   1. arrivals  — flits that finished the 2-cycle switch+link pipeline
//                  enter their target VC buffer;
//   2. traffic   — each node Bernoulli-generates packets into its source
//                  queue (blocked while the queue is at capacity);
//   3. allocation— header flits that have sat in a buffer for >= 1 cycle
//                  (the 1-clock routing/arbitration delay) claim a free
//                  output VC among the minimal legal candidates given by the
//                  RoutingTable (random choice = the paper's random pick
//                  among shortest paths), or a free ejection port;
//   4. transfer  — two-level arbitration (one flit per input channel, one
//                  flit per output channel / ejection port per cycle) moves
//                  flits; a flit sent at cycle t enters the downstream
//                  buffer at t+2.  Credit-based flow control with
//                  bufferDepthFlits credits per VC.
//
// Wormhole semantics: an output VC is owned by one packet from header
// allocation until its tail flit leaves that VC's buffer; a blocked header
// therefore stalls its whole chain of channels upstream, which is exactly
// what makes channel-dependency cycles deadlock.
//
// The engine is layered into one translation unit per concern, all operating
// on this class's state through narrow seams:
//   network.cpp      — construction, the cycle loop, traffic generation, the
//                      deadlock watchdog, stats assembly;
//   allocation.cpp   — header routing and output-VC / ejection-port claims
//                      (the RoutingTable span fast path, no scratch allocs);
//   arbitration.cpp  — the two-level switch allocation of transferFlits;
//   flow_control.cpp — pipeline arrivals, credits, flit movement;
//   telemetry.*      — measurement bookkeeping behind the Telemetry class.
//
// Per-cycle cost scales with in-flight traffic, not network size: the
// allocation and arbitration phases walk ActiveIdSets (pending headers,
// routable sources, channels with movable flits, busy injection queues)
// instead of scanning every VC, and the watchdog reads an owned-VC counter
// maintained by the claim/release paths.  Active sets iterate in the exact
// order the historical full scans visited their members (ascending ids,
// rotated by the allocation round-robin offset), so arbitration winners,
// RNG draw order and every statistic are bit-for-bit unchanged — see
// tests/sim/golden_run_test.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "fabric/manager.hpp"
#include "fault/controller.hpp"
#include "routing/routing_table.hpp"
#include "sim/active_set.hpp"
#include "sim/config.hpp"
#include "sim/telemetry.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"

namespace downup::obs {
class MetricsRegistry;
class PacketTracer;
class PhaseProfiler;
class TimeSeriesCollector;
class WaitForSampler;
}

namespace downup::sim {

using routing::ChannelId;
using routing::RoutingTable;

using PacketId = std::uint32_t;
inline constexpr PacketId kNoPacket = static_cast<PacketId>(-1);
inline constexpr std::uint32_t kNoOut = static_cast<std::uint32_t>(-1);

class WormholeNetwork {
 public:
  /// `table`, `pattern` and the topology behind them must outlive the
  /// network.  `injectionRate` is in flits/node/cycle.
  WormholeNetwork(const RoutingTable& table, const TrafficPattern& pattern,
                  double injectionRate, const SimConfig& config);

  /// Advances one cycle.
  void step();

  /// Runs warmup + measurement (stopping early on deadlock) and returns the
  /// collected statistics.
  RunStats run();

  /// Stops traffic generation and keeps stepping until every generated
  /// packet has been ejected or dropped (fault runs: any open
  /// reconfiguration window is played out first).  Returns true when the
  /// network fully drained within `maxCycles` additional cycles — with a
  /// correct routing this can only fail on a genuine deadlock.
  bool drainRemaining(std::uint64_t maxCycles);

  // --- observation hooks (tests, examples) ---
  static constexpr std::uint64_t kNeverEjected = ~std::uint64_t{0};

  /// Enqueues one packet directly, bypassing the Bernoulli process and the
  /// source-queue cap; returns its id.  Useful for deterministic tests.
  PacketId injectPacket(topo::NodeId src, topo::NodeId dst);

  /// Cycle the packet's tail flit was ejected, or kNeverEjected.
  std::uint64_t packetEjectTime(PacketId pid) const {
    return packets_[pid].ejectTime;
  }
  std::uint64_t packetGenTime(PacketId pid) const {
    return packets_[pid].genTime;
  }
  /// Cycle the packet's first flit left the source queue, or kNeverEjected.
  std::uint64_t packetInjectTime(PacketId pid) const {
    return packets_[pid].injectTime;
  }
  /// The channel sequence the packet was routed over (requires
  /// config.tracePackets; empty otherwise or while still queued).
  const std::vector<ChannelId>& packetPath(PacketId pid) const {
    static const std::vector<ChannelId> kEmpty;
    return pid < tracedPaths_.size() ? tracedPaths_[pid] : kEmpty;
  }

  std::uint64_t now() const noexcept { return now_; }
  bool deadlocked() const noexcept { return deadlocked_; }
  /// True once the packet was discarded by the fault machinery.
  bool packetDropped(PacketId pid) const { return packets_[pid].dropped; }
  std::uint64_t packetsDropped() const noexcept {
    return droppedInFlight_ + droppedInjection_ + droppedUnreachable_;
  }
  /// Completed routing rebuilds (0 for fault-free runs).
  std::uint64_t reconfigurations() const noexcept { return reconfigurations_; }
  /// The routing table currently in effect (the constructor argument until
  /// the first reconfiguration swap).
  const RoutingTable& currentTable() const noexcept { return *table_; }
  std::uint64_t packetsGenerated() const noexcept { return packetsGenerated_; }
  std::uint64_t packetsEjected() const noexcept { return packetsEjectedTotal_; }
  std::uint64_t flitsInFlight() const noexcept;
  std::size_t sourceQueueLength(topo::NodeId node) const {
    return sources_[node].queue.size();
  }
  /// Measured packet latencies in delivery order, while the streaming
  /// summary still holds them exactly (test introspection).
  std::span<const double> measuredLatencies() const noexcept {
    return telemetry_.exactLatencies();
  }

  RunStats collectStats() const;

 private:
  struct Vc {
    PacketId owner = kNoPacket;
    std::uint32_t out = kNoOut;     // target VC id or ejection ref
    std::uint32_t buffered = 0;     // flits currently in this buffer
    std::uint32_t entered = 0;      // flits of `owner` ever entered
    std::uint32_t sent = 0;         // flits of `owner` forwarded onward
    std::uint64_t headReadyAt = 0;  // cycle the header entered the buffer
  };

  struct Source {
    std::deque<PacketId> queue;
    std::uint32_t sent = 0;      // flits of the front packet injected
    std::uint32_t out = kNoOut;  // output VC of the front packet
  };

  struct Packet {
    topo::NodeId src;
    topo::NodeId dst;
    std::uint64_t genTime;
    std::uint64_t injectTime = kNeverEjected;
    std::uint64_t ejectTime = kNeverEjected;
    bool onEscape = false;  // escape-adaptive routing: committed to VC 0
    bool dropped = false;   // discarded by the fault machinery
  };

  // VC ids are channel * vcCount + v; ejection refs are
  // ejectBase_ + node * ejectionPorts + port.
  std::uint32_t vcChannel(std::uint32_t vc) const noexcept { return vc / vcCount_; }
  bool isEject(std::uint32_t out) const noexcept { return out >= ejectBase_; }

  // --- flow_control.cpp ---
  void deliverArrivals();
  void executeMove(bool fromSource, std::uint32_t index);

  // --- network.cpp ---
  void generateTraffic();
  /// Generation under a rate-modulating pattern (TrafficPattern modulation
  /// hooks): advances the pattern once per cycle and scales each node's
  /// Bernoulli probability by its multiplier.  Separate from the smooth
  /// fast path so non-modulating runs keep their pinned draw sequence.
  void generateTrafficModulated();
  void enqueuePacket(topo::NodeId src, topo::NodeId dst);
  /// The four engine phases wrapped in steady_clock timers (profiler
  /// attached); the detached path calls them directly from step().
  void runPhasesProfiled();

  // --- allocation.cpp ---
  void allocateOutputs();
  void routeHeader(std::uint32_t vcId);
  void routeSource(topo::NodeId node);
  /// Claims a free VC among the minimal legal output channels; returns the
  /// VC id or kNoOut.  `in` is kNoOut for injection from `node`.
  std::uint32_t claimOutputVc(PacketId pid, topo::NodeId node, ChannelId in,
                              topo::NodeId dst);
  /// Escape-adaptive variant: adaptive VCs (>= 1) over any
  /// potential-decrementing output first, escape VC 0 over turn-legal
  /// outputs as fallback (sticky once taken).
  std::uint32_t claimEscapeAdaptive(PacketId pid, topo::NodeId node,
                                    ChannelId in, topo::NodeId dst);
  /// Claims `vcId` for `pid`, recording the trace hop; returns vcId.
  std::uint32_t commitClaim(PacketId pid, std::uint32_t vcId);
  std::uint32_t claimEjectPort(PacketId pid, topo::NodeId node);
  /// Observability hook for a successful claim: blocked-cycle and
  /// turn-usage attribution plus tracer lifecycle events.  Only called when
  /// an observer component is attached (obsClaims_).
  void observeClaim(PacketId pid, topo::NodeId node, ChannelId in,
                    std::uint32_t out, std::uint64_t waited);
  /// Wait-for-graph snapshot (obs/waitfor.hpp): walks every owned VC and
  /// reports hold edges (committed worm hops) and request edges (blocked
  /// headers against fully-owned candidates).  Only called when waitfor_ is
  /// attached and the sample period elapses; read-only on engine state.
  void sampleWaitFor();

  // --- arbitration.cpp ---
  void transferFlits();

  // --- fault_hooks.cpp (only reached when config_.faultSchedule != null) ---
  /// Start-of-cycle fault work: apply due events (quarantining the worms on
  /// newly dead resources), tick the reconfiguration window, swap routing
  /// when it elapses.
  void faultPhase();
  /// Discards `pid` wherever it lives — owned VCs (buffers + pipeline),
  /// ejection port, source front — restoring credits and active sets, and
  /// counts it into droppedInFlight_.  Idempotent per packet.
  void dropPacket(PacketId pid, topo::NodeId atNode);
  void quarantineNode(topo::NodeId node);
  /// Rebuilds routing on the degraded topology and hot-swaps the table.
  /// Packets still owning an unrouted VC are dropped first, so the post-swap
  /// network holds only fully-routed draining worms — mixing them with
  /// claims under the new (acyclic) rule cannot form a dependency cycle.
  void completeReconfiguration();
  /// Length of the window opened for the faults currently applied: the
  /// fixed reconfigLatencyCycles, or — under reconfigIncremental — that
  /// latency scaled by the fraction of per-destination routing work the
  /// incremental path will actually redo.
  std::uint64_t reconfigWindowLength() const;
  /// Window-open variant of claimOutputVc: same selection logic over the
  /// stale table's candidates with dead channels filtered out (misroute
  /// excursions are suspended during a window).
  std::uint32_t claimOutputVcDegraded(PacketId pid, topo::NodeId node,
                                      ChannelId in, topo::NodeId dst);
  /// Drops queued packets whose destination is dead or unreachable under
  /// the current (post-swap) table until the front packet is routable.
  /// Returns false when the queue drained empty.
  bool dropUnroutableSourceFront(topo::NodeId node);
  /// Generation-time admission under faults; may count a drop.  `node` has
  /// already passed the queue-cap check and drawn `dst`.
  bool admitGeneratedPacket(topo::NodeId node, topo::NodeId dst);
  /// Audits the engine's live occupancy (worm hold edges + blocked-header
  /// request edges) together with the CURRENT (possibly stale) rule against
  /// the independent deadlock oracle (config_.oracleGate; no-op when
  /// detached).  Called at the mid-reconfiguration points — window open and
  /// just before the epoch swap — so the oracle sees exactly the states the
  /// drain-then-swap argument claims are safe.  Read-only; no RNG.
  void auditRoutingState(const char* point);

  // --- active-set bookkeeping (inline: called on every state transition) ---
  /// VC `vcId` gained a forwardable flit (out claimed with flits buffered,
  /// or a flit arrived into a routed VC with an empty buffer).
  void markMovable(std::uint32_t vcId) {
    if (movableVcs_[vcChannel(vcId)]++ == 0) {
      activeChannels_.insert(vcChannel(vcId));
    }
  }
  /// VC `vcId` drained its buffer (nothing forwardable on it any more).
  void unmarkMovable(std::uint32_t vcId) {
    if (--movableVcs_[vcChannel(vcId)] == 0) {
      activeChannels_.erase(vcChannel(vcId));
    }
  }

  const RoutingTable* table_;
  const topo::Topology* topo_;
  const TrafficPattern* pattern_;
  bool modulatedPattern_ = false;  // cached pattern_->modulatesRate()
  SimConfig config_;
  double injectionRate_;
  double genProbability_;  // per node per cycle
  util::Rng rng_;

  std::uint32_t vcCount_;
  std::uint32_t totalVcs_;
  std::uint32_t ejectBase_;
  std::uint32_t outputResources_;  // channels + ejection ports

  std::vector<Vc> vcs_;
  std::vector<std::uint32_t> credit_;  // free slots per VC, upstream's view
  std::vector<Source> sources_;
  std::vector<PacketId> ejectOwner_;
  std::vector<Packet> packets_;
  std::vector<std::vector<ChannelId>> tracedPaths_;  // iff tracePackets
  std::vector<bool> burstOn_;                        // iff burstFactor > 1

  static constexpr std::uint32_t kPipelineCycles = 2;  // switch + link
  std::array<std::vector<std::uint32_t>, kPipelineCycles + 1> arrivals_;

  // Arbitration state.
  std::uint32_t allocOffset_ = 0;                 // rotating header priority
  std::vector<std::uint32_t> inputRoundRobin_;    // per physical channel
  std::vector<std::uint32_t> outputRoundRobin_;   // per output resource

  // Active sets: per-cycle work scales with these, not with network size.
  ActiveIdSet pendingHeaders_;   // VCs: owner set, out unset, flits buffered
  ActiveIdSet routableSources_;  // nodes: queue non-empty, no output claimed
  ActiveIdSet activeChannels_;   // channels with movableVcs_[c] > 0
  ActiveIdSet busySources_;      // nodes with an output VC claimed
  std::vector<std::uint32_t> movableVcs_;  // per channel: VCs with sendable flits
  std::uint32_t ownedVcs_ = 0;             // VCs owned by a packet (watchdog)

  // Blocked-claimant parking.  A failed claim is side-effect-free (no RNG
  // draw, no state change) unless misrouting is enabled, and its candidate
  // resources are exactly the output VCs and ejection ports of one node —
  // so instead of re-attempting every cycle, blocked headers/sources leave
  // their active set and wait per node until a resource of that node frees.
  // Wakes are conservative (any free at the node re-attempts everything
  // parked there), which is safe because failed re-attempts are no-ops.
  bool parkingEnabled_ = false;  // off when misrouting draws RNG per attempt
  ActiveIdSet dirtyNodes_;       // nodes with a resource freed this transfer
  std::vector<std::vector<std::uint32_t>> parkedHeaders_;  // per node: vc ids
  std::vector<std::uint8_t> parkedSource_;                 // per node flag

  // Scratch buffers reused every cycle.
  std::vector<std::uint32_t> candidateVcs_;
  struct Move {
    bool fromSource;
    std::uint32_t index;  // vc id or node id
    std::uint32_t out;
  };
  std::vector<Move> proposedMoves_;
  std::vector<std::uint32_t> touchedResources_;
  std::vector<std::vector<Move>> resourceRequests_;

  // Clock and bookkeeping.
  std::uint64_t now_ = 0;
  std::uint64_t idleCycles_ = 0;
  bool deadlocked_ = false;
  bool movedThisCycle_ = false;

  // Statistics.
  std::uint64_t packetsGenerated_ = 0;
  std::uint64_t packetsEjectedTotal_ = 0;
  std::uint64_t measuredCycles_ = 0;
  Telemetry telemetry_;

  // Observability (null = disabled; cached from config_.observer).  Hooks
  // never draw RNG or change engine state, so runs are bit-for-bit
  // identical whether or not an observer is attached.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::PacketTracer* tracer_ = nullptr;
  obs::PhaseProfiler* profiler_ = nullptr;
  obs::TimeSeriesCollector* timeseries_ = nullptr;
  obs::WaitForSampler* waitfor_ = nullptr;
  bool obsClaims_ = false;  // metrics_, tracer_ or timeseries_ attached

  // Fault injection + online reconfiguration (fault_hooks.cpp; null unless
  // config_.faultSchedule is set).  faultsActive_ flips true at the first
  // fault event and back to false when a reconfiguration completes with
  // everything healed; while false, the hot paths see only never-taken
  // branch checks and draw no extra RNG — an attached empty schedule is
  // therefore bit-for-bit inert.
  std::unique_ptr<fault::FaultController> faults_;
  // Routing epochs live in the fabric manager (driven mode: this thread is
  // the single writer).  table_ aliases the pinned snapshot's table after
  // the first swap; the pin keeps the epoch alive until the next swap
  // supersedes it.
  std::unique_ptr<fabric::FabricManager> fabric_;
  fabric::Reader fabricReader_;
  fabric::PinnedSnapshot fabricPin_;
  bool faultsActive_ = false;
  bool generationStopped_ = false;  // drainRemaining()
  std::uint64_t reconfigurations_ = 0;
  std::uint64_t reconfigCyclesTotal_ = 0;
  std::uint64_t reconfigIncrementalSwaps_ = 0;
  std::uint64_t reconfigDestinationsRebuilt_ = 0;
  std::uint64_t droppedInFlight_ = 0;
  std::uint64_t droppedInjection_ = 0;
  std::uint64_t droppedUnreachable_ = 0;
  std::uint64_t lastUnreachablePairs_ = 0;
  bool reconfigVerified_ = true;
};

}  // namespace downup::sim
