// Simulation parameters and per-run results for the wormhole simulator.
//
// Timing model (matches the paper's IRFlexSim setup): a header flit takes
// 1 clock to be routed/arbitrated, 1 clock to cross the switch, and 1 clock
// on the link (3 clocks per hop); body flits pipeline behind it at one flit
// per clock.  Flow control is credit-based with `bufferDepthFlits` slots per
// virtual channel; a depth of >= 3 sustains full link bandwidth under the
// 3-cycle credit round trip, so the default is 4.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/schedule.hpp"

namespace downup::obs {
class Observer;
}

namespace downup::verify {
class OracleGate;
}

namespace downup::sim {

struct SimConfig {
  std::uint32_t packetLengthFlits = 128;  // paper: 128
  std::uint32_t bufferDepthFlits = 4;     // per input VC
  std::uint32_t vcCount = 1;              // virtual channels per physical channel
  std::uint32_t ejectionPortsPerNode = 1;
  std::uint32_t sourceQueueCapPackets = 16;  // injection back-pressure bound
  std::uint32_t warmupCycles = 5000;
  std::uint32_t measureCycles = 20000;
  /// Declare deadlock after this many cycles without any flit movement
  /// while traffic is in flight (only reachable when turn rules are broken).
  std::uint32_t deadlockThresholdCycles = 10000;
  /// Probability that a header considers *every* legal output (any allowed
  /// turn from which the destination stays reachable) instead of only the
  /// minimal ones.  0 = shortest-path routing (the paper's evaluation
  /// setting); > 0 exercises the full non-minimal adaptive relation.
  double misrouteProbability = 0.0;
  /// Bursty arrivals: a two-state ON/OFF Markov process per node.  In ON the
  /// node generates at burstFactor x the Bernoulli rate, in OFF not at all;
  /// duty cycle 1/burstFactor keeps the mean offered load unchanged.
  /// burstFactor == 1 (default) is the plain Bernoulli process.
  double burstFactor = 1.0;
  std::uint32_t burstOnMeanCycles = 200;
  /// When false, every header waits for the *fixed* lowest-numbered minimal
  /// candidate (VC 0 of the first legal output channel) instead of choosing
  /// randomly among free candidates — deterministic single-path routing,
  /// the ablation counterpart to the paper's adaptive mode.
  bool adaptiveSelection = true;
  /// Escape-channel minimal-adaptive routing in the style of Silla & Duato
  /// (the paper's reference [8]); requires vcCount >= 2.  VC 0 of every
  /// physical channel is the *escape* class and obeys the turn rule; VCs
  /// >= 1 are fully adaptive: any output one step closer to the destination
  /// under the legal-steps potential may be taken regardless of turns.  A
  /// packet that ever takes an escape VC stays in the escape class
  /// ("sticky"), which gives the classic deadlock-freedom argument: escape
  /// dependencies are exactly the (acyclic) turn-legal channel
  /// dependencies, and a turn-legal escape successor exists from *every*
  /// reachable channel because the potential counts legal continuations.
  /// Every hop decreases the potential by one, so paths are exactly the
  /// legal shortest length and livelock is impossible.  Incompatible with
  /// misrouteProbability > 0 and with adaptiveSelection == false.
  bool escapeAdaptiveRouting = false;
  /// Optional observability bundle (obs/observer.hpp): metrics registry,
  /// sampled packet tracer (per-packet paths), time series (ejected flits
  /// per window), wait-for sampler, control-plane spans.  Non-owning — the
  /// observer must outlive the run and must not be shared between
  /// concurrently executing simulations.  Null (the default) disables observability completely:
  /// the engine's hot paths see only never-taken null checks, and results
  /// are bit-for-bit identical either way (hooks never draw RNG or alter
  /// scheduling).
  obs::Observer* observer = nullptr;
  /// Optional fault schedule (fault/schedule.hpp).  Non-owning — the
  /// schedule must outlive the run.  Null disables the fault machinery
  /// entirely; attaching an EMPTY schedule is bit-for-bit inert (the hooks
  /// never draw RNG or alter scheduling until an event actually fires), so
  /// results match the null case exactly.  When events fire, the engine
  /// quarantines the failed resources (dropping the worms occupying them),
  /// freezes injection for reconfigLatencyCycles, then rebuilds the
  /// coordinated tree + DOWN/UP turn rule on the degraded topology and
  /// hot-swaps the routing table (fault/reconfigure.hpp).
  const fault::FaultSchedule* faultSchedule = nullptr;
  /// Cycles between a topology change and the hot swap of rebuilt routing
  /// (the modelled cost of tree recomputation + table distribution).  A
  /// later fault during an open window restarts the timer.
  std::uint32_t reconfigLatencyCycles = 200;
  /// Reconfigure incrementally when possible: keep the previous epoch's
  /// turn rule (restricting an acyclic dependency graph to the surviving
  /// channels cannot create a cycle) and rebuild only the destinations a
  /// failed or recovered link can affect, scaling the reconfiguration
  /// window by the fraction of routing work actually redone.  Recoveries
  /// qualify only inside the rule's cover — the channels a full rebuild
  /// checked it on — so the run's initial table, which no rebuild checked,
  /// recovers by a full rebuild.  Falls back to a full rebuild — and the
  /// full window — for a revival outside the cover, a DOWN/UP tree-link
  /// failure, an event that kills and revives at once, or an inherited
  /// rule that leaves an alive component partially unreachable.
  /// Default off: the fixed-window protocol stays bit-for-bit identical to
  /// previous releases.
  bool reconfigIncremental = false;
  /// What happens to packets generated while a reconfiguration window is
  /// open: parked in the source queue (default) or dropped at generation.
  fault::InjectionPolicy faultInjectionPolicy = fault::InjectionPolicy::kPark;
  /// Optional independent deadlock oracle (verify/gate.hpp).  Non-owning —
  /// must outlive the run.  When set alongside a fault schedule, the gate
  /// is handed to the fabric manager (auditing every reconfiguration
  /// outcome and epoch publish) and the engine additionally audits its own
  /// occupancy state against the stale rule at the two mid-reconfiguration
  /// points: "mid_reconfig_quarantine" when a window opens (quarantined
  /// worms + frozen injection + old table) and "mid_reconfig_preswap" just
  /// before the new epoch is swapped in.  Audits are read-only, draw no
  /// RNG and never block the run, so results are bit-for-bit identical
  /// with or without the gate.
  verify::OracleGate* oracleGate = nullptr;
  std::uint64_t seed = 1;

  /// Throws std::invalid_argument on nonsensical values.
  void validate() const;
};

struct RunStats {
  std::uint64_t cycles = 0;
  bool deadlocked = false;

  std::uint64_t packetsGenerated = 0;
  std::uint64_t packetsEjectedMeasured = 0;
  std::uint64_t flitsEjectedMeasured = 0;

  /// Latency = generation -> tail ejection, over packets generated after
  /// warm-up (cycles).
  double avgLatency = 0.0;
  double p50Latency = 0.0;
  double p99Latency = 0.0;
  /// avgLatency = avgQueueingDelay + avgNetworkLatency: time waiting in the
  /// source queue before the first flit leaves vs time from first injection
  /// to tail ejection.
  double avgQueueingDelay = 0.0;
  double avgNetworkLatency = 0.0;

  /// Throughput actually delivered, flits/clock/node over the measurement
  /// window (the paper's "accepted traffic").
  double acceptedFlitsPerNodePerCycle = 0.0;
  /// The offered injection rate the run was configured with.
  double offeredLoad = 0.0;

  /// Measured flits per clock on each switch-to-switch channel, indexed by
  /// ChannelId (in [0, 1]; the basis of every Table 1-4 metric).
  std::vector<double> channelUtilization;

  // --- fault injection / reconfiguration (zero unless faults fired) ---

  /// Worms discarded because they occupied a failed link/switch or were
  /// still unrouted when a reconfiguration swap flushed the network, plus
  /// packets queued at a switch that failed.
  std::uint64_t packetsDroppedInFlight = 0;
  /// Packets suppressed at generation by InjectionPolicy::kDrop while a
  /// reconfiguration window was open (not counted in packetsGenerated).
  std::uint64_t packetsDroppedInjection = 0;
  /// Generated packets discarded because their destination was dead or
  /// unreachable under the degraded routing.
  std::uint64_t packetsDroppedUnreachable = 0;
  /// Completed reconfigurations (routing rebuilds hot-swapped in).
  std::uint64_t reconfigurations = 0;
  /// Cycles spent with a reconfiguration window open (injection frozen).
  std::uint64_t reconfigCyclesTotal = 0;
  /// Ordered alive-node pairs left unreachable by the latest swap
  /// (post-fault connectivity; 0 while the degraded network is connected).
  std::uint64_t unreachablePairsAfterReconfig = 0;
  /// Every swapped-in routing passed verification (deadlock-free channel
  /// dependencies + full connectivity within each alive component).
  bool reconfigRoutingVerified = true;
  /// Swaps served by the incremental path (SimConfig::reconfigIncremental;
  /// the remainder fell back to full rebuilds).
  std::uint64_t reconfigIncrementalSwaps = 0;
  /// Destinations whose routing rows were recomputed across all swaps
  /// (aliveNodes per full rebuild; the dirty-set size per incremental one).
  std::uint64_t reconfigDestinationsRebuilt = 0;

  std::uint64_t packetsDroppedTotal() const noexcept {
    return packetsDroppedInFlight + packetsDroppedInjection +
           packetsDroppedUnreachable;
  }
};

}  // namespace downup::sim
