// The observability bundle a simulation run attaches to: an optional
// metrics registry, sampled packet tracer, time-series flight recorder,
// wait-for sampler and control-plane span recorder, sized for one topology
// and handed to the engine as a single non-owning pointer
// (SimConfig::observer).
//
// The engine caches one raw pointer per component at construction and
// guards every hook with a null check, so a run without an observer pays a
// handful of never-taken branches and nothing else — golden runs are
// bit-for-bit identical either way (hooks never draw RNG or alter
// scheduling, so they are bit-for-bit identical even when enabled).
//
// An Observer must not be shared between concurrently running simulations
// (its components are single-writer); parallel sweeps use one Observer per
// run and MetricsRegistry::mergeFrom to fold results.
#pragma once

#include <cstdint>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/waitfor.hpp"
#include "topology/topology.hpp"
#include "tree/coordinated_tree.hpp"

namespace downup::obs {

struct ObsOptions {
  /// Collect the metrics registry (turn usage, blocked-cycle attribution,
  /// root-distance histograms, per-channel flits).
  bool metrics = false;
  /// Trace every Nth packet's per-hop lifecycle; 0 disables tracing.
  std::uint32_t traceSampleEvery = 0;
  /// Windowed time-series flight recorder (obs/timeseries.hpp): bucket the
  /// run into windows of this many cycles; 0 disables.
  std::uint32_t timeseriesWindowCycles = 0;
  /// Ring capacity of the time series (most recent windows retained).
  std::uint32_t timeseriesMaxWindows = 4096;
  /// Record per-channel flit counts per window (memory: channels x ring).
  bool timeseriesPerChannel = false;
  /// Wait-for-graph deadlock-risk sampling (obs/waitfor.hpp): walk blocked
  /// worms' channel dependencies every this many cycles; 0 disables.
  std::uint32_t waitForSamplePeriod = 0;
  /// Record control-plane rebuild spans (obs/span.hpp): the engine hands
  /// the recorder to its internal FabricManager, so every reconfiguration
  /// epoch traces its pipeline stages.  Export with writeSpansJsonl /
  /// writeSpansChromeTrace.
  bool controlPlaneSpans = false;
};

class Observer {
 public:
  /// Sizes the enabled components for `topo`.  When `ct` is given, the
  /// metrics registry buckets nodes by tree level Y(v) and channels by
  /// min(Y(src), Y(dst)); otherwise everything lands in level 0.
  /// The wait-for sampler is additionally sized for `vcCount` virtual
  /// channels per physical channel (SimConfig::vcCount; the default matches
  /// the simulator's default).
  Observer(const ObsOptions& options, const topo::Topology& topo,
           const tree::CoordinatedTree* ct = nullptr,
           std::uint32_t vcCount = 1);

  /// Engine handshake: throws std::invalid_argument when the observer was
  /// sized for a different topology.
  void attach(std::uint32_t nodeCount, std::uint32_t channelCount) const;

  MetricsRegistry* metrics() noexcept { return metrics_.get(); }
  const MetricsRegistry* metrics() const noexcept { return metrics_.get(); }
  PacketTracer* tracer() noexcept { return tracer_.get(); }
  const PacketTracer* tracer() const noexcept { return tracer_.get(); }
  TimeSeriesCollector* timeseries() noexcept { return timeseries_.get(); }
  const TimeSeriesCollector* timeseries() const noexcept {
    return timeseries_.get();
  }
  WaitForSampler* waitFor() noexcept { return waitfor_.get(); }
  const WaitForSampler* waitFor() const noexcept { return waitfor_.get(); }
  SpanRecorder* controlPlaneSpans() noexcept {
    return controlPlaneSpans_.get();
  }
  const SpanRecorder* controlPlaneSpans() const noexcept {
    return controlPlaneSpans_.get();
  }

  /// Clears every enabled component (reuse across sweep samples).
  void reset();

 private:
  std::uint32_t nodeCount_;
  std::uint32_t channelCount_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<PacketTracer> tracer_;
  std::unique_ptr<TimeSeriesCollector> timeseries_;
  std::unique_ptr<WaitForSampler> waitfor_;
  std::unique_ptr<SpanRecorder> controlPlaneSpans_;
};

}  // namespace downup::obs
