#include "obs/observer.hpp"

#include <algorithm>
#include <stdexcept>

namespace downup::obs {

Observer::Observer(const ObsOptions& options, const topo::Topology& topo,
                   const tree::CoordinatedTree* ct, std::uint32_t vcCount)
    : nodeCount_(topo.nodeCount()), channelCount_(topo.channelCount()) {
  // The coordinated tree gives both level-bucketing consumers the same
  // mapping: nodes by Y(v), channels by min(Y(src), Y(dst)).
  std::vector<std::uint32_t> nodeLevel;
  std::vector<std::uint32_t> channelLevel;
  if (ct != nullptr) {
    nodeLevel.resize(nodeCount_);
    for (topo::NodeId v = 0; v < nodeCount_; ++v) nodeLevel[v] = ct->y(v);
    channelLevel.resize(channelCount_);
    for (topo::ChannelId c = 0; c < channelCount_; ++c) {
      channelLevel[c] =
          std::min(ct->y(topo.channelSrc(c)), ct->y(topo.channelDst(c)));
    }
  }
  if (options.metrics) {
    metrics_ = std::make_unique<MetricsRegistry>(nodeCount_, channelCount_);
    if (ct != nullptr) metrics_->setLevels(nodeLevel, channelLevel);
  }
  if (options.traceSampleEvery > 0) {
    tracer_ = std::make_unique<PacketTracer>(options.traceSampleEvery);
  }
  if (options.controlPlaneSpans) {
    controlPlaneSpans_ = std::make_unique<SpanRecorder>();
  }
  if (options.timeseriesWindowCycles > 0) {
    TimeSeriesOptions tsOptions;
    tsOptions.windowCycles = options.timeseriesWindowCycles;
    tsOptions.maxWindows = options.timeseriesMaxWindows;
    tsOptions.perChannel = options.timeseriesPerChannel;
    timeseries_ = std::make_unique<TimeSeriesCollector>(tsOptions, nodeCount_,
                                                        channelCount_);
    if (ct != nullptr) timeseries_->setLevels(nodeLevel, channelLevel);
  }
  if (options.waitForSamplePeriod > 0) {
    waitfor_ = std::make_unique<WaitForSampler>(
        options.waitForSamplePeriod, nodeCount_, channelCount_,
        channelCount_ * vcCount, vcCount);
  }
}

void Observer::attach(std::uint32_t nodeCount,
                      std::uint32_t channelCount) const {
  if (nodeCount != nodeCount_ || channelCount != channelCount_) {
    throw std::invalid_argument(
        "Observer: sized for a different topology than the simulation's");
  }
}

void Observer::reset() {
  if (metrics_) metrics_->reset();
  if (tracer_) tracer_->clear();
  if (timeseries_) timeseries_->reset();
  if (waitfor_) waitfor_->reset();
  if (controlPlaneSpans_) controlPlaneSpans_->clear();
}

}  // namespace downup::obs
