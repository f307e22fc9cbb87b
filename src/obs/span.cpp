#include "obs/span.hpp"

#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "obs/export.hpp"

namespace downup::obs {

namespace {

using util::PerfCounterGroup;
using util::PerfCounts;
using util::PerfEvent;
using util::kPerfEventCount;

/// Microseconds with fractional precision — spans are wall-clock ns; the
/// trace_event format expects microsecond doubles.
double toUs(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

void writeArgsJson(const SpanRecorder::Span& span, std::ostream& out) {
  out << "{";
  for (std::uint8_t a = 0; a < span.argCount; ++a) {
    if (a > 0) out << ",";
    char value[32];
    std::snprintf(value, sizeof value, "%.6g", span.args[a].value);
    out << "\"" << span.args[a].key << "\":" << value;
  }
  out << "}";
}

/// Counter payload: only events that were actually counted, plus the
/// derived ratios when their inputs are present.  Absent events simply
/// don't appear — a consumer never sees a silent zero.
void writeCountersJson(const PerfCounts& counts, std::ostream& out) {
  out << "{";
  bool first = true;
  for (std::size_t e = 0; e < kPerfEventCount; ++e) {
    const auto event = static_cast<PerfEvent>(e);
    if (!counts.has(event)) continue;
    if (!first) out << ",";
    first = false;
    out << "\"" << util::toString(event) << "\":" << counts.get(event);
  }
  char buffer[40];
  if (counts.ipc() >= 0) {
    std::snprintf(buffer, sizeof buffer, ",\"ipc\":%.4f", counts.ipc());
    out << buffer;
  }
  if (counts.cacheMissRate() >= 0) {
    std::snprintf(buffer, sizeof buffer, ",\"cacheMissRate\":%.4f",
                  counts.cacheMissRate());
    out << buffer;
  }
  out << "}";
}

/// Counter availability for the meta record: a status string and, for
/// anything short of full availability, the reason — the schema's "never
/// silent zeros" contract.
void writeCounterMetaJson(const SpanRecorder& spans, std::ostream& out) {
  const PerfCounterGroup* group = spans.counters();
  if (group == nullptr) {
    out << "\"counters\":\"detached\"";
    return;
  }
  if (!group->available()) {
    out << "\"counters\":\"unavailable\",\"countersReason\":\""
        << group->unavailableReason() << "\"";
    return;
  }
  const bool full =
      group->eventMask() == ((1u << kPerfEventCount) - 1u);
  out << "\"counters\":\"" << (full ? "available" : "partial") << "\"";
  if (!full) {
    out << ",\"countersReason\":\"" << group->degradedReason() << "\"";
  }
  out << ",\"counterEvents\":[";
  bool first = true;
  for (std::size_t e = 0; e < kPerfEventCount; ++e) {
    if (!group->has(static_cast<PerfEvent>(e))) continue;
    if (!first) out << ",";
    first = false;
    out << "\"" << util::toString(static_cast<PerfEvent>(e)) << "\"";
  }
  out << "]";
}

}  // namespace

void writeSpansJsonl(const SpanRecorder& spans, std::ostream& out) {
  const std::vector<SpanRecorder::Span> all = spans.snapshot();
  const std::vector<SpanRecorder::Aggregate> aggregates = spans.aggregates();
  out << "{\"record\":\"meta\",\"schema\":\"obs_spans/2\",\"gitRev\":\""
      << gitRevision() << "\",\"timestampUtc\":\"" << utcTimestamp()
      << "\",\"spans\":" << all.size()
      << ",\"aggregates\":" << aggregates.size() << ",";
  writeCounterMetaJson(spans, out);
  out << "}\n";
  char buffer[96];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecorder::Span& span = all[i];
    out << "{\"record\":\"span\",\"id\":" << i << ",\"parent\":";
    if (span.parent == SpanRecorder::kNoParent) {
      out << "null";
    } else {
      out << span.parent;
    }
    std::snprintf(buffer, sizeof buffer,
                  ",\"tid\":%u,\"depth\":%u,\"startUs\":%.3f,\"durUs\":%.3f",
                  span.tid, span.depth, toUs(span.startNs),
                  toUs(span.durationNs()));
    out << ",\"name\":\"" << span.name << "\"" << buffer;
    if (span.endNs == 0) out << ",\"open\":true";
    if (span.argCount > 0) {
      out << ",\"args\":";
      writeArgsJson(span, out);
    }
    if (!span.counters.empty()) {
      out << ",\"counters\":";
      writeCountersJson(span.counters, out);
    }
    if (span.allocTracked) {
      out << ",\"alloc\":{\"count\":" << span.allocCount
          << ",\"bytes\":" << span.allocBytes << "}";
    }
    out << "}\n";
  }
  for (const SpanRecorder::Aggregate& agg : aggregates) {
    out << "{\"record\":\"aggregate\",\"name\":\"" << agg.name
        << "\",\"count\":" << agg.count << ",\"totalNs\":" << agg.totalNs
        << "}\n";
  }
}

void writeSpansChromeTrace(const SpanRecorder& spans, std::ostream& out) {
  const std::vector<SpanRecorder::Span> all = spans.snapshot();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buffer[96];
  for (const SpanRecorder::Span& span : all) {
    if (span.endNs == 0) continue;  // still open: no complete event
    if (!first) out << ",";
    first = false;
    std::snprintf(buffer, sizeof buffer,
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%u",
                  toUs(span.startNs), toUs(span.durationNs()), span.tid);
    out << "\n{\"name\":\"" << span.name << "\",\"ph\":\"X\"," << buffer
        << ",\"args\":";
    // Perfetto shows args on click — fold the derived counter ratios and
    // alloc charge into the arg object so they surface there too.
    out << "{";
    bool firstArg = true;
    for (std::uint8_t a = 0; a < span.argCount; ++a) {
      if (!firstArg) out << ",";
      firstArg = false;
      char value[32];
      std::snprintf(value, sizeof value, "%.6g", span.args[a].value);
      out << "\"" << span.args[a].key << "\":" << value;
    }
    if (span.counters.ipc() >= 0) {
      std::snprintf(buffer, sizeof buffer, "\"ipc\":%.4f",
                    span.counters.ipc());
      out << (firstArg ? "" : ",") << buffer;
      firstArg = false;
    }
    if (span.counters.cacheMissRate() >= 0) {
      std::snprintf(buffer, sizeof buffer, "\"cacheMissRate\":%.4f",
                    span.counters.cacheMissRate());
      out << (firstArg ? "" : ",") << buffer;
      firstArg = false;
    }
    if (span.allocTracked) {
      out << (firstArg ? "" : ",") << "\"allocCount\":" << span.allocCount
          << ",\"allocBytes\":" << span.allocBytes;
    }
    out << "}}";
  }
  // Name the process so Perfetto labels the track meaningfully.
  if (!first) out << ",";
  out << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"control-plane\"}}";
  out << "\n]}\n";
}

}  // namespace downup::obs
