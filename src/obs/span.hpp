// Control-plane span tracing: the obs-layer surface over
// util::SpanRecorder (see util/span_recorder.hpp for why the recorder
// itself lives a layer down) plus the exporters.
//
// A SpanRecorder handed to FabricManager::Options::spans (or to the
// construction pipeline via core::DownUpOptions / fault::Reconfigurator)
// records the full rebuild pipeline as nested spans:
//
//   rebuild                     one service-loop decision or driven publish
//   ├─ coalesce_wait            the burst-coalescing sleep (service mode)
//   ├─ event_dequeue            queue drain + fold into desired masks
//   ├─ dirty_set                incremental applicability (cover, tree rule)
//   ├─ partition / subtopo      alive-component labelling + compaction
//   ├─ tree                     coordinated-tree construction per component
//   ├─ classify / repair / release   turn-rule stages per component
//   ├─ merge                    component rules into host numbering
//   ├─ table_build              RoutingTable::build or rebuildDead
//   │  ├─ dirty_delta           rebuildDead: dead/revived channels + dirty set
//   │  └─ bfs                   per-destination reverse BFS fan-out
//   ├─ verify                   masked rule check + stored pair totals
//   └─ publish                  epoch swap + reclaim sweep
//
// Parallel stages carry `threads` / `parallel` args so a trace shows which
// path ran.  Schemas: spans JSONL is obs_spans/2 (results/README.md); the
// Chrome trace is standard trace_event JSON, loadable in Perfetto with one
// track per recording thread.
//
// obs_spans/2 extends /1 with micro-architectural data (util/perf_counters):
//   * the meta record reports counter availability — "detached" (no group
//     attached), "available", "partial" (software clock only; reason says
//     why the PMU events failed) or "unavailable" (reason carries the
//     errno) — so a consumer can always tell absent from zero;
//   * spans begun on the counting thread carry a "counters" object with
//     only the events that actually opened, plus derived ipc/missRate
//     when their inputs are present;
//   * alloc-tracked spans carry an "alloc" {count, bytes} object
//     (innermost-span attribution, see util/span_recorder.hpp);
//   * per-name accumulated stages (the engine phase profiler) export as
//     "aggregate" records {name, count, totalNs} after the spans; they
//     carry no counters.
#pragma once

#include <iosfwd>

#include "util/span_recorder.hpp"

namespace downup::obs {

using util::ScopedSpan;
using util::SpanRecorder;

/// Spans as JSONL (schema obs_spans/2): a `meta` header with counter
/// availability, then one `span` record per span in begin order with
/// id/parent/tid/depth, microsecond start/duration, the numeric args and
/// any counter/alloc payloads, then one `aggregate` record per registered
/// aggregate slot.
void writeSpansJsonl(const SpanRecorder& spans, std::ostream& out);

/// Spans as Chrome trace_event JSON (Perfetto-loadable): one "X" complete
/// event per closed span (pid 0, tid = recording thread), args attached.
void writeSpansChromeTrace(const SpanRecorder& spans, std::ostream& out);

}  // namespace downup::obs
