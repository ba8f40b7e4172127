// RunReport — the machine-readable artifact of one instrumented run:
// a snapshot of the metrics registry, per-phase span rollups, named value
// series (e.g. per-epoch DPO loss), and the raw trace (exported only as a
// Chrome trace).
//
// Serialized as JSON with a stable schema ("dpoaf.run_report", version 1;
// field-by-field spec in docs/RUN_REPORT_SCHEMA.md, validated in CI by
// scripts/check_metrics_schema.py) and as a Chrome trace ("traceEvents")
// loadable in chrome://tracing / ui.perfetto.dev. The library only writes
// reports; every reader (the schema checker, CI's report steps) is a
// Python tool. tests/test_obs.cpp pins the written bytes.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dpoaf::obs {

/// A named sequence of doubles, e.g. {"dpo.loss", one value per epoch}.
/// Non-finite values serialize as JSON null.
struct Series {
  std::string name;
  std::vector<double> values;
};

/// One run's complete observability artifact. Everything here except
/// wall-clock-derived data (histogram contents, phase total_ns, the
/// trace) is deterministic for a fixed configuration — see the
/// "Determinism contract" section of docs/RUN_REPORT_SCHEMA.md.
struct RunReport {
  /// Schema version ("dpoaf.run_report" version 1).
  int version = 1;
  /// Producing binary, e.g. "finetune_pipeline".
  std::string tool;
  /// Registry snapshot: counters, gauges, log2-bucket histograms.
  MetricsSnapshot metrics;
  /// Per-span-name rollups (span count + summed duration), aggregated
  /// from `trace` at capture time.
  std::vector<PhaseStat> phases;
  /// Producer-attached per-epoch value series, in insertion order.
  std::vector<Series> series;
  /// Raw span events sorted by start time; to_chrome_trace() writes them,
  /// to_json() does not.
  std::vector<TraceEvent> trace;
};

/// Snapshot the process-wide registry and trace into a report. The trace
/// is copied, not drained, so capturing is repeatable.
[[nodiscard]] RunReport capture_run_report(std::string tool);

/// Append a value series (kept in insertion order).
void add_series(RunReport& report, std::string name,
                std::vector<double> values);

/// The stable-schema JSON document (single line, UTF-8, keys in fixed
/// order). The trace events are left out; the chrome export carries them.
[[nodiscard]] std::string to_json(const RunReport& report);

/// Chrome trace-event JSON ({"traceEvents": [...]}) of the report's trace.
[[nodiscard]] std::string to_chrome_trace(const RunReport& report);

/// Write `content` to `path` (truncating). Returns false on I/O failure.
bool write_text_file(const std::string& path, std::string_view content);

}  // namespace dpoaf::obs
