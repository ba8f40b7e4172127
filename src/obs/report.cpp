#include "obs/report.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

namespace dpoaf::obs {

namespace {

// ------------------------------------------------------- JSON writing ---

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;  // UTF-8 bytes pass through untouched
        }
    }
  }
  out += '"';
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out += buf;
}

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no NaN/Inf
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_histogram(std::string& out, const HistogramSnapshot& h) {
  out += "{\"count\":";
  append_u64(out, h.count);
  out += ",\"sum\":";
  append_u64(out, h.sum);
  out += ",\"min\":";
  append_u64(out, h.min);
  out += ",\"max\":";
  append_u64(out, h.max);
  out += ",\"buckets\":[";
  // Trim trailing zero buckets; readers treat absent buckets as zero.
  std::size_t last = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i)
    if (h.buckets[i] != 0) last = i + 1;
  for (std::size_t i = 0; i < last; ++i) {
    if (i != 0) out += ',';
    append_u64(out, h.buckets[i]);
  }
  out += "]}";
}

}  // namespace

RunReport capture_run_report(std::string tool) {
  RunReport report;
  report.tool = std::move(tool);
  report.metrics = MetricsRegistry::instance().snapshot();
  report.trace = trace_snapshot();
  report.phases = aggregate_phases(report.trace);
  return report;
}

void add_series(RunReport& report, std::string name,
                std::vector<double> values) {
  report.series.push_back({std::move(name), std::move(values)});
}

std::string to_json(const RunReport& report) {
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":\"dpoaf.run_report\",\"version\":";
  append_i64(out, report.version);
  out += ",\"tool\":";
  append_escaped(out, report.tool);

  out += ",\"counters\":{";
  for (std::size_t i = 0; i < report.metrics.counters.size(); ++i) {
    if (i != 0) out += ',';
    append_escaped(out, report.metrics.counters[i].name);
    out += ':';
    append_u64(out, report.metrics.counters[i].value);
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < report.metrics.gauges.size(); ++i) {
    if (i != 0) out += ',';
    append_escaped(out, report.metrics.gauges[i].name);
    out += ':';
    append_i64(out, report.metrics.gauges[i].value);
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < report.metrics.histograms.size(); ++i) {
    if (i != 0) out += ',';
    append_escaped(out, report.metrics.histograms[i].name);
    out += ':';
    append_histogram(out, report.metrics.histograms[i].snapshot);
  }
  out += "},\"phases\":[";
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"name\":";
    append_escaped(out, report.phases[i].name);
    out += ",\"spans\":";
    append_u64(out, report.phases[i].spans);
    out += ",\"total_ns\":";
    append_u64(out, report.phases[i].total_ns);
    out += '}';
  }
  out += "],\"series\":{";
  for (std::size_t i = 0; i < report.series.size(); ++i) {
    if (i != 0) out += ',';
    append_escaped(out, report.series[i].name);
    out += ":[";
    for (std::size_t j = 0; j < report.series[i].values.size(); ++j) {
      if (j != 0) out += ',';
      append_double(out, report.series[i].values[j]);
    }
    out += ']';
  }
  out += "}}";
  return out;
}

std::string to_chrome_trace(const RunReport& report) {
  // Complete ("X") events, timestamps in microseconds — the schema of
  // chrome://tracing and ui.perfetto.dev.
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < report.trace.size(); ++i) {
    const TraceEvent& e = report.trace[i];
    if (i != 0) out += ',';
    out += "{\"name\":";
    append_escaped(out, e.name);
    out += ",\"cat\":\"dpoaf\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    append_u64(out, e.tid);
    out += ",\"ts\":";
    append_double(out, static_cast<double>(e.start_ns) / 1000.0);
    out += ",\"dur\":";
    append_double(out, static_cast<double>(e.dur_ns) / 1000.0);
    out += '}';
  }
  out += "]}";
  return out;
}

bool write_text_file(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.put('\n');
  return static_cast<bool>(out);
}

}  // namespace dpoaf::obs
