// Shared output helpers for the reproduction harnesses: each bench prints
// the paper's table/figure rows alongside our measured values so
// EXPERIMENTS.md can be regenerated by redirecting stdout, and each writes a
// machine-readable BENCH_<name>.json run report alongside it (see
// obs/report.h) so the perf/behaviour trajectory is diffable across PRs.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/perfetto.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace lg::bench {

// Wall-clock note for the parallel harnesses. Deliberately written to
// *stderr*: stdout and the BENCH_*.json payload must stay byte-identical for
// every LG_THREADS setting, and elapsed time is the one thing that cannot.
class WallClock {
 public:
  WallClock(std::string label, std::size_t trials, std::size_t threads)
      : label_(std::move(label)),
        trials_(trials),
        threads_(threads),
        start_(std::chrono::steady_clock::now()) {}
  WallClock(const WallClock&) = delete;
  WallClock& operator=(const WallClock&) = delete;
  ~WallClock() {
    const auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start_);
    std::fprintf(stderr, "[%s] %zu trials on %zu thread%s in %.2f s\n",
                 label_.c_str(), trials_, threads_, threads_ == 1 ? "" : "s",
                 elapsed.count());
  }

 private:
  std::string label_;
  std::size_t trials_;
  std::size_t threads_;
  std::chrono::steady_clock::time_point start_;
};

inline void header(const std::string& experiment_id,
                   const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment_id.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("==============================================================\n");
}

inline void section(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

// "paper vs measured" row with an optional note.
inline void compare_row(const std::string& metric, const std::string& paper,
                        const std::string& measured,
                        const std::string& note = {}) {
  std::printf("  %-52s paper: %-14s measured: %-14s %s\n", metric.c_str(),
              paper.c_str(), measured.c_str(), note.c_str());
}

inline void table(const std::vector<std::vector<std::string>>& rows) {
  std::printf("%s", util::render_table(rows).c_str());
}

inline void kv(const std::string& key, const std::string& value) {
  std::printf("  %-52s %s\n", key.c_str(), value.c_str());
}

// Nearest-rank quantile of an ascending-sorted sample; 0 when empty.
inline double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[idx < sorted.size() ? idx : sorted.size() - 1];
}

// RAII run report: construct right after header() (before the SimWorld so
// every metric lands in a fresh registry), add config/headline entries as
// the harness goes, and on scope exit it captures the global metrics
// registry plus the event trace and writes BENCH_<name>.json. LG_METRICS=off
// / LG_TRACE=off override the defaults for overhead experiments; LG_SPANS=on
// or a non-empty LG_TRACE_OUT turns span capture on (off by default), and
// LG_TRACE_OUT=<path> additionally writes a Perfetto/Chrome trace there.
// All Perfetto/export chatter goes to *stderr*: stdout must stay
// byte-identical whether spans are on or off.
class JsonReport {
 public:
  explicit JsonReport(const std::string& name) : report_(name) {
    auto& reg = obs::MetricsRegistry::global();
    reg.set_enabled(true);
    reg.configure_from_env();
    reg.reset();
    auto& ring = obs::TraceRing::global();
    ring.set_enabled(true);
    ring.configure_from_env();
    ring.clear();
    auto& spans = obs::SpanRegistry::global();
    spans.configure_from_env();
    spans.clear();
  }
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;
  ~JsonReport() {
    if (discarded_) return;
    report_.capture_metrics();
    report_.capture_traces();
    report_.capture_spans();
    if (const char* out = std::getenv("LG_TRACE_OUT");
        out != nullptr && out[0] != '\0') {
      if (obs::write_perfetto_trace(out, obs::SpanRegistry::global(),
                                    obs::TraceRing::global())) {
        std::fprintf(stderr, "[trace] Perfetto trace: %s\n", out);
      } else {
        std::fprintf(stderr, "[trace] FAILED to write %s\n", out);
      }
    }
    const std::string path = report_.default_path();
    if (report_.write_file(path)) {
      std::printf("\n  JSON report: %s\n", path.c_str());
    } else {
      std::printf("\n  JSON report: FAILED to write %s\n", path.c_str());
    }
  }

  obs::RunReport* operator->() { return &report_; }
  obs::RunReport& get() { return report_; }
  // Write no report: the run it would describe did not happen.
  void discard() { discarded_ = true; }

 private:
  obs::RunReport report_;
  bool discarded_ = false;
};

}  // namespace lg::bench
