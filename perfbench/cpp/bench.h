// Shared plumbing of the outside-in benchmark harness: options, the wall
// clock, the in-memory span log, and the raw result that run.py turns into
// metrics. Every span is recorded here, around calls into the program's
// public API; nothing inside the program is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace lgb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;   // where the span log goes at exit (trace only)
  std::string scratch = ".";  // directory for checkpoint files
  std::size_t threads = 4;  // load-generating threads (service_stream)
  std::size_t setups = 3;   // world builds per run; setup_s is their median
};

// Seconds on the steady clock since the first call.
inline double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point t0 = clock::now();
  return std::chrono::duration<double>(clock::now() - t0).count();
}

// FNV-1a over 64-bit words, the digest every workload folds its outputs
// into.
class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (i * 8)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  void mix(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ULL;
    }
  }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// Wall-clock spans kept in memory: name, start, end, parent, and the id of
// the op (unit of work) they belong to. Single-threaded: lgbench calls
// into the program from its main thread only. With tracing off a Scope
// costs one branch.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  void set_enabled(bool on) noexcept { on_ = on; }
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(&log) {
      if (!log.on_) return;
      index_ = log.spans_.size();
      const std::uint32_t parent =
          log.open_.empty() ? 0u : log.open_.back() + 1u;
      log.spans_.push_back({name, parent, log.op_, now_s(), -1.0});
      log.open_.push_back(static_cast<std::uint32_t>(index_));
    }
    ~Scope() {
      if (index_ == kNone) return;
      log_->spans_[index_].t1 = now_s();
      log_->open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    static constexpr std::size_t kNone = ~std::size_t{0};
    SpanLog* log_;
    std::size_t index_ = kNone;
  };

  // One span per line: id parent op start end name (ids are 1-based,
  // parent 0 = root). Returns false if the file could not be written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu %u %llu %.9f %.9f %s\n", i + 1, s.parent,
                   static_cast<unsigned long long>(s.op), s.t0, s.t1, s.name);
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::uint64_t op;
    double t0;
    double t1;
  };
  bool on_;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

// One timed unit of work (an op, an episode, a stream cycle) with its
// correctness verdict and the figures read at its boundaries.
struct Unit {
  std::string kind;
  double wall_s = 0.0;
  bool ok = true;
  bool traced = false;
  std::string digest;
  std::string why;  // failed check, empty when ok
  std::vector<std::pair<std::string, double>> figures;
  void fig(const std::string& name, double v) { figures.emplace_back(name, v); }
};

// What one run hands back to run.py (as JSON on stdout).
struct Result {
  std::vector<double> setup_s;
  std::vector<std::string> setup_digest;
  std::vector<Unit> units;
  std::vector<std::pair<std::string, double>> figures;  // run-level
  std::vector<std::pair<std::string, std::string>> info;
  void fig(const std::string& name, double v) { figures.emplace_back(name, v); }
};

// Runs `step(i, traced)` for i = 0, 1, ... until `opt.seconds` of wall
// time have passed (at least once). With tracing on, the first half of the
// budget runs untraced and the same steps are then replayed with spans on,
// so tracing overhead is measured on identical inputs.
template <typename Step>
void drive(const Options& opt, SpanLog& spans, Step&& step) {
  const double budget = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const double start = now_s();
  std::size_t n = 0;
  do {
    step(n++, false);
  } while (now_s() - start < budget);
  if (!opt.trace) return;
  spans.set_enabled(true);
  for (std::size_t i = 0; i < n; ++i) step(i, true);
  spans.set_enabled(false);
}

// Workload entry points. Each builds its world `opt.setups` times (timed),
// then runs its units through drive().
void run_inet70k(const Options& opt, SpanLog& spans, Result& out);
void run_outage_repair(const Options& opt, SpanLog& spans, Result& out);
void run_service_stream(const Options& opt, SpanLog& spans, Result& out);

}  // namespace lgb
