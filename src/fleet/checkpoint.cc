#include "fleet/checkpoint.h"

namespace lg::fleet {

namespace {
constexpr std::uint32_t kMetricsTag = 0x5254454d;  // "METR"
constexpr std::uint32_t kSpansTag = 0x4e415053;    // "SPAN"
constexpr std::uint32_t kTraceTag = 0x43415254;    // "TRAC"
}  // namespace

void save_metrics(util::BinWriter& w, const obs::MetricsRegistry& reg) {
  w.magic(kMetricsTag, kSectionVersion);
  const auto counters = reg.counters();
  w.u64(counters.size());
  for (const obs::Counter* c : counters) {
    w.str(c->name());
    w.u64(c->value());
  }
  const auto gauges = reg.gauges();
  w.u64(gauges.size());
  for (const obs::Gauge* g : gauges) {
    w.str(g->name());
    w.f64(g->value());
    w.f64(g->max());
  }
  const auto dists = reg.distributions();
  w.u64(dists.size());
  for (const obs::Distribution* d : dists) {
    w.str(d->name());
    const util::Summary& s = d->summary();
    w.u64(s.count());
    w.f64(s.mean());
    w.f64(s.m2());
    w.f64(s.min());
    w.f64(s.max());
    const auto& samples = d->cdf().raw_samples();
    w.u64(samples.size());
    for (const double x : samples) w.f64(x);
  }
}

void load_metrics(util::BinReader& r, obs::MetricsRegistry& reg) {
  r.magic(kMetricsTag, kSectionVersion);
  reg.reset();
  const std::size_t n_counters = r.count(16);
  for (std::size_t i = 0; i < n_counters; ++i) {
    const std::string name = r.str();
    reg.counter(name).restore(r.u64());
  }
  const std::size_t n_gauges = r.count(24);
  for (std::size_t i = 0; i < n_gauges; ++i) {
    const std::string name = r.str();
    const double value = r.f64();
    const double max = r.f64();
    reg.gauge(name).restore(value, max);
  }
  const std::size_t n_dists = r.count(48);
  for (std::size_t i = 0; i < n_dists; ++i) {
    const std::string name = r.str();
    const std::size_t n = static_cast<std::size_t>(r.u64());
    const double mean = r.f64();
    const double m2 = r.f64();
    const double min = r.f64();
    const double max = r.f64();
    const std::size_t n_samples = r.count(8);
    std::vector<double> samples;
    samples.reserve(n_samples);
    for (std::size_t j = 0; j < n_samples; ++j) samples.push_back(r.f64());
    reg.distribution(name).restore(n, mean, m2, min, max, std::move(samples));
  }
}

void save_spans(util::BinWriter& w, const obs::SpanRegistry& reg) {
  w.magic(kSpansTag, kSectionVersion);
  w.b(reg.enabled());
  w.u64(reg.seed());
  w.u64(reg.sequence());
  w.u64(reg.epoch());
  w.u32(reg.track());
  w.u64(reg.records().size());
  for (const obs::SpanRecord& rec : reg.records()) {
    w.u64(rec.id);
    w.u64(rec.parent);
    w.str(rec.name);
    w.f64(rec.begin);
    w.f64(rec.end);
    w.u64(rec.a);
    w.u64(rec.b);
    w.u32(rec.track);
    w.u64(rec.notes.size());
    for (const auto& [key, value] : rec.notes) {
      w.str(key);
      w.f64(value);
    }
  }
}

void load_spans(util::BinReader& r, obs::SpanRegistry& reg) {
  r.magic(kSpansTag, kSectionVersion);
  reg.clear();
  reg.set_enabled(r.b());
  const std::uint64_t seed = r.u64();
  const std::uint64_t sequence = r.u64();
  const std::uint64_t epoch = r.u64();
  const std::uint32_t track = r.u32();
  reg.restore_stream(seed, sequence, epoch, track);
  const std::size_t n = r.count(64);
  for (std::size_t i = 0; i < n; ++i) {
    obs::SpanRecord rec;
    rec.id = r.u64();
    rec.parent = r.u64();
    rec.name = obs::SpanRegistry::intern_name(r.str());
    rec.begin = r.f64();
    rec.end = r.f64();
    rec.a = r.u64();
    rec.b = r.u64();
    rec.track = r.u32();
    const std::size_t n_notes = r.count(16);
    rec.notes.reserve(n_notes);
    for (std::size_t j = 0; j < n_notes; ++j) {
      const char* key = obs::SpanRegistry::intern_name(r.str());
      rec.notes.emplace_back(key, r.f64());
    }
    reg.restore_record(rec);
  }
}

void save_trace(util::BinWriter& w, const obs::TraceRing& ring) {
  w.magic(kTraceTag, kSectionVersion);
  w.b(ring.enabled());
  // recorded() already folds merge-inherited drops in, and dropped() is
  // always recorded() - size(), so the lifetime total plus the held events
  // reproduce both public counters exactly.
  w.u64(ring.recorded());
  const auto events = ring.events();
  w.u64(events.size());
  for (const obs::TraceEvent& e : events) {
    w.f64(e.t);
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u64(e.a);
    w.u64(e.b);
    w.f64(e.value);
  }
}

void load_trace(util::BinReader& r, obs::TraceRing& ring) {
  r.magic(kTraceTag, kSectionVersion);
  ring.clear();
  ring.set_enabled(r.b());
  const std::uint64_t recorded = r.u64();
  const std::size_t n = r.count(33);
  std::vector<obs::TraceEvent> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    obs::TraceEvent e;
    e.t = r.f64();
    e.kind = static_cast<obs::TraceKind>(r.u8());
    e.a = r.u64();
    e.b = r.u64();
    e.value = r.f64();
    events.push_back(e);
  }
  ring.restore(recorded, 0, events);
}

}  // namespace lg::fleet
