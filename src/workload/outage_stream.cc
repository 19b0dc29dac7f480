#include "workload/outage_stream.h"

#include <limits>

#include "util/codec.h"

namespace lg::workload {

namespace {
constexpr std::uint32_t kStreamTag = 0x52545354;  // "TSTR"
constexpr std::uint32_t kVersion = 1;
}  // namespace

OutageStream::OutageStream(OutageStreamConfig cfg)
    : cfg_(cfg), rng_(cfg.seed, cfg.stream) {}

void OutageStream::ensure_pending() {
  if (has_pending_) return;
  if (cfg_.rate_per_hour <= 0.0) {
    pending_ = OutageEvent{std::numeric_limits<double>::infinity(), 0.0};
    has_pending_ = true;
    return;
  }
  clock_ += rng_.exponential(3600.0 / cfg_.rate_per_hour);
  double d = sample_outage_duration(rng_, cfg_.durations);
  if (cfg_.duration_cap_seconds > 0.0 && d > cfg_.duration_cap_seconds) {
    d = cfg_.duration_cap_seconds;
  }
  pending_ = OutageEvent{clock_, d};
  has_pending_ = true;
  ++generated_;
}

double OutageStream::next_start() {
  ensure_pending();
  return pending_.start_seconds;
}

OutageEvent OutageStream::next() {
  ensure_pending();
  const OutageEvent out = pending_;
  // A silent stream's pending event is the +infinity sentinel; it is never
  // actually consumable, so keep it pending rather than "generating" more.
  if (cfg_.rate_per_hour > 0.0) has_pending_ = false;
  return out;
}

template <typename Io, typename Self>
void OutageStream::fields(Io& io, Self& self) {
  io.magic(kStreamTag, kVersion);
  util::rng_fields(io, self.rng_);
  io.f64(self.clock_);
  io.u64(self.generated_);
  io.b(self.has_pending_);
  io.f64(self.pending_.start_seconds);
  io.f64(self.pending_.duration_seconds);
}

void OutageStream::save(util::BinWriter& w) const { fields(w, *this); }

void OutageStream::load(util::BinReader& r) { fields(r, *this); }

}  // namespace lg::workload
