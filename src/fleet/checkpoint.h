// Checkpoint sections for the pieces of a service-plane shard that no
// single subsystem owns: RNG states, token buckets, and the observability
// registries (metrics, spans, trace ring).
//
// RNG and bucket sections are field lists (util/codec.h), one template for
// both directions. The registry sections stay save/load pairs because a
// load rebuilds live registries by name rather than copying fields: a
// restored shard's registries must match the original process exactly —
// stdout, BENCH_*.json and span digests are rendered from them — so the
// loaders reinstate saved contents verbatim instead of replaying history.
//
// Every section is magic-tagged, so a reader that drifts out of sync fails
// loudly at the next section boundary instead of misparsing doubles as
// counts.
#pragma once

#include <cstdint>

#include "fleet/budget.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "util/codec.h"
#include "util/rng.h"

namespace lg::fleet {

inline constexpr std::uint32_t kRngTag = 0x20474e52;     // "RNG "
inline constexpr std::uint32_t kBucketTag = 0x544b4342;  // "BCKT"
inline constexpr std::uint32_t kSectionVersion = 1;

// One generator's complete state (8+8+1+8 bytes, bit-exact cached normal).
// R is const util::Rng on save.
template <typename Io, typename R>
void rng_section(Io& io, R& rng) {
  io.magic(kRngTag, kSectionVersion);
  util::rng_fields(io, rng);
}

// A TokenBucket's mutable state (rate/burst are configuration, rebuilt on
// restore). B is const TokenBucket on save.
template <typename Io, typename B>
void bucket_section(Io& io, B& bucket) {
  io.magic(kBucketTag, kSectionVersion);
  TokenBucket::State s = bucket.save_state();
  io.f64(s.tokens);
  io.f64(s.last);
  io.f64(s.spent);
  io.u64(s.granted);
  io.u64(s.denied);
  if constexpr (Io::kReading) bucket.restore_state(s);
}

// Metrics: every counter/gauge/distribution by name, in name-sorted order.
// load_metrics resets `reg` first, then find-or-creates each named handle —
// existing handles held by live instrumented objects stay valid and see the
// restored values.
void save_metrics(util::BinWriter& w, const obs::MetricsRegistry& reg);
void load_metrics(util::BinReader& r, obs::MetricsRegistry& reg);

// Spans: the id-stream position (seed/sequence/epoch/track) plus every
// record in recording order. load_spans clears `reg` and replays records
// with their original ids, so SpanIds held by live episode machines keep
// resolving after a restore.
void save_spans(util::BinWriter& w, const obs::SpanRegistry& reg);
void load_spans(util::BinReader& r, obs::SpanRegistry& reg);

// Trace ring: lifetime counters plus held events, oldest first.
void save_trace(util::BinWriter& w, const obs::TraceRing& ring);
void load_trace(util::BinReader& r, obs::TraceRing& ring);

}  // namespace lg::fleet
