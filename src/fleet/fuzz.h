// lg::fleet — seed-driven fleet scenario fuzzer.
//
// The lg::check fuzzer stresses the control plane; this one stresses the
// service plane above it. One scenario = one 64-bit seed, which derives a
// small random one-shard world (fleet/shard.h), a monitored-target slice,
// budget knobs, and a script of concurrent silent outages (mostly
// reverse-path failures toward the origin — the correlated case that opens
// many episodes at once). The EpisodeManager runs the script to
// quiescence, optionally under an lg::faults plane, and the end state is
// judged:
//
//  1. every episode closed (no state-machine leak past a full drain);
//  2. no poison left announced (every remediation reverted);
//  3. the BGP engine passes the full lg::check invariant audit — the fleet
//     multiplexed many repairs onto one prefix and still left the control
//     plane exactly at its baseline fixpoint;
//  4. episode records are internally consistent (timestamps ordered,
//     outcomes matched to the fields they imply);
//  5. announcement spend never exceeded the token bucket's hard capacity.
//
// Failing seeds print a replayable LG_CHECK_SEED line, same contract as
// lg::check (tests honor check::replay_seed_from_env()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lg::fleet {

struct FleetScenarioOptions {
  std::uint64_t seed = 1;
  // > 0 installs faults::FaultConfig::at_intensity(f) with a seed-derived
  // fault seed for the scenario's whole lifetime (plane installed before
  // the world is built, so every consumer resolves it).
  double fault_intensity = 0.0;
};

struct FleetScenarioResult {
  std::uint64_t seed = 0;
  std::size_t targets = 0;
  std::size_t outages = 0;
  std::size_t episodes = 0;
  std::size_t open_at_end = 0;
  std::size_t poisons_at_end = 0;
  bool records_consistent = true;
  std::string first_record_issue;
  std::size_t invariant_violations = 0;
  std::string first_violation;
  bool budget_respected = true;

  bool ok() const {
    return open_at_end == 0 && poisons_at_end == 0 && records_consistent &&
           invariant_violations == 0 && budget_respected;
  }
  // One-line judgment for logs.
  std::string summary() const;
};

// Builds, runs, and judges the scenario for `opt.seed`. Deterministic: the
// same options always produce the same result.
FleetScenarioResult run_fleet_scenario(const FleetScenarioOptions& opt);

struct FleetSweepSummary {
  std::size_t runs = 0;
  std::vector<std::uint64_t> failing_seeds;
  bool ok() const { return failing_seeds.empty(); }
};

// Runs seeds [first_seed, first_seed + count) at the given fault intensity.
// When log_failures is set, each failing seed prints a replayable
// "LG_CHECK_SEED=<seed>" line to stderr.
FleetSweepSummary run_fleet_sweep(std::uint64_t first_seed, std::size_t count,
                                  double fault_intensity = 0.0,
                                  bool log_failures = true);

}  // namespace lg::fleet
