// Strict parsing for numeric LG_* environment knobs. One rule for all of
// them: unset (or empty) keeps the default; any other value must parse in
// full as the knob's type and lie in its range, or the read throws
// std::invalid_argument naming the knob and the offending text. A forgiving
// parse is the worst failure mode for an experiment — a typo'd
// LG_FLEET_TARGETS=1O00 runs, succeeds, and reports numbers for a config
// nobody asked for — so malformed operator input gets a diagnostic, as in
// the topology loader (src/topology/io.cc).
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

namespace lg::util {

// The knob's value, or null when it is unset or empty.
inline const char* env_knob_text(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' ? v : nullptr;
}

[[noreturn]] inline void env_knob_error(const char* name, const char* v,
                                        const std::string& expected) {
  throw std::invalid_argument(std::string(name) + ": expected " + expected +
                              ", got '" + v + "'");
}

// A double in [min, max].
inline double env_double_knob(
    const char* name, double base, double min,
    double max = std::numeric_limits<double>::infinity()) {
  const char* v = env_knob_text(name);
  if (v == nullptr) return base;
  char* end = nullptr;
  const double n = std::strtod(v, &end);
  if (end == v || *end != '\0' || !(n >= min) || n > max) {
    char expected[64];
    std::snprintf(expected, sizeof(expected), "a number in [%g, %g]", min,
                  max);
    env_knob_error(name, v, expected);
  }
  return n;
}

inline std::uint64_t env_parse_u64(const char* name, const char* v,
                                   const char* expected) {
  // strtoull quietly wraps negatives; reject any sign up front.
  if (*v == '-' || *v == '+') env_knob_error(name, v, expected);
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE) {
    env_knob_error(name, v, expected);
  }
  return static_cast<std::uint64_t>(n);
}

// A decimal unsigned 64-bit integer (a seed): no sign, no hex, no overflow.
inline std::uint64_t env_u64_knob(const char* name, std::uint64_t base) {
  const char* v = env_knob_text(name);
  return v == nullptr ? base : env_parse_u64(name, v, "a decimal integer");
}

// A positive decimal integer (a count: zero is rejected too).
inline std::size_t env_size_knob(const char* name, std::size_t base) {
  const char* v = env_knob_text(name);
  if (v == nullptr) return base;
  const std::uint64_t n = env_parse_u64(name, v, "a positive integer");
  if (n == 0) env_knob_error(name, v, "a positive integer");
  return static_cast<std::size_t>(n);
}

// An on/off fraction (LG_FAULTS, LG_ADVERSARY): null when unset or "off",
// else a number in [0, 1].
inline std::optional<double> env_fraction_knob(const char* name) {
  const char* v = env_knob_text(name);
  if (v == nullptr || std::strcmp(v, "off") == 0) return std::nullopt;
  return env_double_knob(name, 0.0, 0.0, 1.0);
}

}  // namespace lg::util
