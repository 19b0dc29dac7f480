// FNV-1a, 64-bit: the digest behind every determinism fingerprint (service
// episode records, converged RIBs, engine and checkpoint goldens). A word is
// mixed as its 8 little-endian bytes — its util/codec.h wire encoding — and
// a double by its IEEE-754 bits.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace lg::util {

struct Fnv1a64 {
  std::uint64_t state = 1469598103934665603ULL;

  Fnv1a64& bytes(std::string_view s) noexcept {
    for (const char c : s) {
      state ^= static_cast<std::uint8_t>(c);
      state *= 1099511628211ULL;
    }
    return *this;
  }
  Fnv1a64& u64(std::uint64_t v) noexcept {
    char le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<char>(v >> (8 * i));
    return bytes(std::string_view(le, sizeof(le)));
  }
  Fnv1a64& f64(double v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return u64(bits);
  }
};

inline std::uint64_t fnv1a64(std::string_view s) noexcept {
  return Fnv1a64{}.bytes(s).state;
}

}  // namespace lg::util
