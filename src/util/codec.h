// Versioned binary snapshot codec for checkpoint/restore.
//
// The always-on service plane (lg::fleet) snapshots a live shard — SoA RIBs,
// interned path tables, episode machines, budgets, observability registries —
// and a restored process must resume *byte-identically*. That rules out any
// text round-trip (printf/parse loses the low bits of a double) and any
// pointer- or hash-order-dependent encoding. BinWriter/BinReader therefore
// serialize fixed-width little-endian integers and bit-exact doubles into a
// std::string blob, with a magic+version header so an old snapshot fails
// loudly instead of misparsing.
//
// Field lists. Each checkpointed record states its wire format once, as a
// template over the direction: BinWriter runs it to save, BinReader to
// load. The method names the wire width and the reader's in-place form
// narrows back to the field's type, so `io.u32(st.flap_count)` writes a
// uint16_t as 4 bytes and reads it back into the uint16_t. Steps only a load
// takes (re-interning, validation, rebuilding derived state) sit behind
// `Io::kReading`, and a save passes the record as const:
//
//   template <typename Io, typename Self>  // Self = T, or const T on save
//   void fields(Io& io, Self& t) {
//     io.magic(kTag, kVersion);
//     io.u64(t.ticks);
//     io.vec(t.owners, 4, [&](auto& owner) { io.u32(owner); });
//     if constexpr (Io::kReading) {
//       if (t.owners.size() != t.slots) throw std::runtime_error("...");
//     }
//   }
//
// Decode errors throw std::runtime_error: a snapshot is operator input, and
// the topology loader set the convention that malformed input gets a
// diagnostic, not undefined behaviour.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace lg::util {

class BinWriter {
 public:
  static constexpr bool kReading = false;

  // Every snapshot section starts with a magic tag + version, so a reader
  // can verify it is looking at the section it expects.
  void magic(std::uint32_t tag, std::uint32_t version) {
    u32(tag);
    u32(version);
  }

  // Integer (or enum) fields of any width, written at the named wire width.
  template <typename T>
  void u8(T v) { put(wire(v), 1); }
  template <typename T>
  void u32(T v) { put(wire(v), 4); }
  template <typename T>
  void u64(T v) { put(wire(v), 8); }
  template <typename T>
  void i64(T v) { put(static_cast<std::int64_t>(wire(v)), 8); }
  template <typename T>
  void size(T v) { u64(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  // Bit-exact: doubles round-trip through their IEEE-754 representation.
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    size(s.size());
    buf_.append(s);
  }

  // Record counts and containers. `min_record_bytes` only matters to the
  // reader (see BinReader::count); the writer accepts it so one field list
  // serves both directions.
  void count(std::size_t n, std::size_t /*min_record_bytes*/) { size(n); }
  template <typename T, typename Fn>
  void vec(const std::vector<T>& v, std::size_t /*min_record_bytes*/,
           Fn&& fn) {
    size(v.size());
    for (const T& x : v) fn(x);
  }
  template <typename T, typename Fn>
  void vec(const std::vector<T>& v, Fn&& fn) {
    vec(v, 1, fn);
  }
  template <typename T, typename Fn>
  void opt(const std::optional<T>& v, Fn&& fn) {
    b(v.has_value());
    if (v.has_value()) fn(*v);
  }

  const std::string& blob() const noexcept { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  template <typename T>
  static auto wire(T v) {
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                  "integer wire fields take integers or enums");
    if constexpr (std::is_enum_v<T>) {
      return static_cast<std::underlying_type_t<T>>(v);
    } else {
      return v;
    }
  }
  // The low `width` bytes of v, little-endian.
  void put(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      buf_.push_back(static_cast<char>(v >> (8 * i)));
    }
  }

  std::string buf_;
};

class BinReader {
 public:
  static constexpr bool kReading = true;

  explicit BinReader(const std::string& blob) : buf_(&blob) {}

  void magic(std::uint32_t tag, std::uint32_t version) {
    const std::uint32_t got_tag = u32();
    const std::uint32_t got_version = u32();
    if (got_tag != tag) {
      throw std::runtime_error("snapshot: bad section tag (corrupt or "
                               "truncated snapshot)");
    }
    if (got_version != version) {
      throw std::runtime_error(
          "snapshot: section version " + std::to_string(got_version) +
          ", this build reads version " + std::to_string(version));
    }
  }

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>((*buf_)[pos_++]);
  }
  bool b() { return u8() != 0; }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get(4)); }
  std::uint64_t u64() { return get(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::size_t size() {
    const std::uint64_t v = u64();
    if (v > remaining()) {
      // Every size prefixes at least one byte per element downstream, so a
      // size beyond the remaining blob is always corruption; failing here keeps an
      // attacker-sized allocation from happening at all.
      throw std::runtime_error("snapshot: size field exceeds blob length");
    }
    return static_cast<std::size_t>(v);
  }
  // A count of multi-byte records: validated against what could possibly fit.
  std::size_t count(std::size_t min_record_bytes) {
    const std::uint64_t v = u64();
    if (min_record_bytes != 0 && v > remaining() / min_record_bytes) {
      throw std::runtime_error("snapshot: record count exceeds blob length");
    }
    return static_cast<std::size_t>(v);
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::size_t n = size();
    need(n);
    std::string s = buf_->substr(pos_, n);
    pos_ += n;
    return s;
  }

  // In-place forms for field lists: read the named wire width and narrow
  // back to the field's type.
  template <typename T>
  void u8(T& v) { v = static_cast<T>(u8()); }
  template <typename T>
  void u32(T& v) { v = static_cast<T>(u32()); }
  template <typename T>
  void u64(T& v) { v = static_cast<T>(u64()); }
  template <typename T>
  void i64(T& v) { v = static_cast<T>(i64()); }
  template <typename T>
  void size(T& v) { v = static_cast<T>(size()); }
  void b(bool& v) { v = b(); }
  void f64(double& v) { v = f64(); }
  void str(std::string& s) { s = str(); }

  void count(std::size_t& n, std::size_t min_record_bytes) {
    n = count(min_record_bytes);
  }
  template <typename T, typename Fn>
  void vec(std::vector<T>& v, std::size_t min_record_bytes, Fn&& fn) {
    const std::size_t n = count(min_record_bytes);
    v.clear();
    v.resize(n);
    for (T& x : v) fn(x);
  }
  template <typename T, typename Fn>
  void vec(std::vector<T>& v, Fn&& fn) {
    vec(v, 1, fn);
  }
  template <typename T, typename Fn>
  void opt(std::optional<T>& v, Fn&& fn) {
    v.reset();
    if (b()) fn(v.emplace());
  }

  bool at_end() const noexcept { return pos_ == buf_->size(); }
  std::size_t remaining() const noexcept { return buf_->size() - pos_; }

 private:
  void need(std::size_t n) const {
    if (buf_->size() - pos_ < n) {
      throw std::runtime_error("snapshot: truncated blob");
    }
  }
  std::uint64_t get(int width) {
    need(static_cast<std::size_t>(width));
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>((*buf_)[pos_++]))
           << (8 * i);
    }
    return v;
  }

  const std::string* buf_;
  std::size_t pos_ = 0;
};

}  // namespace lg::util
