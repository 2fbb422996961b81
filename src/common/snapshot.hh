// Versioned binary snapshot encoding with per-section CRC32 integrity.
//
// The durability layer (sim/checkpoint.hh, runner journal/supervisor)
// serializes simulator state through these two classes. Goals:
//   * platform-independent: explicit little-endian byte order, doubles as
//     IEEE-754 bit patterns — a checkpoint restores bit-identically;
//   * tamper/truncation evident: every section is [tag][size][payload][crc]
//     and the reader verifies the CRC before handing out a single byte, so
//     a torn write or flipped bit surfaces as SimError(Snapshot), never as
//     a silently wrong simulation;
//   * dependency-free: no third-party serialization library (the container
//     must not grow deps), just a CRC32 table built at compile time.
//
// Sections are flat (no nesting) and must be read back in write order —
// the format is a checkpoint, not an archive.
//
// A component writes its state as one `template <class Ar> void io(Ar&)`
// over the field API at the bottom of this file, which saves when Ar is
// Writer and restores when Ar is Reader, so every field is named once.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/random.hh"
#include "common/stats.hh"
#include "fault/sim_error.hh"

namespace hmm::snap {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
namespace detail {
[[nodiscard]] constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[i] = c;
  }
  return t;
}
inline constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();
}  // namespace detail

[[nodiscard]] inline std::uint32_t crc32(const std::uint8_t* data,
                                         std::size_t len,
                                         std::uint32_t seed = 0) noexcept {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i)
    c = detail::kCrcTable[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

/// Section tag: four printable bytes, e.g. "TTBL" for the translation table.
[[nodiscard]] constexpr std::uint32_t tag(char a, char b, char c,
                                          char d) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

[[nodiscard]] inline std::string tag_name(std::uint32_t t) {
  std::string s(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((t >> (8 * i)) & 0xFF);
    s[static_cast<std::size_t>(i)] = (c >= 0x20 && c < 0x7F) ? c : '?';
  }
  return s;
}

[[noreturn]] inline void snapshot_error(const std::string& what) {
  throw fault::SimError(fault::SimErrorKind::Snapshot, what);
}

class Writer {
 public:
  /// Little-endian integer of exactly sizeof(W) bytes.
  template <class W>
  void put(W v) {
    le(static_cast<std::uint64_t>(v), static_cast<int>(sizeof(W)));
  }
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Opens a section; all writes until end_section() become its payload.
  void begin_section(std::uint32_t section_tag) {
    if (open_) snapshot_error("nested snapshot sections are not supported");
    open_ = true;
    u32(section_tag);
    size_pos_ = buf_.size();
    u64(0);  // payload size, patched by end_section()
  }

  void end_section() {
    if (!open_) snapshot_error("end_section without begin_section");
    open_ = false;
    const std::size_t payload_start = size_pos_ + 8;
    const std::uint64_t payload_size = buf_.size() - payload_start;
    for (int i = 0; i < 8; ++i)
      buf_[size_pos_ + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((payload_size >> (8 * i)) & 0xFF);
    u32(crc32(buf_.data() + payload_start, payload_size));
  }

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }

 private:
  void le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i)
      buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }

  std::vector<std::uint8_t> buf_;
  bool open_ = false;
  std::size_t size_pos_ = 0;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  template <class W>
  [[nodiscard]] W get() {
    return static_cast<W>(le(static_cast<int>(sizeof(W))));
  }
  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  [[nodiscard]] std::uint16_t u16() { return get<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return get<std::uint64_t>(); }
  /// A bool byte; anything but 0 or 1 is not a byte Writer::b() writes.
  [[nodiscard]] bool b() {
    const std::uint8_t v = u8();
    if (v > 1)
      snapshot_error("bool byte " + std::to_string(v) + " is neither 0 nor 1");
    return v != 0;
  }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  /// A u64 element count, refused when larger than the bytes left (in
  /// the open section, if any) before anything is allocated from it:
  /// every element takes at least one byte, so only a corrupt or crafted
  /// file can carry such a count.
  [[nodiscard]] std::uint64_t count() {
    const std::uint64_t n = u64();
    const std::size_t end = section_end_ != 0 ? section_end_ : len_;
    if (n > end - pos_)
      snapshot_error("element count " + std::to_string(n) + " exceeds the " +
                     std::to_string(end - pos_) + " bytes left at offset " +
                     std::to_string(pos_));
    return n;
  }

  [[nodiscard]] std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  /// Reads and validates the next section header; the CRC of the whole
  /// payload is verified up front so later reads cannot see corrupt bytes.
  void begin_section(std::uint32_t expected_tag) {
    if (section_end_ != 0)
      snapshot_error("begin_section inside an open section");
    const std::uint32_t t = u32();
    if (t != expected_tag)
      snapshot_error("snapshot section mismatch: expected '" +
                     tag_name(expected_tag) + "', found '" + tag_name(t) +
                     "' (incompatible or reordered checkpoint)");
    const std::uint64_t size = u64();
    need(size + 4);
    const std::uint32_t want =
        crc32(data_ + pos_, static_cast<std::size_t>(size));
    std::uint32_t got = 0;
    for (int i = 0; i < 4; ++i)
      got |= static_cast<std::uint32_t>(data_[pos_ + size +
                                              static_cast<std::size_t>(i)])
             << (8 * i);
    if (want != got)
      snapshot_error("CRC mismatch in section '" + tag_name(t) +
                     "': checkpoint is corrupt or truncated");
    section_end_ = pos_ + static_cast<std::size_t>(size);
  }

  void end_section() {
    if (section_end_ == 0) snapshot_error("end_section without a section");
    if (pos_ != section_end_)
      snapshot_error("section payload not fully consumed (version skew)");
    pos_ += 4;  // the already-verified CRC
    section_end_ = 0;
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= len_; }

 private:
  void need(std::uint64_t n) const {
    if (pos_ + n > len_ || pos_ + n < pos_)
      snapshot_error("snapshot truncated: need " + std::to_string(n) +
                     " bytes at offset " + std::to_string(pos_));
    if (section_end_ != 0 && pos_ + n > section_end_)
      snapshot_error("read past the end of the current section");
  }

  std::uint64_t le(int n) {
    need(static_cast<std::uint64_t>(n));
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i)
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
  std::size_t section_end_ = 0;  ///< 0 = no section open
};

// --- the field API ---------------------------------------------------------
//
// Each call names one field and works in both directions: with a Writer
// it appends the field, with a Reader it assigns it. Scalars spell their
// wire width and never deduce it from the field's type — SlotId is
// 32-bit in memory but u64 on the wire in 'TTBL', 'MENG', 'CLCK' and
// 'FHMA', so a deduced width would change every checkpoint. A
// component's save() runs io() through const_cast: handed a Writer,
// io() only reads.

template <class Ar>
inline constexpr bool kSaving = std::is_same_v<Ar, Writer>;

/// One integer, bool or enum field at wire width W. On restore, a wire
/// value the field's type cannot hold (a bool byte of 2, a u64 past a
/// 32-bit SlotId) is refused: adopting it would change the value and
/// re-save different bytes.
template <class W, class Ar, class T>
void fixed(Ar& ar, T& v) {
  if constexpr (kSaving<Ar>) {
    ar.put(static_cast<W>(v));
  } else {
    const W x = ar.template get<W>();
    v = static_cast<T>(x);
    if (static_cast<W>(v) != x)
      snapshot_error("field value " + std::to_string(x) +
                     " does not fit the field's type");
  }
}

template <class Ar, class T>
void u8(Ar& ar, T& v) {
  fixed<std::uint8_t>(ar, v);
}
template <class Ar, class T>
void u32(Ar& ar, T& v) {
  fixed<std::uint32_t>(ar, v);
}
template <class Ar, class T>
void u64(Ar& ar, T& v) {
  fixed<std::uint64_t>(ar, v);
}
/// A bool as one byte, 0 or 1.
template <class Ar, class T>
void b(Ar& ar, T& v) {
  fixed<std::uint8_t>(ar, v);
}
template <class Ar>
void f64(Ar& ar, double& v) {
  if constexpr (kSaving<Ar>)
    ar.f64(v);
  else
    v = ar.f64();
}
template <class Ar>
void str(Ar& ar, std::string& v) {
  if constexpr (kSaving<Ar>)
    ar.str(v);
  else
    v = ar.str();
}

/// A construction-time shape (a slot or channel count, a mode): written,
/// and on restore compared with the constructed object rather than
/// adopted, so a checkpoint of a differently built object is refused.
template <class W, class Ar, class T>
void expect(Ar& ar, const T& v, const char* what) {
  if constexpr (kSaving<Ar>) {
    ar.put(static_cast<W>(v));
  } else if (ar.template get<W>() != static_cast<W>(v)) {
    snapshot_error(std::string(what) +
                   " mismatch: the checkpoint was taken on a different "
                   "configuration");
  }
}

/// One CRC-framed section whose payload is whatever `body` reads/writes.
template <class Ar, class F>
void section(Ar& ar, std::uint32_t section_tag, F&& body) {
  ar.begin_section(section_tag);
  body();
  ar.end_section();
}

/// A nested component, through its own save()/restore().
template <class Ar, class C>
void part(Ar& ar, C& c) {
  if constexpr (kSaving<Ar>)
    c.save(ar);
  else
    c.restore(ar);
}

/// A u64 count, then `each(element)` in order. Restore rebuilds the
/// container from value-initialized elements.
template <class Ar, class V, class F>
void seq(Ar& ar, V& v, F&& each) {
  if constexpr (kSaving<Ar>) {
    ar.u64(v.size());
  } else {
    v.clear();
    v.resize(ar.count());
  }
  for (auto& x : v) each(x);
}

/// A std::vector<bool>: a u64 count, then one byte per bit.
template <class Ar>
void bits(Ar& ar, std::vector<bool>& v) {
  if constexpr (kSaving<Ar>) {
    ar.u64(v.size());
    for (const bool bit : v) ar.b(bit);
  } else {
    v.assign(ar.count(), false);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = ar.b();
  }
}

/// Restore's check on the keys of an ascending list (sorted_map's): a
/// repeated or descending key would restore, then re-save to other bytes.
template <class K>
void ascending(std::uint64_t i, const K& prev, const K& k) {
  if (i > 0 && !(prev < k))
    snapshot_error("map or set keys not strictly ascending");
}

/// A u64 count, then `each(key, value)` in strictly ascending key order,
/// so the bytes never depend on hash-table iteration order.
template <class Ar, class M, class F>
void sorted_map(Ar& ar, M& m, F&& each) {
  if constexpr (kSaving<Ar>) {
    std::vector<const typename M::value_type*> order;
    order.reserve(m.size());
    // analyze: allow(determinism): sorted by key before anything is written
    for (const auto& e : m) order.push_back(&e);
    std::sort(order.begin(), order.end(),
              [](const auto* x, const auto* y) { return x->first < y->first; });
    ar.u64(order.size());
    for (const auto* e : order) each(e->first, e->second);
  } else {
    m.clear();
    typename M::key_type prev{};
    for (std::uint64_t n = ar.count(), i = 0; i < n; ++i) {
      typename M::key_type k{};
      typename M::mapped_type v{};
      each(k, v);
      ascending(i, prev, k);
      m.insert_or_assign(k, v);
      prev = k;
    }
  }
}

/// RunningStat's raw accumulators (count, sum, min, max), sentinels
/// included, so a restored stat is bit-identical.
template <class Ar>
void stat(Ar& ar, RunningStat& s) {
  RunningStat::Raw raw = s.raw();
  u64(ar, raw.count);
  f64(ar, raw.sum);
  f64(ar, raw.min);
  f64(ar, raw.max);
  if constexpr (!kSaving<Ar>) s.set_raw(raw);
}

/// A Pcg32's (state, inc).
template <class Ar>
void rng(Ar& ar, Pcg32& g) {
  Pcg32::Raw raw = g.raw();
  u64(ar, raw.state);
  u64(ar, raw.inc);
  if constexpr (!kSaving<Ar>) g.set_raw(raw);
}

/// Every Log2Histogram bucket, then the total.
template <class Ar>
void hist(Ar& ar, Log2Histogram& h) {
  for (unsigned i = 0; i < Log2Histogram::kBuckets; ++i) {
    std::uint64_t n = h.bucket(i);
    u64(ar, n);
    if constexpr (!kSaving<Ar>) h.set_bucket(i, n);
  }
  std::uint64_t total = h.total();
  u64(ar, total);
  if constexpr (!kSaving<Ar>) h.set_total(total);
}

}  // namespace hmm::snap
