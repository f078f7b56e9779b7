// Field lists: one definition per persisted layout.
//
// Every byte layout the checkpoint files and the frame-ingest wire carry
// is written down once, as a `template <class Io>` function that names
// its fields in order.  FieldWriter runs a list to encode over a
// ByteWriter, FieldReader runs the same list to decode over a ByteReader,
// so the two directions cannot drift.  The reader's typed helpers hold
// the per-field validation and so apply to every field by construction:
// a flag is 0 or 1, an enum lies within its range, a count fits in the
// remaining bytes, a fingerprint equals the value the restoring object
// was built with.  Checks across fields (array lengths that must agree,
// deque invariants, a latched verdict inside the window range) stay
// explicit, after the list has run; restore paths decode into fresh
// values and commit only once those checks pass.
//
// Both adapters are thin inline wrappers: no virtual call or type erasure
// per field.  The layouts themselves live beside the types they persist
// (the save_state/restore_state pairs in signal/, core/ and engine/, the
// session codec and the NSFP payloads in engine/); tests/golden/ pins
// their bytes.
#ifndef NSYNC_SIGNAL_FIELDS_HPP
#define NSYNC_SIGNAL_FIELDS_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "signal/checkpoint.hpp"
#include "signal/signal.hpp"

namespace nsync::signal {

static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
              "size_t fields are u64 in every persisted layout");

/// The unsigned integer a field is stored as: its own type, or an enum's
/// underlying type.
template <class T>
using WireInt = std::make_unsigned_t<typename std::conditional_t<
    std::is_enum_v<T>, std::underlying_type<T>, std::type_identity<T>>::type>;

/// How a field list sees a value: read-only when encoding.
template <class Io, class T>
using FieldRef = std::conditional_t<Io::kDecodes, T&, const T&>;

/// Runs field lists to encode.
class FieldWriter {
 public:
  static constexpr bool kDecodes = false;

  explicit FieldWriter(ByteWriter& w) : w_(w) {}

  /// A fixed-width field, stored in its own width.
  template <class T>
  void pod(const T& v) {
    w_.pod<T>(v);
  }
  /// A fingerprint of the restoring object's configuration.
  template <class T>
  void expect(const T& v, const char*) {
    w_.pod<T>(v);
  }
  void flag(bool v, const char*) { w_.pod<std::uint8_t>(v ? 1 : 0); }
  void flag(std::uint8_t v, const char*) { w_.pod<std::uint8_t>(v); }
  /// An enum stored as `Wire` (default: its own WireInt).
  template <class Wire = void, class T, class E>
  void enumeration(const T& v, E, E, const char*) {
    using W = std::conditional_t<std::is_void_v<Wire>, WireInt<T>, Wire>;
    w_.pod<W>(static_cast<W>(v));
  }
  void str(const std::string& s) { w_.str(s); }
  void signal(const SignalView& s) { w_.signal(s); }
  /// u64 count, then the raw doubles (one memcpy).
  void f64s(std::span<const double> v) { w_.f64_array(v); }
  /// u64 count, then one byte per 0/1 flag (one memcpy).
  void flags(std::span<const std::uint8_t> v, const char*) {
    w_.u8_array(v);
  }
  /// u64 element count, then `each(element)` for every element.
  template <class C, class Each>
  void list(const C& v, const char*, Each&& each) {
    w_.pod<std::uint64_t>(v.size());
    for (const auto& x : v) each(x);
  }
  /// A (u32 id | u64 length | body) section; `body(io)` writes the body.
  template <class Body>
  void section(std::uint32_t id, Body&& body) {
    const std::size_t token = w_.begin_section(id);
    body(*this);
    w_.end_section(token);
  }
  /// A nested object that persists itself (save_state/restore_state).
  template <class T>
  void state(const T& x) {
    x.save_state(w_);
  }
  /// A value with its own codec: `save(writer, v)` / `v = load(reader)`.
  template <class T, class Save, class Load>
  void codec(const T& v, Save&& save, Load&&) {
    save(w_, v);
  }

 private:
  ByteWriter& w_;
};

/// Runs field lists to decode, validating every checked field.
class FieldReader {
 public:
  static constexpr bool kDecodes = true;

  explicit FieldReader(ByteReader& r) : r_(r) {}

  template <class T>
  void pod(T& v) {
    v = r_.pod<T>();
  }
  /// kMismatch unless the stored bits equal `v`'s.
  template <class T>
  void expect(const T& v, const char* what) {
    const T got = r_.pod<T>();
    if (std::memcmp(&got, &v, sizeof(T)) != 0) {
      throw CheckpointError(CheckpointErrorKind::kMismatch,
                            std::string(what) +
                                " differs from the restoring object's");
    }
  }
  /// A u8 that must be 0 or 1.
  void flag(bool& v, const char* what) { v = checked_flag(what) == 1; }
  void flag(std::uint8_t& v, const char* what) { v = checked_flag(what); }
  /// An enum (or an integer holding one) that must lie in [first, last].
  template <class Wire = void, class T, class E>
  void enumeration(T& v, E first, E last, const char* what) {
    using W = std::conditional_t<std::is_void_v<Wire>, WireInt<T>, Wire>;
    const W raw = r_.pod<W>();
    if (raw < static_cast<W>(first) || raw > static_cast<W>(last)) {
      out_of_range(what, raw);
    }
    v = static_cast<T>(raw);
  }
  void str(std::string& s) { s = r_.str(); }
  void signal(Signal& s) { s = r_.signal(); }
  void f64s(std::vector<double>& v) { v = r_.f64_array(); }
  /// A u8 array whose every element must be 0 or 1.
  void flags(std::vector<std::uint8_t>& v, const char* what) {
    v = r_.u8_array();
    for (const std::uint8_t b : v) {
      if (b > 1) out_of_range(what, b);
    }
  }
  /// A u64 count no larger than the remaining bytes, then each element.
  template <class T, class Each>
  void list(std::vector<T>& v, const char* what, Each&& each) {
    const auto n = r_.pod<std::uint64_t>();
    if (n > r_.remaining()) out_of_range(what, n);
    v.clear();
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) each(v.emplace_back());
  }
  /// Enters the next section (which must carry `id`), runs `body(io)` over
  /// exactly its payload and rejects trailing bytes.
  template <class Body>
  void section(std::uint32_t id, Body&& body) {
    ByteReader sub = r_.section(id);
    FieldReader io(sub);
    body(io);
    sub.finish();
  }
  template <class T>
  void state(T& x) {
    x.restore_state(r_);
  }
  template <class T, class Save, class Load>
  void codec(T& v, Save&&, Load&& load) {
    v = load(r_);
  }

 private:
  std::uint8_t checked_flag(const char* what) {
    const auto v = r_.pod<std::uint8_t>();
    if (v > 1) out_of_range(what, v);
    return v;
  }
  [[noreturn]] static void out_of_range(const char* what, std::uint64_t v) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          std::string(what) + " " + std::to_string(v) +
                              " out of range");
  }

  ByteReader& r_;
};

}  // namespace nsync::signal

#endif  // NSYNC_SIGNAL_FIELDS_HPP
