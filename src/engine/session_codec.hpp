// Binary codec for session/channel specifications, shared by the two
// places a SessionSpec crosses a byte boundary:
//
//   * checkpoints — MonitorEngine stores each admitted session's spec once
//     (a spec file beside the checkpoint, or the in-payload spec table of
//     serialize()) so restore() can rebuild the monitors, and
//   * the frame-ingest wire protocol — ADD_SESSION carries the same spec
//     from a client to the fleet daemon.
//
// Every layout is written down once, as a `template <class Io>` field
// list naming its fields in wire order.  FieldWriter runs a list to encode
// over a ByteWriter, FieldReader runs the same list to decode over a
// ByteReader, so the two directions cannot drift.  The reader's typed
// helpers hold the validation and so apply to every field by
// construction: a flag is 0 or 1, an enum lies within its range, a count
// fits in the remaining bytes.  The NSFP payloads (wire_protocol.cpp) are
// field lists over the same adapters.  Both adapters are thin inline
// wrappers: no virtual call or type erasure per field.
//
// The fusion policy slot stays hand-written (save/load_fusion_policy): a
// voting policy is the bare rule u32, any other policy a marker plus a
// versioned section, which is a tagged union rather than a field list.
//
// All loaders throw signal::CheckpointError (kCorrupt/kTruncated) on
// malformed input and never partially construct a spec.  The bytes are
// pinned by tests/golden/ (test_golden_formats).
#ifndef NSYNC_ENGINE_SESSION_CODEC_HPP
#define NSYNC_ENGINE_SESSION_CODEC_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/fusion.hpp"
#include "core/nsync.hpp"
#include "engine/monitor_engine.hpp"
#include "signal/checkpoint.hpp"
#include "signal/signal.hpp"

namespace nsync::engine {

/// NsyncConfig as a fixed field sequence (enums range-checked on load).
void save_nsync_config(nsync::signal::ByteWriter& w,
                       const core::NsyncConfig& cfg);
[[nodiscard]] core::NsyncConfig load_nsync_config(nsync::signal::ByteReader& r);

/// OCC thresholds (three raw-bit doubles).
void save_thresholds(nsync::signal::ByteWriter& w, const core::Thresholds& t);
[[nodiscard]] core::Thresholds load_thresholds(nsync::signal::ByteReader& r);

/// One channel's full spec: name | reference signal | config | thresholds.
/// The field overload lets MonitorEngine serialize from its live monitor
/// without materializing a ChannelSpec copy.
void save_channel_spec(nsync::signal::ByteWriter& w, const std::string& name,
                       const nsync::signal::SignalView& reference,
                       const core::NsyncConfig& config,
                       const core::Thresholds& thresholds);
void save_channel_spec(nsync::signal::ByteWriter& w, const ChannelSpec& spec);
[[nodiscard]] ChannelSpec load_channel_spec(nsync::signal::ByteReader& r);

/// Value in the legacy fusion-rule u32 slot announcing that a versioned
/// policy section follows.  No FusionRule can ever encode to it, so old
/// decoders reject it cleanly and new decoders accept both forms.
inline constexpr std::uint32_t kFusionPolicyMarker = 0xFFFFFFFFu;
/// Current sub-version of the policy section that follows the marker.
inline constexpr std::uint8_t kFusionPolicyVersion = 1;

/// Fusion policy, in the slot that historically held the bare rule u32.
/// Voting policies keep the legacy encoding byte-for-byte (the rule u32
/// alone), so pre-policy decoders, existing checkpoints and the bitwise
/// parity tests are untouched; a weighted policy writes
/// kFusionPolicyMarker followed by `sub-version u8 | kind u8 | payload`.
void save_fusion_policy(nsync::signal::ByteWriter& w,
                        const core::FusionPolicy& policy);
/// Decodes either form into a policy (a legacy rule u32 becomes a
/// VotingPolicy; behind the marker only the weighted kind exists).
/// Throws CheckpointError: kCorrupt on an unknown rule, policy kind or
/// malformed weights; kBadVersion on an unknown policy sub-version (the
/// forward-compat signal — newer emitters must not be silently misread).
[[nodiscard]] std::shared_ptr<const core::FusionPolicy> load_fusion_policy(
    nsync::signal::ByteReader& r);

/// A whole SessionSpec: name | model | fusion policy | channel count |
/// channels.  load_session_spec bounds-checks the channel count against
/// the remaining bytes and rejects zero channels.
void save_session_spec(nsync::signal::ByteWriter& w, const SessionSpec& spec);
[[nodiscard]] SessionSpec load_session_spec(nsync::signal::ByteReader& r);
/// load_session_spec over a whole buffer (a checkpoint spec file's
/// payload): trailing bytes are kCorrupt.
[[nodiscard]] SessionSpec decode_session_spec(
    std::span<const std::uint8_t> bytes);

// --- Field lists -------------------------------------------------------------

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

  explicit FieldWriter(nsync::signal::ByteWriter& w) : w_(w) {}

  /// A fixed-width field, stored in its own width.
  template <class T>
  void pod(const T& v) {
    w_.pod<T>(v);
  }
  void flag(bool v, const char*) { w_.pod<std::uint8_t>(v ? 1 : 0); }
  void flag(std::uint8_t v, const char*) { w_.pod<std::uint8_t>(v); }
  template <class T, class E>
  void enumeration(const T& v, E, E, const char*) {
    w_.pod<WireInt<T>>(static_cast<WireInt<T>>(v));
  }
  void str(const std::string& s) { w_.str(s); }
  void signal(const nsync::signal::SignalView& s) { w_.signal(s); }
  /// u64 element count, then `each(element)` for every element.
  template <class T, class Each>
  void list(const std::vector<T>& v, const char*, Each&& each) {
    w_.pod<std::uint64_t>(v.size());
    for (const T& x : v) each(x);
  }
  void policy(const core::FusionPolicy& p) { save_fusion_policy(w_, p); }
  void spec(const SessionSpec& s) { save_session_spec(w_, s); }

 private:
  nsync::signal::ByteWriter& w_;
};

/// Runs field lists to decode, validating every checked field.
class FieldReader {
 public:
  static constexpr bool kDecodes = true;

  explicit FieldReader(nsync::signal::ByteReader& r) : r_(r) {}

  template <class T>
  void pod(T& v) {
    v = r_.pod<T>();
  }
  /// A u8 that must be 0 or 1.
  void flag(bool& v, const char* what) { v = checked_flag(what) == 1; }
  void flag(std::uint8_t& v, const char* what) { v = checked_flag(what); }
  /// An enum (or an integer holding one) that must lie in [first, last].
  template <class T, class E>
  void enumeration(T& v, E first, E last, const char* what) {
    using Wire = WireInt<T>;
    const Wire raw = r_.pod<Wire>();
    if (raw < static_cast<Wire>(first) || raw > static_cast<Wire>(last)) {
      out_of_range(what, raw);
    }
    v = static_cast<T>(raw);
  }
  void str(std::string& s) { s = r_.str(); }
  void signal(nsync::signal::Signal& s) { s = r_.signal(); }
  /// A u64 count no larger than the remaining bytes, then each element.
  template <class T, class Each>
  void list(std::vector<T>& v, const char* what, Each&& each) {
    const auto n = r_.pod<std::uint64_t>();
    if (n > r_.remaining()) out_of_range(what, n);
    v.clear();
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) each(v.emplace_back());
  }
  void policy(std::shared_ptr<const core::FusionPolicy>& p) {
    p = load_fusion_policy(r_);
  }
  void spec(SessionSpec& s) { s = load_session_spec(r_); }

 private:
  std::uint8_t checked_flag(const char* what);
  [[noreturn]] static void out_of_range(const char* what, std::uint64_t v);

  nsync::signal::ByteReader& r_;
};

/// name | model | fusion policy | u64 channel count | channels.  The
/// pieces come by reference and `each_channel(c)` codes one element of
/// `channels` (save/load_channel_spec), so MonitorEngine encodes straight
/// from its live monitors without copying a reference signal.
template <class Io>
void session_fields(Io& io, auto& name, auto& model, auto& policy,
                    auto& channels, auto each_channel) {
  io.str(name);
  io.str(model);
  io.policy(policy);
  io.list(channels, "session channel count", each_channel);
}

}  // namespace nsync::engine

#endif  // NSYNC_ENGINE_SESSION_CODEC_HPP
