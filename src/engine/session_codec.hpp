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
// list naming its fields in wire order, run by the FieldWriter /
// FieldReader pair of signal/fields.hpp — the same adapters that run the
// NSFP payloads (wire_protocol.cpp), the NCKP state sections and NBRG.
// The reader's typed helpers hold the validation and so apply to every
// field by construction: a flag is 0 or 1, an enum lies within its range,
// a count fits in the remaining bytes.
//
// The fusion policy slot stays hand-written (save/load_fusion_policy): a
// voting policy is the bare rule u32, any other policy a marker plus a
// versioned section, which is a tagged union rather than a field list.
// The session field list takes it through the adapters' codec() op.
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
#include <vector>

#include "core/fusion.hpp"
#include "core/nsync.hpp"
#include "engine/monitor_engine.hpp"
#include "signal/checkpoint.hpp"
#include "signal/fields.hpp"
#include "signal/signal.hpp"

namespace nsync::engine {

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

using nsync::signal::FieldReader;
using nsync::signal::FieldRef;
using nsync::signal::FieldWriter;

/// name | model | fusion policy | u64 channel count | channels.  The
/// pieces come by reference and `each_channel(c)` codes one element of
/// `channels` (save/load_channel_spec), so MonitorEngine encodes straight
/// from its live monitors without copying a reference signal.
template <class Io>
void session_fields(Io& io, auto& name, auto& model, auto& policy,
                    auto& channels, auto each_channel) {
  io.str(name);
  io.str(model);
  io.codec(policy, save_fusion_policy, load_fusion_policy);
  io.list(channels, "session channel count", each_channel);
}

}  // namespace nsync::engine

#endif  // NSYNC_ENGINE_SESSION_CODEC_HPP
