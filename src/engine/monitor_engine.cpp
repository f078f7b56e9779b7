#include "engine/monitor_engine.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <utility>

#include "engine/session_codec.hpp"
#include "signal/checkpoint.hpp"
#include "signal/fields.hpp"

namespace nsync::engine {

using nsync::signal::SignalView;

MonitorEngine::Channel::Channel(ChannelSpec&& spec)
    : name(std::move(spec.name)),
      monitor(std::move(spec.reference), spec.config, spec.thresholds) {
  // Size everything for the full print up front: the reference bounds how
  // many windows DWM can ever produce, so the feed/poll loop allocates
  // nothing from the first window on.
  const auto& dwm = spec.config.dwm;
  const std::size_t ref_frames = monitor.reference().frames();
  if (ref_frames >= dwm.n_win) {
    monitor.reserve_windows((ref_frames - dwm.n_win) / dwm.n_hop + 1);
  }
}

MonitorEngine::MonitorEngine(MonitorEngineOptions options)
    : options_(std::move(options)) {
  if (options_.baseline.adaptive) {
    options_.baseline.policy.validate();
    const std::string path = baseline_path();
    if (!path.empty() && std::filesystem::exists(path)) {
      // Bootstrap from the exported registry of a previous run.  A restore
      // from a fleet checkpoint overrides this with the crash-consistent
      // copy embedded in the payload.
      registry_ = std::make_unique<BaselineRegistry>(
          BaselineRegistry::load(path, options_.baseline.policy));
      exported_generation_ = registry_->generation();  // the file is current
    } else {
      registry_ = std::make_unique<BaselineRegistry>(options_.baseline.policy);
    }
  }
}

std::size_t MonitorEngine::add_session(SessionSpec spec) {
  if (spec.channels.empty()) {
    throw std::invalid_argument("MonitorEngine::add_session: no channels");
  }
  // Adaptive admission: a session carrying a model identity arms the
  // registry's current thresholds for each (model, channel) baseline —
  // first contact seeds the baseline from the trained thresholds instead.
  // Skipped during checkpoint restore, which must arm the serialized
  // thresholds verbatim for bitwise replay.
  if (registry_ && resolve_on_admission_ && !spec.model.empty()) {
    for (auto& c : spec.channels) {
      c.thresholds = registry_->resolve(spec.model, c.name, c.thresholds);
    }
  }
  Session s;
  s.name = std::move(spec.name);
  s.model = std::move(spec.model);
  s.policy = spec.policy
                 ? std::move(spec.policy)
                 : std::make_shared<const core::VotingPolicy>(spec.rule);
  s.channels.reserve(spec.channels.size());
  for (auto& c : spec.channels) {
    for (const auto& existing : s.channels) {
      if (existing.name == c.name) {
        throw std::invalid_argument(
            "MonitorEngine::add_session: duplicate channel '" + c.name + "'");
      }
    }
    s.channels.emplace_back(std::move(c));
  }
  scores_.reserve(s.channels.size());
  verdict_.channels.reserve(s.channels.size());
  sessions_.push_back(std::move(s));
  return sessions_.size() - 1;
}

MonitorEngine::Session& MonitorEngine::session_at(std::size_t id) {
  if (id >= sessions_.size()) {
    throw std::out_of_range("MonitorEngine: no session " + std::to_string(id) +
                            " (" + std::to_string(sessions_.size()) +
                            " sessions registered)");
  }
  return sessions_[id];
}

const MonitorEngine::Session& MonitorEngine::session_at(std::size_t id) const {
  if (id >= sessions_.size()) {
    throw std::out_of_range("MonitorEngine: no session " + std::to_string(id) +
                            " (" + std::to_string(sessions_.size()) +
                            " sessions registered)");
  }
  return sessions_[id];
}

std::size_t MonitorEngine::feed(std::size_t session,
                                const std::string& channel,
                                const SignalView& frames) {
  Session& s = session_at(session);
  Channel* target = nullptr;
  for (auto& c : s.channels) {
    if (c.name == channel) {
      target = &c;
      break;
    }
  }
  if (s.evicted) {
    throw std::invalid_argument("MonitorEngine::feed: session '" + s.name +
                                "' (id " + std::to_string(session) +
                                ") has been evicted");
  }
  if (target == nullptr) {
    throw std::invalid_argument("MonitorEngine::feed: unknown channel '" +
                                channel + "' in session '" + s.name + "' (id " +
                                std::to_string(session) + ")");
  }
  const std::size_t windows = target->monitor.push(frames);
  if (windows > 0) s.unscored = true;
  return windows;
}

void MonitorEngine::score(Session& s) {
  if (!s.unscored) return;
  s.unscored = false;
  if (s.intrusion) return;
  // Refresh the fused verdict through the session's policy — the same
  // health-aware fusion as the batch FusionIds: offline channels neither
  // alarm nor count toward the denominator (nor the weighted mean).  The
  // verdict and its alarm window latch.  Scores and verdict are engine
  // scratch, sized at admission, so a refresh allocates nothing.
  channel_scores(s, scores_);
  s.policy->evaluate_into(scores_, verdict_);
  if (verdict_.intrusion) {
    s.intrusion = true;
    s.first_alarm_window = verdict_.first_alarm_window;
  }
}

void MonitorEngine::channel_scores(const Session& s,
                                   std::vector<core::ChannelScore>& out) {
  out.resize(s.channels.size());
  for (std::size_t i = 0; i < s.channels.size(); ++i) {
    const Channel& c = s.channels[i];
    core::ChannelScore& score = out[i];
    score.name = c.name;
    score.score = core::channel_score(c.monitor.feature_maxima(),
                                      c.monitor.thresholds());
    score.alarm = c.monitor.intrusion();
    score.first_alarm_window = c.monitor.detection().first_alarm_window;
    score.health = c.monitor.health();
  }
}

std::size_t MonitorEngine::poll_inline() {
  for (Session& s : sessions_) score(s);
  return 0;
}

std::size_t MonitorEngine::poll_session(std::size_t session) {
  score(session_at(session));
  return 0;
}

void MonitorEngine::evict_session(std::size_t session) {
  Session& s = session_at(session);
  if (s.evicted) return;
  // The fused verdict sees every fed window before the fold below reads
  // it, so the fold's eligibility is a pure function of the frames fed
  // before the eviction, independent of poll timing — required for
  // deterministic crash replay of adapted state.
  score(s);
  // End-of-print baseline fold, gated on the session-level anti-poisoning
  // rule: only a benign fused verdict with every channel healthy may
  // update the device baseline.  Ineligible prints are counted as frozen.
  if (registry_ && !s.model.empty() && !s.channels.empty()) {
    bool eligible = !s.intrusion;
    for (const auto& c : s.channels) {
      if (c.monitor.health() != core::ChannelHealth::kHealthy) {
        eligible = false;
      }
    }
    for (const auto& c : s.channels) {
      registry_->fold(s.model, c.name, c.monitor.benign_feature_maxima(),
                      eligible && c.monitor.benign_windows() > 0);
    }
  }
  s.channels.clear();
  s.channels.shrink_to_fit();
  // The dynamic state is discarded with the monitors, so the latched
  // verdict goes too — a restore from a checkpoint holding the tombstone
  // must see the same (empty) state as this process does.
  s.intrusion = false;
  s.first_alarm_window = -1;
  s.policy.reset();
  s.evicted = true;
}

void MonitorEngine::snapshot_into(std::size_t session,
                                  SessionSnapshot& out) const {
  const Session& s = session_at(session);
  out.name = s.name;
  out.evicted = s.evicted;
  out.intrusion = s.intrusion;
  out.first_alarm_window = s.first_alarm_window;
  out.policy.clear();
  out.fused_score = 0.0;
  out.alarming_channels = 0;
  out.online_channels = 0;
  out.frames_fed = 0;
  out.windows =
      s.channels.empty() ? 0 : std::numeric_limits<std::size_t>::max();
  // Live fused telemetry: evaluate the policy over the current scores so
  // operators see the fused score and per-channel weights even before (or
  // without) the verdict latching.
  if (s.policy) {
    out.policy = s.policy->name();
    channel_scores(s, scores_);
    s.policy->evaluate_into(scores_, verdict_);
    out.fused_score = verdict_.score;
    out.alarming_channels = verdict_.alarming_channels;
    out.online_channels = verdict_.online_channels;
  }
  out.channels.resize(s.channels.size());
  for (std::size_t i = 0; i < s.channels.size(); ++i) {
    const Channel& c = s.channels[i];
    ChannelSnapshot& cs = out.channels[i];
    cs.name = c.name;
    cs.detection = c.monitor.detection();
    cs.health = c.monitor.health();
    cs.thresholds = c.monitor.thresholds();
    const bool scored = s.policy && i < verdict_.channels.size();
    cs.score = scored ? verdict_.channels[i].score : 0.0;
    cs.weight = scored ? verdict_.channels[i].weight : 0.0;
    cs.width = c.monitor.reference().channels();
    cs.sample_rate = c.monitor.reference().sample_rate();
    cs.windows = c.monitor.windows();
    cs.frames_fed = c.monitor.frames_pushed();
    out.frames_fed += cs.frames_fed;
    out.windows = std::min(out.windows, cs.windows);
  }
}

SessionSnapshot MonitorEngine::snapshot(std::size_t session) const {
  SessionSnapshot out;
  snapshot_into(session, out);
  return out;
}

namespace {

using nsync::signal::ByteReader;
using nsync::signal::ByteWriter;
using nsync::signal::CheckpointError;
using nsync::signal::CheckpointErrorKind;

// Checkpoint section ids (outer structure of the fleet payload).  The
// fleet section id carries the payload layout version: "\x01FLT" payloads
// stored each channel's spec inline, "\x02FLT" ones referenced specs by
// SpecRef and kept a staging ring per channel, "\x03FLT" ones store each
// channel's monitor state only.
constexpr std::uint32_t kSecFleet = 0x544C4603;    // "\x03FLT"
constexpr std::uint32_t kSecSession = 0x53455301;  // "\x01SES"
constexpr std::uint32_t kSecChannel = 0x43484E01;  // "\x01CHN"
constexpr std::uint32_t kSecSpecTable = 0x42545301;  // "\x01STB"
constexpr std::uint32_t kSecSpec = 0x43505301;       // "\x01SPC"

// Where the specs of a payload live (the byte after the registry).
constexpr std::uint8_t kSpecsInFiles = 0;
constexpr std::uint8_t kSpecsInTable = 1;

/// A channel section's body: the monitor's streaming state.
template <class Io>
void channel_state_fields(Io& io, auto& c) {
  io.state(c.monitor);
}

/// One session's state section: name | eviction flag, then for a live
/// session spec ref | fused verdict | u64 channel count |
/// channel sections.  A tombstone ends after the flag: the name keeps the
/// id slot occupied, nothing else survives eviction.  The spec is
/// referenced, not stored: restore finds its bytes (spec file or spec
/// table) and rejects any whose size or CRC differ.  Decoding keeps each
/// channel section's body as bytes, because the monitors it restores into
/// are built from the spec, which comes later.
template <class Io>
void session_state_fields(Io& io, auto& s) {
  io.section(kSecSession, [&](auto& f) {
    f.str(s.name);
    f.flag(s.evicted, "MonitorEngine checkpoint: eviction flag");
    if (s.evicted) return;
    f.pod(s.spec_ref->bytes);
    f.pod(s.spec_ref->crc);
    f.flag(s.intrusion, "MonitorEngine checkpoint: intrusion flag");
    f.pod(s.first_alarm_window);
    f.list(s.channels, "MonitorEngine checkpoint: channel count",
           [&](auto& c) {
             f.codec(
                 c,
                 [](ByteWriter& w, const auto& channel) {
                   FieldWriter(w).section(kSecChannel, [&](auto& cf) {
                     channel_state_fields(cf, channel);
                   });
                 },
                 [](ByteReader& r) {
                   ByteReader body = r.section(kSecChannel);
                   return body.bytes(body.remaining());
                 });
           });
  });
}

/// The fleet section: u64 session count | session sections | registry
/// flag [| NBRG section] | spec-location byte [| spec table section].
/// `registry` is null when the engine is not adaptive; `table` is the
/// spec table section's bytes (encode) or a reader left on it (decode).
template <class Io>
void fleet_fields(Io& io, auto& sessions, auto* registry, auto& specs_at,
                  auto& table) {
  io.section(kSecFleet, [&](auto& f) {
    f.list(sessions, "MonitorEngine checkpoint: session count",
           [&](auto& s) { session_state_fields(f, s); });
    // The adapted baseline state rides inside the same payload as the
    // session state: one atomic file, so a crash can never split "session
    // evicted" from "its print folded into the baseline".
    bool has_registry = registry != nullptr;
    f.flag(has_registry, "MonitorEngine checkpoint: registry flag");
    if (has_registry) {
      if (registry == nullptr) {
        throw CheckpointError(
            CheckpointErrorKind::kMismatch,
            "MonitorEngine checkpoint: payload carries a baseline registry "
            "but the engine is not configured adaptive");
      }
      f.state(*registry);
    }
    f.flag(specs_at, "MonitorEngine checkpoint: spec-table flag");
    if (specs_at == kSpecsInTable) {
      f.codec(
          table,
          [](ByteWriter& w, std::span<const std::uint8_t> bytes) {
            w.bytes(bytes.data(), bytes.size());
          },
          [](ByteReader& r) { return r.section(kSecSpecTable); });
    }
  });
}

}  // namespace

void MonitorEngine::encode_spec(nsync::signal::ByteWriter& w,
                                const Session& s) {
  // save_session_spec's field list over the live monitors (the policy
  // slot holds the effective policy), with no SessionSpec copy.
  FieldWriter io(w);
  session_fields(io, s.name, s.model, *s.policy, s.channels,
                 [&w](const Channel& c) {
                   save_channel_spec(w, c.name, c.monitor.reference(),
                                     c.monitor.config(),
                                     c.monitor.thresholds());
                 });
}

std::vector<std::uint8_t> MonitorEngine::serialize() const {
  // The spec table: one section per live session, in session order.
  ByteWriter table;
  const std::size_t table_tok = table.begin_section(kSecSpecTable);
  for (const Session& s : sessions_) {
    if (s.evicted) continue;
    const std::size_t spec_tok = table.begin_section(kSecSpec);
    const std::size_t begin = table.data().size();
    encode_spec(table, s);
    table.end_section(spec_tok);
    if (!s.spec_ref) {
      const auto bytes = table.data().subspan(begin);
      s.spec_ref = SpecRef{bytes.size(),
                           nsync::signal::crc32(bytes.data(), bytes.size())};
    }
  }
  table.end_section(table_tok);
  ByteWriter w;
  FieldWriter io(w);
  const std::uint8_t specs_at = kSpecsInTable;
  const std::span<const std::uint8_t> bytes = table.data();
  fleet_fields(io, sessions_, registry_.get(), specs_at, bytes);
  return w.take();
}

std::string MonitorEngine::spec_path(const std::string& checkpoint_path,
                                     std::size_t session) {
  return checkpoint_path + ".s" + std::to_string(session) + ".spec";
}

void MonitorEngine::checkpoint(const std::string& path) const {
  // Sessions written as tombstones whose spec file is still on disk.
  std::vector<std::size_t> tombstoned;
  for (std::size_t id = 0; id < sessions_.size(); ++id) {
    const Session& s = sessions_[id];
    if (s.evicted) {
      if (s.spec_file == spec_path(path, id)) tombstoned.push_back(id);
      continue;
    }
    // Spec once: written before the state that references it, so the
    // state file on disk never names a spec file that is not there.
    const std::string spec = spec_path(path, id);
    if (s.spec_file != spec) {
      // The reference samples are written from the monitors, not staged
      // in the buffer, and one CRC pass serves the SpecRef and the footer.
      ByteWriter sw(ByteWriter::Arrays::kReference);
      encode_spec(sw, s);
      const auto pieces = sw.pieces();
      const std::uint32_t crc = nsync::signal::crc32(pieces);
      if (!s.spec_ref) s.spec_ref = SpecRef{sw.size(), crc};
      nsync::signal::write_checkpoint_file(spec, pieces, crc);
      s.spec_file = spec;
    }
  }
  ByteWriter w;
  FieldWriter io(w);
  const std::uint8_t specs_at = kSpecsInFiles;
  const std::span<const std::uint8_t> no_table;
  fleet_fields(io, sessions_, registry_.get(), specs_at, no_table);
  nsync::signal::write_checkpoint_file(path, w.data());
  // The tombstones are durable now; only from here on may an evicted
  // session's spec file go (a crash before this point restores a state
  // that still references it).
  for (const std::size_t id : tombstoned) {
    const Session& s = sessions_[id];
    std::error_code ec;
    std::filesystem::remove(s.spec_file, ec);
    s.spec_file.clear();
  }
  export_baselines();
}

void MonitorEngine::export_baselines() const {
  // Operator-visible export of the adapted per-device state, written after
  // the fleet checkpoint on purpose: the .nbrg is a convenience copy — the
  // authoritative state is inside the .nckp.  Rewritten only when the
  // registry changed since the last export (a fold, a first contact).
  const std::string bpath = baseline_path();
  if (!registry_ || bpath.empty()) return;
  const std::uint64_t generation = registry_->generation();
  if (generation == exported_generation_) return;
  registry_->save(bpath);
  exported_generation_ = generation;
}

std::string MonitorEngine::baseline_path() const {
  if (!options_.baseline.adaptive || options_.baseline.dir.empty()) return {};
  return options_.baseline.dir + "/" + options_.baseline.filename;
}

MonitorEngine MonitorEngine::restore_payload(
    std::span<const std::uint8_t> payload, MonitorEngineOptions options,
    const std::string* checkpoint_path) {
  MonitorEngine engine(std::move(options));
  // Restored sessions arm their serialized thresholds verbatim; resolving
  // them against the registry would change the replayed verdicts.
  engine.resolve_on_admission_ = false;
  // A session's state section, decoded ahead of its spec (the spec bytes
  // come after every session: table at the payload end, or a file).
  // Field names match Session's, so session_state_fields decodes into it;
  // spec_ref starts engaged for the same reason.
  struct PendingSession {
    std::string name;
    bool evicted = false;
    std::optional<SpecRef> spec_ref = SpecRef{};
    bool intrusion = false;
    std::ptrdiff_t first_alarm_window = -1;
    std::vector<std::span<const std::uint8_t>> channels;  // section bodies
  };
  try {
    std::uint32_t top_id = 0;
    if (payload.size() >= sizeof(top_id)) {
      std::memcpy(&top_id, payload.data(), sizeof(top_id));
    }
    if ((top_id >> 8) == (kSecFleet >> 8) && top_id != kSecFleet) {
      throw CheckpointError(CheckpointErrorKind::kBadVersion,
                            "MonitorEngine checkpoint: fleet layout " +
                                std::to_string(top_id & 0xFF) +
                                "; this build reads layout 3");
    }
    ByteReader top(payload);
    FieldReader io(top);
    std::vector<PendingSession> pending;
    std::uint8_t specs_at = kSpecsInFiles;
    ByteReader table_section(std::span<const std::uint8_t>{});
    // The embedded registry is crash-consistent with the session state and
    // overrides any .nbrg file the constructor bootstrapped from.
    fleet_fields(io, pending, engine.registry_.get(), specs_at,
                 table_section);
    top.finish();
    std::size_t live = 0;
    for (const PendingSession& p : pending) {
      if (p.evicted) continue;
      ++live;
      if (p.first_alarm_window < -1 ||
          (!p.intrusion && p.first_alarm_window != -1)) {
        throw CheckpointError(CheckpointErrorKind::kCorrupt,
                              "MonitorEngine checkpoint: inconsistent fused "
                              "verdict in session '" +
                                  p.name + "'");
      }
      if (p.channels.empty()) {
        throw CheckpointError(CheckpointErrorKind::kCorrupt,
                              "MonitorEngine checkpoint: session '" + p.name +
                                  "' has no channels");
      }
    }
    std::vector<ByteReader> table;
    if (specs_at == kSpecsInTable) {
      table.reserve(live);
      for (std::size_t k = 0; k < live; ++k) {
        table.push_back(table_section.section(kSecSpec));
      }
      table_section.finish();
    } else if (checkpoint_path == nullptr) {
      throw CheckpointError(CheckpointErrorKind::kIo,
                            "MonitorEngine checkpoint: specs live in spec "
                            "files; restore(path) reads them");
    }

    std::size_t next_spec = 0;
    for (std::size_t id = 0; id < pending.size(); ++id) {
      PendingSession& p = pending[id];
      if (p.evicted) {
        Session& tomb = engine.sessions_.emplace_back();
        tomb.name = std::move(p.name);
        tomb.evicted = true;
        continue;
      }
      std::vector<std::uint8_t> file_bytes;
      std::span<const std::uint8_t> spec_bytes;
      std::string spec_file;
      if (specs_at == kSpecsInTable) {
        ByteReader& entry = table[next_spec++];
        spec_bytes = entry.bytes(entry.remaining());
        if (spec_bytes.size() != p.spec_ref->bytes ||
            nsync::signal::crc32(spec_bytes.data(), spec_bytes.size()) !=
                p.spec_ref->crc) {
          throw CheckpointError(CheckpointErrorKind::kMismatch,
                                "MonitorEngine checkpoint: spec table entry "
                                "of session '" +
                                    p.name + "' is not the referenced spec");
        }
      } else {
        spec_file = spec_path(*checkpoint_path, id);
        file_bytes = nsync::signal::read_checkpoint_file(
            spec_file, p.spec_ref->bytes, p.spec_ref->crc);
        spec_bytes = file_bytes;
      }
      SessionSpec spec = decode_session_spec(spec_bytes);
      if (spec.name != p.name || spec.channels.size() != p.channels.size()) {
        throw CheckpointError(CheckpointErrorKind::kMismatch,
                              "MonitorEngine checkpoint: spec of session '" +
                                  p.name + "' does not match its state");
      }
      const std::size_t sid = engine.add_session(std::move(spec));
      Session& s = engine.sessions_[sid];
      s.intrusion = p.intrusion;
      // Windows the checkpoint holds may have been fed after the last
      // refresh; scoring them at the next poll is what the uninterrupted
      // run does there, and a state already scored scores the same.
      s.unscored = true;
      s.first_alarm_window = p.first_alarm_window;
      s.spec_ref = p.spec_ref;
      s.spec_file = std::move(spec_file);
      for (std::size_t j = 0; j < p.channels.size(); ++j) {
        Channel& c = s.channels[j];
        const core::Thresholds armed = c.monitor.thresholds();
        ByteReader cr(p.channels[j]);
        FieldReader cio(cr);
        channel_state_fields(cio, c);
        cr.finish();
        // The spec is the one record of a channel's thresholds; a state
        // armed with others is not the state of this spec.
        const core::Thresholds& restored = c.monitor.thresholds();
        if (std::memcmp(&armed, &restored, sizeof(armed)) != 0) {
          throw CheckpointError(CheckpointErrorKind::kMismatch,
                                "MonitorEngine checkpoint: channel '" +
                                    c.name + "' of session '" + s.name +
                                    "' is armed with other thresholds than "
                                    "its spec");
        }
      }
    }
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::exception& e) {
    // Constructor/validation failures on hostile spec bytes (e.g.
    // DwmParams::validate) surface as the one typed error restore promises.
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          std::string("MonitorEngine checkpoint: ") + e.what());
  }
  engine.resolve_on_admission_ = true;
  return engine;
}

MonitorEngine MonitorEngine::restore_from_bytes(
    std::span<const std::uint8_t> payload, MonitorEngineOptions options) {
  return restore_payload(payload, std::move(options), nullptr);
}

MonitorEngine MonitorEngine::restore(const std::string& path,
                                     MonitorEngineOptions options) {
  const std::vector<std::uint8_t> payload =
      nsync::signal::read_checkpoint_file(path);
  MonitorEngine engine = restore_payload(payload, std::move(options), &path);
  engine.remove_orphans(path);
  return engine;
}

void MonitorEngine::remove_orphans(const std::string& path) const {
  namespace fs = std::filesystem;
  nsync::signal::remove_stale_tmp_files(path);
  const std::string bpath = baseline_path();
  if (!bpath.empty()) nsync::signal::remove_stale_tmp_files(bpath);
  // Spec files the restored checkpoint does not reference: a session whose
  // spec was written but whose admitting checkpoint never landed, or an
  // evicted one whose file the crash kept from being deleted.
  const fs::path target(path);
  const std::string prefix = target.filename().string() + ".s";
  std::error_code ec;
  for (fs::directory_iterator it(
           target.has_parent_path() ? target.parent_path() : fs::path("."), ec),
       end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (!name.starts_with(prefix) || !name.ends_with(".spec")) continue;
    const char* first = name.data() + prefix.size();
    const char* last = name.data() + name.size() - 5;  // ".spec"
    std::size_t id = 0;
    const auto [parsed_to, err] = std::from_chars(first, last, id);
    if (first == last || err != std::errc() || parsed_to != last) continue;
    if (id < sessions_.size() && !sessions_[id].evicted) continue;
    std::error_code rm_ec;
    fs::remove(it->path(), rm_ec);
  }
}

}  // namespace nsync::engine
