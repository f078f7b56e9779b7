// Golden fixtures for the persisted formats: every NSFP message type, the
// per-session spec file MonitorEngine::checkpoint writes, and a whole
// fleet checkpoint (state file, spec files, serialize() payload, exported
// NBRG registry).  The bytes
// in tests/golden/ were produced by make_goldens from the same
// canonical-message builder this test uses, so any codec change that
// moves a byte fails here.  A deliberate format change bumps the version
// and regenerates the files (see DESIGN.md §4).  tests/golden/full_ring/
// keeps a state file and payload of the same fleet in fleet layout 2,
// which restore must refuse as kBadVersion.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/session_codec.hpp"
#include "engine/wire_protocol.hpp"
#include "golden_messages.hpp"
#include "signal/checkpoint.hpp"

using namespace nsync;
using namespace nsync::engine;

namespace {

/// Byte-exact comparison with the offset of the first difference.
void expect_same_bytes(const std::vector<std::uint8_t>& got,
                       const std::vector<std::uint8_t>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (std::memcmp(got.data(), want.data(), got.size()) != 0) {
    std::size_t i = 0;
    while (got[i] == want[i]) ++i;
    ADD_FAILURE() << what << ": first differing byte at offset " << i;
  }
}

/// A fresh directory under the system temp dir, removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("nsync_golden_" + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

/// The committed checkpoint goldens, (name, bytes), in file-name order.
golden::NamedFiles committed_checkpoint_files() {
  const TempDir dir("names");
  golden::NamedFiles files =
      golden::checkpoint_files(golden::golden_engine(dir.str()), dir.str());
  for (auto& [name, bytes] : files) bytes = golden::read_golden(name);
  return files;
}

void expect_same_files(const golden::NamedFiles& got,
                       const golden::NamedFiles& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    expect_same_bytes(got[i].second, want[i].second, want[i].first);
  }
}

/// The committed bytes of one checkpoint golden.
const std::vector<std::uint8_t>& bytes_of(const golden::NamedFiles& files,
                                          const std::string& name) {
  for (const auto& [n, bytes] : files) {
    if (n == name) return bytes;
  }
  throw std::runtime_error("no golden " + name);
}

/// Offsets, in a fleet payload, of the flag bytes of the first
/// DetectionCore state armed with `ch`'s configuration and thresholds.
struct CoreFlagOffsets {
  std::size_t armed = 0;
  std::size_t first_valid = 0;
  std::size_t intrusion = 0;  // then by_c_disp, by_h_dist, by_v_dist
};

CoreFlagOffsets core_flag_offsets(const std::vector<std::uint8_t>& payload,
                                  const ChannelSpec& ch) {
  // The core's fingerprint, armed flag and thresholds, in layout order.
  nsync::signal::ByteWriter prefix;
  prefix.pod<std::uint64_t>(ch.config.dwm.n_win);
  prefix.pod<std::uint64_t>(ch.config.dwm.n_hop);
  prefix.pod<std::uint32_t>(static_cast<std::uint32_t>(ch.config.metric));
  prefix.pod<std::uint64_t>(ch.config.filter_window);
  prefix.pod<std::uint8_t>(1);
  nsync::signal::FieldWriter io(prefix);
  core::thresholds_fields(io, ch.thresholds);
  const auto hit = std::ranges::search(payload, prefix.data());
  if (hit.empty()) throw std::runtime_error("no DetectionCore state found");
  CoreFlagOffsets at;
  const auto begin = static_cast<std::size_t>(hit.begin() - payload.begin());
  at.armed = begin + prefix.data().size() - 1 - 3 * sizeof(double);
  // Four f64 arrays (c_disp, h_dist_f, v_dist_f, v_dist), the valid
  // flags (u64 count + bytes), then the latched verdict.
  nsync::signal::ByteReader r(std::span<const std::uint8_t>(payload).subspan(
      begin + prefix.data().size()));
  for (int i = 0; i < 4; ++i) (void)r.f64_array();
  at.first_valid = payload.size() - r.remaining() + sizeof(std::uint64_t);
  if (r.u8_array().empty()) throw std::runtime_error("no windows");
  at.intrusion = payload.size() - r.remaining();
  return at;
}

std::vector<std::uint8_t> spec_bytes(const SessionSpec& spec) {
  nsync::signal::ByteWriter w;
  save_session_spec(w, spec);
  return w.take();
}

}  // namespace

TEST(GoldenFormats, EveryMessageEncodesToItsCommittedFrame) {
  const auto messages = golden::golden_messages();
  ASSERT_EQ(messages.size(), std::variant_size_v<wire::Message> + 1);
  for (const auto& [name, msg] : messages) {
    expect_same_bytes(wire::encode(msg), golden::read_golden(name), name);
  }
}

TEST(GoldenFormats, CommittedFramesDecodeAndReencodeExactly) {
  // All frames back to back through one decoder, as a peer would send them.
  std::vector<std::uint8_t> stream;
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& [name, msg] : golden::golden_messages()) {
    frames.push_back(golden::read_golden(name));
    stream.insert(stream.end(), frames.back().begin(), frames.back().end());
  }
  wire::FrameDecoder d;
  d.feed(stream);
  const auto messages = golden::golden_messages();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    wire::Message out;
    std::string detail;
    ASSERT_EQ(d.next(out, &detail), wire::DecodeStatus::kFrame)
        << messages[i].first << ": " << detail;
    EXPECT_EQ(out.index(), messages[i].second.index()) << messages[i].first;
    expect_same_bytes(wire::encode(out), frames[i], messages[i].first);
  }
  wire::Message out;
  EXPECT_EQ(d.next(out), wire::DecodeStatus::kNeedMore);
  EXPECT_EQ(d.buffered(), 0u);
}

TEST(GoldenFormats, CheckpointWritesTheCommittedSpecFile) {
  const TempDir dir("spec");
  expect_same_bytes(golden::golden_spec_file(dir.str()),
                    golden::read_golden(golden::kSpecFileName),
                    golden::kSpecFileName);
}

TEST(GoldenFormats, SpecFilePayloadIsTheSessionSpecEncoding) {
  // The engine encodes its spec files from the live monitors; the wire
  // and save_session_spec encode from a SessionSpec.  Same bytes.
  const std::vector<std::uint8_t> file =
      golden::read_golden(golden::kSpecFileName);
  const auto payload = nsync::signal::unframe_checkpoint(file);
  const std::vector<std::uint8_t> committed(payload.begin(), payload.end());
  expect_same_bytes(spec_bytes(golden::golden_spec(true)), committed,
                    "save_session_spec vs spec file");
  // And the payload decodes to a spec that re-encodes exactly.
  expect_same_bytes(spec_bytes(decode_session_spec(committed)), committed,
                    "decode_session_spec round trip");

  // A use_fft byte of 2 in the spec file is corruption, not "true".
  SessionSpec fft_off = golden::golden_spec(true);
  fft_off.channels[0].config.dwm.tde.use_fft = false;
  const std::vector<std::uint8_t> off_bytes = spec_bytes(fft_off);
  ASSERT_EQ(off_bytes.size(), committed.size());
  std::size_t at = 0;
  while (off_bytes[at] == committed[at]) ++at;
  std::vector<std::uint8_t> patched = committed;
  patched[at] = 2;
  try {
    (void)decode_session_spec(patched);
    FAIL() << "use_fft byte 2 accepted";
  } catch (const nsync::signal::CheckpointError& e) {
    EXPECT_EQ(e.kind(), nsync::signal::CheckpointErrorKind::kCorrupt);
  }
}

TEST(GoldenFormats, CheckpointFixtureCoversEveryStateSection) {
  const TempDir dir("cover");
  const MonitorEngine fleet = golden::golden_engine(dir.str());
  ASSERT_EQ(fleet.sessions(), 3u);
  EXPECT_TRUE(fleet.snapshot(0).evicted);  // tombstone

  const SessionSnapshot latched = fleet.snapshot(1);
  EXPECT_EQ(latched.policy, "weighted");
  EXPECT_TRUE(latched.intrusion);
  EXPECT_GE(latched.first_alarm_window, 0);
  bool by_flag = false;
  for (const auto& c : latched.channels) {
    by_flag = by_flag || c.detection.by_c_disp || c.detection.by_h_dist ||
              c.detection.by_v_dist;
  }
  EXPECT_TRUE(by_flag);

  const ChannelSnapshot faulty = fleet.snapshot(2).channels.at(0);
  EXPECT_NE(faulty.health, core::ChannelHealth::kHealthy);
  EXPECT_EQ(faulty.frames_fed, 128u + 96u + 19u);
  EXPECT_GT(faulty.windows, 0u);

  const BaselineRegistry* registry = fleet.baseline_registry();
  ASSERT_NE(registry, nullptr);
  EXPECT_GE(registry->keys().size(), 2u);
  EXPECT_FALSE(registry->baseline("UM3", "ACC").recent.empty());
}

TEST(GoldenFormats, GeneratorReproducesTheCommittedCheckpoints) {
  const TempDir dir("gen");
  expect_same_files(
      golden::checkpoint_files(golden::golden_engine(dir.str()), dir.str()),
      committed_checkpoint_files());
}

namespace {

/// Restores `committed` (state file with spec files and registry export,
/// then the serialize() payload and the registry on their own) and
/// checks that writing them again reproduces every byte.
void expect_restore_reserializes_exactly(const golden::NamedFiles& committed) {
  // The state file with its spec files and registry export.  Copies:
  // restore(path) deletes spec files the state does not reference.
  const TempDir in("in");
  for (const auto& [name, bytes] : committed) {
    if (name == golden::kPayloadFileName) continue;
    std::ofstream(in.file(name), std::ios::binary)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
  }
  const MonitorEngine restored =
      MonitorEngine::restore(in.file(golden::kStateFileName),
                             golden::golden_engine_options(in.str()));
  const TempDir out("out");
  expect_same_files(golden::checkpoint_files(restored, out.str()), committed);

  // The serialize() payload on its own.
  const std::vector<std::uint8_t>& payload =
      bytes_of(committed, golden::kPayloadFileName);
  expect_same_bytes(
      MonitorEngine::restore_from_bytes(payload,
                                        golden::golden_engine_options(""))
          .serialize(),
      payload, "restore_from_bytes round trip");

  // The exported registry on its own.
  const std::vector<std::uint8_t>& nbrg =
      bytes_of(committed, golden::kRegistryFileName);
  const BaselineRegistry registry =
      BaselineRegistry::load(in.file(golden::kRegistryFileName));
  registry.save(out.file("again.nbrg"));
  std::ifstream again(out.file("again.nbrg"), std::ios::binary);
  expect_same_bytes({std::istreambuf_iterator<char>(again),
                     std::istreambuf_iterator<char>()},
                    nbrg, "BaselineRegistry load/save round trip");
}

}  // namespace

TEST(GoldenFormats, CommittedCheckpointsRestoreAndReserializeExactly) {
  {
    SCOPED_TRACE("today's checkpoint");
    expect_restore_reserializes_exactly(committed_checkpoint_files());
  }
  {
    // Fleet layout 2 kept a staging ring per channel.  Its state file,
    // beside today's spec files and registry export, and its payload are
    // refused with the typed version error, never misread.
    SCOPED_TRACE("layout-2 checkpoint");
    const auto expect_bad_version = [](auto&& restore) {
      try {
        restore();
        ADD_FAILURE() << "layout-2 checkpoint accepted";
      } catch (const nsync::signal::CheckpointError& e) {
        EXPECT_EQ(e.kind(), nsync::signal::CheckpointErrorKind::kBadVersion)
            << e.what();
      }
    };
    const TempDir in("layout2");
    for (const auto& [name, bytes] : committed_checkpoint_files()) {
      if (name == golden::kPayloadFileName) continue;
      const std::vector<std::uint8_t> file =
          name == golden::kStateFileName
              ? golden::read_golden(std::string(golden::kFullRingDir) + "/" +
                                    name)
              : bytes;
      std::ofstream(in.file(name), std::ios::binary)
          .write(reinterpret_cast<const char*>(file.data()),
                 static_cast<std::streamsize>(file.size()));
    }
    expect_bad_version([&] {
      (void)MonitorEngine::restore(in.file(golden::kStateFileName),
                                   golden::golden_engine_options(in.str()));
    });
    const std::vector<std::uint8_t> payload = golden::read_golden(
        std::string(golden::kFullRingDir) + "/" + golden::kPayloadFileName);
    expect_bad_version([&] {
      (void)MonitorEngine::restore_from_bytes(
          payload, golden::golden_engine_options(""));
    });
  }
}

TEST(GoldenFormats, DetectionCoreFlagBytesAboveOneAreCorrupt) {
  // The armed, valid, intrusion and by_* bytes of a DetectionCore state
  // are 0/1 flags: a 2 is corruption, not "true".
  const std::vector<std::uint8_t> payload =
      golden::read_golden(golden::kPayloadFileName);
  const auto options = golden::golden_engine_options("");
  (void)MonitorEngine::restore_from_bytes(payload, options);  // intact: fine
  std::size_t latched = 0;
  for (const ChannelSpec& ch : golden::golden_spec(true).channels) {
    const CoreFlagOffsets at = core_flag_offsets(payload, ch);
    ASSERT_EQ(payload[at.armed], 1) << ch.name;
    latched += payload[at.intrusion];
    for (const std::size_t offset :
         {at.armed, at.first_valid, at.intrusion, at.intrusion + 1,
          at.intrusion + 2, at.intrusion + 3}) {
      std::vector<std::uint8_t> patched = payload;
      patched[offset] = 2;
      try {
        (void)MonitorEngine::restore_from_bytes(patched, options);
        ADD_FAILURE() << ch.name << ": flag byte 2 at offset " << offset
                      << " accepted";
      } catch (const nsync::signal::CheckpointError& e) {
        EXPECT_EQ(e.kind(), nsync::signal::CheckpointErrorKind::kCorrupt)
            << ch.name << " offset " << offset << ": " << e.what();
      }
    }
  }
  EXPECT_GE(latched, 1u);  // the patched verdicts include a latched one
}

TEST(GoldenFormats, RegistryKeysMustBeStrictlyAscending) {
  // Split the committed NBRG section into its header and per-key entries.
  const std::vector<std::uint8_t> file =
      golden::read_golden(golden::kRegistryFileName);
  const std::span<const std::uint8_t> payload =
      nsync::signal::unframe_checkpoint(file);
  constexpr std::uint32_t kSecNbrg = 0x4752424E;  // "NBRG"
  nsync::signal::ByteReader outer(payload);
  nsync::signal::ByteReader body = outer.section(kSecNbrg);
  const std::size_t size = body.remaining();
  // version u32 | five policy fields | u64 key count
  const std::span<const std::uint8_t> header = body.bytes(4 + 5 * 8);
  const auto count = body.pod<std::uint64_t>();
  ASSERT_GE(count, 3u);
  std::vector<std::span<const std::uint8_t>> entries;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::size_t begin = size - body.remaining();
    nsync::signal::ByteReader probe = body;
    (void)probe.str();
    (void)probe.str();
    (void)probe.bytes(6 * sizeof(double) + 2 * sizeof(std::uint64_t));
    const auto ring = probe.pod<std::uint64_t>();
    (void)probe.bytes(static_cast<std::size_t>(ring) * 3 * sizeof(double));
    entries.push_back(body.bytes(size - probe.remaining() - begin));
  }
  body.finish();

  const auto restore = [&](const std::vector<std::size_t>& order) {
    nsync::signal::ByteWriter w;
    const std::size_t token = w.begin_section(kSecNbrg);
    w.bytes(header.data(), header.size());
    w.pod<std::uint64_t>(order.size());
    for (const std::size_t i : order) {
      w.bytes(entries[i].data(), entries[i].size());
    }
    w.end_section(token);
    BaselineRegistry registry;
    nsync::signal::ByteReader r(w.data());
    registry.restore_state(r);
    r.finish();
    return registry.keys().size();
  };
  EXPECT_EQ(restore({0, 1, 2}), 3u);  // the committed order
  for (const std::vector<std::size_t>& order :
       {std::vector<std::size_t>{1, 0, 2}, {0, 2, 1},
        std::vector<std::size_t>{0, 0, 2}}) {
    try {
      (void)restore(order);
      ADD_FAILURE() << "keys in order " << order[0] << order[1] << order[2]
                    << " accepted";
    } catch (const nsync::signal::CheckpointError& e) {
      EXPECT_EQ(e.kind(), nsync::signal::CheckpointErrorKind::kCorrupt);
    }
  }
}
