// Golden fixtures for the persisted formats: every NSFP message type and
// the per-session spec file MonitorEngine::checkpoint writes.  The bytes
// in tests/golden/ were produced by make_goldens from the same
// canonical-message builder this test uses, so any codec change that
// moves a byte fails here.  A deliberate format change bumps the version
// and regenerates the files (see DESIGN.md §4).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
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
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("nsync_golden_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::vector<std::uint8_t> written =
      golden::golden_spec_file(dir.string());
  std::filesystem::remove_all(dir);
  expect_same_bytes(written, golden::read_golden(golden::kSpecFileName),
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
