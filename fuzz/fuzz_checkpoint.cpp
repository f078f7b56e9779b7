// libFuzzer target: the checkpoint container and the fleet restore path.
//
// A checkpoint file is read at the most security-sensitive moment the
// monitor has — recovery after a crash, exactly when an attacker would
// like to feed it forged state.  Both layers must reject arbitrary bytes
// with CheckpointError (the one exception the API documents) and nothing
// else: no crashes, no OOM from length-field-driven allocations, no
// partial restores.
//
// The input is fuzzed through three entry points:
//   1. unframe_checkpoint — the container framing (magic/version/CRC).
//   2. MonitorEngine::restore_from_bytes — the structural parser,
//      deliberately bypassing the CRC gate so the deep session/channel
//      decoding gets fuzzed rather than just the checksum.  An accepted
//      payload must serialize back to exactly the input bytes: every
//      layout is one field list (signal/fields.hpp), so the decoder may
//      accept only what the encoder writes.
//   3. decode_session_spec — the payload of a per-session spec file, the
//      one part of a checkpoint restore(path) reads from beside it.  An
//      accepted spec must re-encode to exactly the input bytes.
//
// tests/golden/session.spec (and its bare payload), the ADD_SESSION
// payloads, and the fleet checkpoint goldens (fleet.payload and the
// framed fleet.nckp) seed the corpus.
//
// Build: cmake -DNSYNC_BUILD_FUZZERS=ON (requires Clang; see
// fuzz/CMakeLists.txt).  Run: ./fuzz/fuzz_checkpoint -max_total_time=60
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>

#include "engine/monitor_engine.hpp"
#include "engine/session_codec.hpp"
#include "signal/checkpoint.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> bytes(data, size);

  try {
    (void)nsync::signal::unframe_checkpoint(bytes);
  } catch (const nsync::signal::CheckpointError&) {
    // Expected for malformed input.
  }

  // A payload carrying a baseline registry restores only into an adaptive
  // engine (kMismatch otherwise), so that is the second try.
  using nsync::engine::MonitorEngineOptions;
  MonitorEngineOptions adaptive;
  adaptive.baseline.adaptive = true;
  for (const auto& options : {MonitorEngineOptions{}, adaptive}) {
    try {
      nsync::engine::MonitorEngine engine =
          nsync::engine::MonitorEngine::restore_from_bytes(bytes, options);
      for (std::size_t i = 0; i < engine.sessions(); ++i) {
        (void)engine.snapshot(i);
      }
      // The payload decoder accepts only canonical encodings too.
      if (!std::ranges::equal(engine.serialize(), bytes)) {
        __builtin_trap();
      }
      break;
    } catch (const nsync::signal::CheckpointError&) {
      // Expected for malformed input.
    }
  }

  try {
    const nsync::engine::SessionSpec spec =
        nsync::engine::decode_session_spec(bytes);
    // The decoder accepts only canonical encodings: re-encoding gives
    // back exactly the input.
    nsync::signal::ByteWriter w;
    nsync::engine::save_session_spec(w, spec);
    if (!std::ranges::equal(w.data(), bytes)) {
      __builtin_trap();
    }
  } catch (const nsync::signal::CheckpointError&) {
    // Expected for malformed input.
  }
  return 0;
}
