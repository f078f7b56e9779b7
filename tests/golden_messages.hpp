// Canonical messages behind the committed golden files in tests/golden/.
//
// One builder serves both the make_goldens generator (which writes the
// files) and test_golden_formats (which checks today's codec against
// them), so the bytes on disk and the bytes under test always come from
// the same values.  Every field carries a distinct non-default value and
// every sample is an exact binary fraction, so a swapped, dropped or
// re-typed field moves the bytes on every platform.
#ifndef NSYNC_TESTS_GOLDEN_MESSAGES_HPP
#define NSYNC_TESTS_GOLDEN_MESSAGES_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/monitor_engine.hpp"
#include "engine/wire_protocol.hpp"

namespace nsync::golden {

/// One NSFP frame per message type, plus ADD_SESSION with a trained
/// weighted policy, as (file name, message) in file order.
[[nodiscard]] std::vector<std::pair<std::string, engine::wire::Message>>
golden_messages();

/// The two-channel session spec the goldens carry: a bare voting rule in
/// the policy slot, or a trained WeightedPolicy.
[[nodiscard]] engine::SessionSpec golden_spec(bool weighted);

/// File name of the spec-file golden.
inline constexpr const char* kSpecFileName = "session.spec";

/// The spec file (NCKP framing included) MonitorEngine::checkpoint writes
/// for golden_spec(true), read back from a checkpoint taken under `dir`.
[[nodiscard]] std::vector<std::uint8_t> golden_spec_file(
    const std::string& dir);

/// File names of the checkpoint goldens: the state file
/// MonitorEngine::checkpoint writes (its spec files are
/// MonitorEngine::spec_path(kStateFileName, id)), the serialize()
/// payload (spec-table form, no NCKP framing) and the exported registry.
inline constexpr const char* kStateFileName = "fleet.nckp";
inline constexpr const char* kPayloadFileName = "fleet.payload";
inline constexpr const char* kRegistryFileName = "baselines.nbrg";
/// Subdirectory holding a state file and payload of fleet layout 2 (a
/// staging ring per channel; written before synchronizers dropped consumed
/// frames at the end of each push).  Restore must refuse them as
/// kBadVersion; make_goldens does not write them.
inline constexpr const char* kFullRingDir = "full_ring";

/// (file name, bytes) pairs.
using NamedFiles =
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>>;

/// The options the checkpoint goldens are written and restored with: an
/// adaptive registry (default policy) exported into `dir`.
[[nodiscard]] engine::MonitorEngineOptions golden_engine_options(
    const std::string& dir);

/// The fleet behind the checkpoint goldens, built under the scalar SIMD
/// backend so its bytes do not depend on the host ISA.  Session 0 is a
/// benign print evicted into a tombstone (its fold leaves a non-empty
/// `recent` ring on two registry keys); session 1 runs the weighted
/// policy over a tampered print and latches an intrusion; session 2 goes
/// degraded on flat frames and is fed once more after its last poll.
/// Registry exports go
/// to `dir`.
[[nodiscard]] engine::MonitorEngine golden_engine(const std::string& dir);

/// Checkpoints `engine` to `<dir>/kStateFileName` and returns the files
/// that wrote — the state file, one spec file per live session and the
/// registry export (read from engine.baseline_path()) — plus the
/// serialize() payload, in file-name order.
[[nodiscard]] NamedFiles checkpoint_files(const engine::MonitorEngine& engine,
                                          const std::string& dir);

/// A committed golden file from tests/golden/, read whole.
[[nodiscard]] std::vector<std::uint8_t> read_golden(const std::string& name);

}  // namespace nsync::golden

#endif  // NSYNC_TESTS_GOLDEN_MESSAGES_HPP
