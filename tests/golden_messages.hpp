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

/// A committed golden file from tests/golden/, read whole.
[[nodiscard]] std::vector<std::uint8_t> read_golden(const std::string& name);

}  // namespace nsync::golden

#endif  // NSYNC_TESTS_GOLDEN_MESSAGES_HPP
