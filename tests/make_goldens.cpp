// Writes the golden wire and spec-file fixtures into a directory:
//
//   make_goldens tests/golden
//
// One complete NSFP frame per message type (ADD_SESSION twice: bare
// voting rule and trained weighted policy), the spec file
// MonitorEngine::checkpoint writes for one session, and the checkpoint
// goldens: a three-session fleet's state file with its spec files, its
// serialize() payload and its exported .nbrg registry.  The files pin the
// persisted formats; regenerate them only together with a deliberate
// format change (a kProtocolVersion, NCKP, fleet-layout or NBRG version
// bump) or a deliberate change in what the fleet keeps as state, and
// review the diff.  When state content changes under an unchanged layout,
// keep the replaced state file and payload as restore-only fixtures, so
// older checkpoint directories stay covered; when the layout moves, keep
// them as fixtures restore must refuse (tests/golden/full_ring/ holds a
// layout-2 pair, rejected as kBadVersion).
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "engine/wire_protocol.hpp"
#include "golden_messages.hpp"

namespace {

void put(const std::filesystem::path& path,
         const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path.string());
  std::printf("%8zu  %s\n", bytes.size(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  try {
    const std::filesystem::path dir(argv[1]);
    std::filesystem::create_directories(dir);
    for (const auto& [name, msg] : nsync::golden::golden_messages()) {
      put(dir / name, nsync::engine::wire::encode(msg));
    }
    const std::filesystem::path scratch =
        std::filesystem::temp_directory_path() /
        ("nsync_goldens_" + std::to_string(::getpid()));
    std::filesystem::create_directories(scratch);
    const std::vector<std::uint8_t> spec =
        nsync::golden::golden_spec_file(scratch.string());
    put(dir / nsync::golden::kSpecFileName, spec);
    const auto files = nsync::golden::checkpoint_files(
        nsync::golden::golden_engine(scratch.string()), scratch.string());
    std::filesystem::remove_all(scratch);
    for (const auto& [name, bytes] : files) put(dir / name, bytes);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "make_goldens: %s\n", e.what());
    return 1;
  }
  return 0;
}
