// One-call convenience API: G-code program -> planned -> executed trace.
#ifndef NSYNC_PRINTER_SIMULATOR_HPP
#define NSYNC_PRINTER_SIMULATOR_HPP

#include <cstdint>

#include "gcode/program.hpp"
#include "printer/executor.hpp"
#include "printer/machine.hpp"
#include "printer/planner.hpp"

namespace nsync::printer {

/// Plans and executes `program` on machine `m` with the machine's
/// time-noise model and the given seed.  Each distinct seed yields a
/// distinct realization of the time noise — running the same program twice
/// with different seeds reproduces Fig. 1 (signals that align at the start
/// and drift apart).
[[nodiscard]] MotionTrace simulate_print(const gcode::Program& program,
                                         const MachineConfig& m,
                                         const ExecutorConfig& cfg,
                                         std::uint64_t seed);

}  // namespace nsync::printer

#endif  // NSYNC_PRINTER_SIMULATOR_HPP
