#include "printer/simulator.hpp"

namespace nsync::printer {

MotionTrace simulate_print(const gcode::Program& program,
                           const MachineConfig& m, const ExecutorConfig& cfg,
                           std::uint64_t seed) {
  const MotionPlan plan = plan_program(program, m);
  nsync::signal::Rng rng(seed);
  return execute_plan(plan, m, cfg, rng);
}

}  // namespace nsync::printer
