// mpi_app.hpp - simulated MPI application task.
//
// Stands in for the parallel application whose processes the tools target.
// Each task keeps /proc-style statistics churning (program counter, memory
// watermarks, CPU time, page faults) so that Jobsnap has realistic state to
// snapshot, and advances through a synthetic call stack that STAT samples.
//
// The churn is a closed form of simulated time rather than a stream of
// events: a task updates its state once per kTick while it runs, but the
// updates are applied only when someone reads the state (stats(),
// call_stack()) or the process stops, resumes or exits. The rules, which
// match a task posting one tick event per kTick:
//  - a tick due at exactly the read time is applied before the read;
//  - while stopped no tick applies; if one came due, it runs once at resume
//    and the next is due kTick after the resume;
//  - no tick applies after exit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/process.hpp"
#include "simkernel/rng.hpp"

namespace lmon::apps {

class MpiApp : public cluster::Program {
 public:
  /// Simulated time between two /proc updates of a running task.
  static constexpr sim::Time kTick = sim::ms(50);

  [[nodiscard]] std::string_view name() const override { return "mpi_app"; }
  void on_start(cluster::Process& self) override;
  void on_state_change(cluster::Process& self,
                       cluster::ProcState from) override;
  void sync_stats(cluster::Process& self) override;

  /// Current synthetic call stack (function name list, outermost first).
  /// STAT back-end daemons read this through node-local access, the way the
  /// real tool uses a stackwalker on a stopped process.
  [[nodiscard]] const std::vector<std::string>& call_stack();
  [[nodiscard]] int rank() const { return rank_; }

  /// Installs the "mpi_app" image into a machine's program registry.
  static void install(cluster::Machine& machine);

 private:
  /// Applies every tick due at or before `until`.
  void catch_up(sim::Time until);
  /// Catches up to the last instant the task ran: now while running, else
  /// the stop or exit time.
  void catch_up_now();
  /// One /proc update and a fresh call stack.
  void tick();
  void rebuild_stack();

  cluster::Process* self_ = nullptr;  ///< null until on_start
  cluster::ProcStats* stats_ = nullptr;  ///< self_'s /proc stats
  int rank_ = -1;
  int size_ = 0;
  sim::Rng rng_{0};
  sim::Time next_due_ = 0;
  sim::Time halted_at_ = 0;  ///< stop or exit time; read when not Running
  std::uint8_t stack_ = 0;   ///< index into the fixed stack shapes
};

}  // namespace lmon::apps
