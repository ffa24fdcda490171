#include "apps/mpi_app.hpp"

#include <array>
#include <memory>

#include "cluster/machine.hpp"
#include "common/argparse.hpp"

namespace lmon::apps {

namespace {

/// The call stacks a task can be in: a synthetic SPMD application profile.
/// Most ranks compute, a few are in MPI communication, rank 0 may sit in
/// I/O. This yields the equivalence-class structure STAT's prefix tree is
/// designed to expose.
enum Shape : std::uint8_t { kIo, kHalo, kReduce, kStencil, kBc, kShapes };

const std::array<std::vector<std::string>, kShapes>& stack_shapes() {
  static const std::array<std::vector<std::string>, kShapes> shapes = {{
      {"_start", "main", "solver_loop", "write_checkpoint", "io_write"},
      {"_start", "main", "solver_loop", "exchange_halo", "MPI_Waitall"},
      {"_start", "main", "solver_loop", "global_reduce", "MPI_Allreduce"},
      {"_start", "main", "solver_loop", "compute_kernel", "stencil_sweep"},
      {"_start", "main", "solver_loop", "compute_kernel", "apply_bc"},
  }};
  return shapes;
}

}  // namespace

void MpiApp::on_start(cluster::Process& self) {
  rank_ = static_cast<int>(arg_int(self.args(), "--rank=").value_or(0));
  size_ = static_cast<int>(arg_int(self.args(), "--size=").value_or(1));
  rng_ = sim::Rng(static_cast<std::uint64_t>(rank_) * 7919 + 13);

  auto& st = self.stats();
  stats_ = &st;
  st.state = 'R';
  st.num_threads = 1 + static_cast<std::uint32_t>(rng_.next_below(3));
  st.vm_hwm_kb = 150'000 + rng_.next_below(80'000);
  st.vm_rss_kb = st.vm_hwm_kb - rng_.next_below(20'000);
  st.vm_lck_kb = rng_.next_below(4096);
  rebuild_stack();
  self_ = &self;
  next_due_ = self.sim().now() + kTick;
}

void MpiApp::on_state_change(cluster::Process& self, cluster::ProcState from) {
  if (self_ == nullptr) return;  // not started: no clock yet
  const sim::Time now = self.sim().now();
  switch (self.state()) {
    case cluster::ProcState::Stopped:
      halted_at_ = now;
      break;
    case cluster::ProcState::Running:
      if (from != cluster::ProcState::Stopped) break;
      catch_up(halted_at_);
      // A tick that came due while stopped runs once, at resume.
      if (next_due_ <= now) {
        tick();
        next_due_ = now + kTick;
      }
      break;
    case cluster::ProcState::Exited:
      // Exiting while stopped keeps the stop time: deferred ticks die.
      if (from == cluster::ProcState::Running) halted_at_ = now;
      break;
    case cluster::ProcState::Spawning:
      break;
  }
}

void MpiApp::sync_stats(cluster::Process& self) {
  (void)self;
  if (self_ != nullptr) catch_up_now();
}

const std::vector<std::string>& MpiApp::call_stack() {
  if (self_ != nullptr) catch_up_now();
  return stack_shapes()[stack_];
}

void MpiApp::catch_up_now() {
  catch_up(self_->state() == cluster::ProcState::Running ? self_->sim().now()
                                                         : halted_at_);
}

void MpiApp::catch_up(sim::Time until) {
  while (next_due_ <= until) {
    tick();
    next_due_ += kTick;
  }
}

void MpiApp::tick() {
  // Writes through the pointer: stats() would re-enter sync_stats.
  cluster::ProcStats& st = *stats_;
  st.program_counter = 0x400000 + rng_.next_below(0x10000);
  st.utime_ms += 45 + rng_.next_below(5);
  st.stime_ms += rng_.next_below(5);
  if (rng_.next_below(10) == 0) st.maj_faults += 1;
  if (rng_.next_below(20) == 0) {
    st.vm_hwm_kb += rng_.next_below(1024);
    st.vm_rss_kb = st.vm_hwm_kb - rng_.next_below(20'000);
  }
  rebuild_stack();
}

void MpiApp::rebuild_stack() {
  const std::uint64_t mode = rng_.next_below(100);
  if (rank_ == 0 && mode < 30) {
    stack_ = kIo;
  } else if (mode < 20) {
    stack_ = kHalo;
  } else if (mode < 28) {
    stack_ = kReduce;
  } else {
    stack_ = mode % 2 == 0 ? kStencil : kBc;
  }
}

void MpiApp::install(cluster::Machine& machine) {
  cluster::ProgramImage image;
  image.image_mb = machine.costs().app_image_mb;
  image.factory = [](const std::vector<std::string>&) {
    return std::make_unique<MpiApp>();
  };
  machine.install_program("mpi_app", std::move(image));
}

}  // namespace lmon::apps
