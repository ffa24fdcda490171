// Oracle test for MpiApp's lazy application state. MpiApp applies its 50 ms
// /proc ticks only when its state is read or the process stops, resumes or
// exits. EagerApp below is the model it replaced, kept here verbatim as the
// oracle: one tick event per 50 ms, deferred by the process while stopped
// and dropped after exit. Both run the same seeded schedule of reads, tracer
// stops and kills on identical machines, and every read must agree.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/mpi_app.hpp"
#include "cluster/machine.hpp"
#include "cluster/tracing.hpp"
#include "common/argparse.hpp"
#include "simkernel/rng.hpp"
#include "simkernel/simulator.hpp"

namespace lmon {
namespace {

using cluster::Process;

/// The eager tick model: one posted event per tick.
class EagerApp : public cluster::Program {
 public:
  explicit EagerApp(std::vector<sim::Time>* tick_log) : tick_log_(tick_log) {}
  [[nodiscard]] std::string_view name() const override { return "eager_app"; }

  void on_start(Process& self) override {
    rank_ = static_cast<int>(arg_int(self.args(), "--rank=").value_or(0));
    rng_ = sim::Rng(static_cast<std::uint64_t>(rank_) * 7919 + 13);
    auto& st = self.stats();
    st.state = 'R';
    st.num_threads = 1 + static_cast<std::uint32_t>(rng_.next_below(3));
    st.vm_hwm_kb = 150'000 + rng_.next_below(80'000);
    st.vm_rss_kb = st.vm_hwm_kb - rng_.next_below(20'000);
    st.vm_lck_kb = rng_.next_below(4096);
    rebuild_stack();
    tick(self);
  }

  [[nodiscard]] const std::vector<std::string>& call_stack() const {
    return stack_;
  }

 private:
  void rebuild_stack() {
    stack_ = {"_start", "main", "solver_loop"};
    const std::uint64_t mode = rng_.next_below(100);
    if (rank_ == 0 && mode < 30) {
      stack_.push_back("write_checkpoint");
      stack_.push_back("io_write");
    } else if (mode < 20) {
      stack_.push_back("exchange_halo");
      stack_.push_back("MPI_Waitall");
    } else if (mode < 28) {
      stack_.push_back("global_reduce");
      stack_.push_back("MPI_Allreduce");
    } else {
      stack_.push_back("compute_kernel");
      stack_.push_back(mode % 2 == 0 ? "stencil_sweep" : "apply_bc");
    }
  }

  void tick(Process& self) {
    self.post(sim::ms(50), [this, &self] {
      if (tick_log_ != nullptr && rank_ == 0) {
        tick_log_->push_back(self.sim().now());
      }
      auto& st = self.stats();
      st.program_counter = 0x400000 + rng_.next_below(0x10000);
      st.utime_ms += 45 + rng_.next_below(5);
      st.stime_ms += rng_.next_below(5);
      if (rng_.next_below(10) == 0) st.maj_faults += 1;
      if (rng_.next_below(20) == 0) {
        st.vm_hwm_kb += rng_.next_below(1024);
        st.vm_rss_kb = st.vm_hwm_kb - rng_.next_below(20'000);
      }
      rebuild_stack();
      tick(self);
    });
  }

  std::vector<sim::Time>* tick_log_;
  int rank_ = -1;
  sim::Rng rng_{0};
  std::vector<std::string> stack_;
};

/// Everything a tool can read of a task.
struct Snapshot {
  sim::Time at = 0;
  int rank = 0;
  char state = 0;
  std::uint64_t program_counter = 0;
  std::uint32_t num_threads = 0;
  std::uint64_t vm_hwm_kb = 0;
  std::uint64_t vm_rss_kb = 0;
  std::uint64_t vm_lck_kb = 0;
  std::uint64_t utime_ms = 0;
  std::uint64_t stime_ms = 0;
  std::uint64_t maj_faults = 0;
  std::vector<std::string> stack;
  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

std::ostream& operator<<(std::ostream& os, const Snapshot& s) {
  os << "{t=" << s.at << " rank=" << s.rank << " state=" << s.state
     << " pc=" << s.program_counter << " thr=" << s.num_threads
     << " hwm=" << s.vm_hwm_kb << " rss=" << s.vm_rss_kb
     << " lck=" << s.vm_lck_kb << " ut=" << s.utime_ms << " st=" << s.stime_ms
     << " flt=" << s.maj_faults << " stack=";
  for (const auto& f : s.stack) os << f << '/';
  return os << '}';
}

enum class Kill { Running, OnDueTime, WhileStopped };

/// A tracer stop of every task: stopped from `begin` to `end` (offsets from
/// the tasks' start). `via_continue` resumes with continue_target before
/// detaching, instead of detaching straight away.
struct Stop {
  sim::Time begin;
  sim::Time end;
  bool via_continue;
};

/// Due times (offsets) with these stops: 50, 100, ... until the first
/// resume shifts the grid.
///  - [120, 140] covers no due time;
///  - [260, 330] covers 300, which runs at 330; next due 380;
///  - [400, 580] covers 430, 480, 530 (one run, at 580); next due 630;
///  - [640, 680] ends exactly on the due time 680; next due 730;
///  - [780, 800] begins exactly on the due time 780 (applied before the
///    stop); next due 830, then 880, 930, 980, 1030, 1080, ...
const std::vector<Stop> kStops = {
    {sim::ms(120), sim::ms(140), true},  {sim::ms(260), sim::ms(330), false},
    {sim::ms(400), sim::ms(580), true},  {sim::ms(640), sim::ms(680), false},
    {sim::ms(780), sim::ms(800), false},
};

struct Schedule {
  std::vector<sim::Time> reads;  ///< offsets from the tasks' start
  Kill kill = Kill::Running;
  sim::Time kill_at = 0;  ///< offset; WhileStopped stops the tasks at 1040
};

constexpr int kRanks = 4;

/// Runs kRanks tasks of one model under `sched`. Returns every read, and the
/// rank-0 tick times (eager model only) in `tick_log`.
std::vector<Snapshot> run(bool lazy, const Schedule& sched,
                          std::vector<sim::Time>* tick_log = nullptr) {
  sim::Simulator simulator(7);
  cluster::Machine machine(
      simulator,
      cluster::MachineConfig{2, 0, "node", cluster::CostModel{}.deterministic()});
  std::vector<Snapshot> reads;
  std::vector<Process*> tasks;
  std::vector<cluster::TraceSession*> sessions(kRanks, nullptr);
  sim::Time start = -1;

  auto read_all = [&] {
    for (int r = 0; r < kRanks; ++r) {
      Process& p = *tasks[static_cast<std::size_t>(r)];
      const cluster::ProcStats& st = p.stats();
      Snapshot s{simulator.now() - start, r,           st.state,
                 st.program_counter,      st.num_threads, st.vm_hwm_kb,
                 st.vm_rss_kb,            st.vm_lck_kb,   st.utime_ms,
                 st.stime_ms,             st.maj_faults,  {}};
      s.stack = lazy ? dynamic_cast<apps::MpiApp&>(p.program()).call_stack()
                     : dynamic_cast<EagerApp&>(p.program()).call_stack();
      reads.push_back(std::move(s));
    }
  };

  // The driver traces the tasks. Every action lands at its exact time from
  // a 1 ns earlier event, so it is ordered after any tick event due then
  // (those were all posted at least 1 ns before).
  Process* driver_proc = nullptr;
  auto at = [&](sim::Time offset, std::function<void()> fn) {
    simulator.schedule_at(start + offset - 1,
                          [&simulator, fn = std::move(fn)]() mutable {
                            simulator.schedule(1, std::move(fn));
                          });
  };
  // trace_attach stops its target trace_attach_cost after the call.
  auto stop_all = [&](sim::Time offset) {
    at(offset - machine.costs().trace_attach_cost, [&] {
      for (int r = 0; r < kRanks; ++r) {
        auto res = driver_proc->trace_attach(
            tasks[static_cast<std::size_t>(r)]->pid(),
            [](const cluster::DebugEvent&) {});
        ASSERT_TRUE(res.is_ok());
        sessions[static_cast<std::size_t>(r)] = res.value;
      }
    });
  };
  auto on_started = [&] {
    if (start >= 0) return;  // every task starts at the same instant
    start = simulator.now();
    for (const Stop& s : kStops) {
      stop_all(s.begin);
      at(s.end, [&, s] {
        for (auto* session : sessions) {
          if (s.via_continue) session->continue_target();
          session->detach();
        }
      });
    }
    for (sim::Time t : sched.reads) at(t, read_all);
    if (sched.kill == Kill::WhileStopped) {
      stop_all(sched.kill_at - sim::ms(60));
      at(sched.kill_at, [&] {
        for (auto* session : sessions) session->kill_target();
      });
    } else {
      at(sched.kill_at, [&] {
        for (Process* p : tasks) p->exit(9);
      });
    }
  };

  struct Driver : cluster::Program {
    std::function<void(Process&)> start;
    [[nodiscard]] std::string_view name() const override { return "driver"; }
    void on_start(Process& self) override { start(self); }
  };
  auto driver = std::make_unique<Driver>();
  driver->start = [&](Process& self) {
    driver_proc = &self;
    for (int r = 0; r < kRanks; ++r) {
      cluster::SpawnOptions o;
      o.executable = "task";
      o.args = {"--rank=" + std::to_string(r), "--size=4"};
      o.started_callback = [&](cluster::Pid) { on_started(); };
      std::unique_ptr<cluster::Program> prog;
      if (lazy) {
        prog = std::make_unique<apps::MpiApp>();
      } else {
        prog = std::make_unique<EagerApp>(tick_log);
      }
      auto res = self.spawn_child(std::move(prog), std::move(o));
      ASSERT_TRUE(res.is_ok());
      tasks.push_back(machine.find_process(res.value));
    }
  };
  EXPECT_TRUE(machine.node(0).spawn(std::move(driver), {}).is_ok());
  simulator.run(sim::seconds(3));
  return reads;
}

/// Seeded random reads, plus reads at every due time the eager model
/// ticked at, at the stop and resume instants, and after the kill.
Schedule make_schedule(std::uint64_t seed, Kill kill) {
  Schedule s;
  s.kill = kill;
  sim::Rng rng(seed);
  switch (kill) {
    case Kill::Running:
      s.kill_at = sim::ms(900) + static_cast<sim::Time>(
                                     rng.next_below(sim::ms(100)));
      break;
    case Kill::OnDueTime:
      s.kill_at = sim::ms(1030);
      break;
    case Kill::WhileStopped:
      s.kill_at = sim::ms(1100);
      break;
  }
  std::vector<sim::Time> ticks;
  (void)run(false, s, &ticks);
  // Offsets of the ticks from the first one, which is due 50 ms in.
  for (sim::Time t : ticks) s.reads.push_back(t - ticks.front() + sim::ms(50));
  for (const Stop& st : kStops) {
    s.reads.push_back(st.begin);
    s.reads.push_back(st.end);
  }
  for (int i = 0; i < 40; ++i) {
    s.reads.push_back(1 + static_cast<sim::Time>(
                              rng.next_below(sim::ms(1300))));
  }
  s.reads.push_back(s.kill_at);
  s.reads.push_back(s.kill_at + sim::ms(200));
  s.reads.push_back(sim::ms(1500));
  return s;
}

class MpiAppOracle : public ::testing::TestWithParam<Kill> {};

TEST_P(MpiAppOracle, LazyStateMatchesEagerTicks) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Schedule sched = make_schedule(seed, GetParam());
    const auto eager = run(false, sched);
    const auto lazy = run(true, sched);
    ASSERT_EQ(eager.size(), sched.reads.size() * kRanks);
    ASSERT_EQ(lazy.size(), eager.size());
    for (std::size_t i = 0; i < eager.size(); ++i) {
      ASSERT_EQ(lazy[i], eager[i]) << "seed " << seed << " read " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kills, MpiAppOracle,
    ::testing::Values(Kill::Running, Kill::OnDueTime, Kill::WhileStopped),
    [](const ::testing::TestParamInfo<Kill>& info) {
      switch (info.param) {
        case Kill::Running:
          return std::string("KillRunning");
        case Kill::OnDueTime:
          return std::string("KillOnDueTime");
        case Kill::WhileStopped:
          return std::string("KillWhileStopped");
      }
      return std::string("Unknown");
    });

/// The schedule above exercises what it claims: the eager model's tick
/// times show the deferred ticks at resume and the shifted grid after it.
TEST(MpiAppOracle, ScheduleCoversTheStopCases) {
  Schedule s;
  s.kill = Kill::OnDueTime;
  s.kill_at = sim::ms(1030);
  std::vector<sim::Time> ticks;
  (void)run(false, s, &ticks);
  ASSERT_FALSE(ticks.empty());
  const sim::Time base = ticks.front() - sim::ms(50);
  std::vector<sim::Time> got;
  for (sim::Time t : ticks) got.push_back((t - base) / sim::kMillisecond);
  const std::vector<sim::Time> want = {50,  100, 150, 200, 250, 330, 380,
                                       580, 630, 680, 730, 780, 830, 880,
                                       930, 980, 1030};
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace lmon
