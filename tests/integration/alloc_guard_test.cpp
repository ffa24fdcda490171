// Allocation guard for the host cost of a simulated message. This binary
// replaces the global operator new with a counting one, so the tests can
// assert how many heap blocks (and how many large ones) a stretch of
// simulation allocates:
//  - once the event queue has grown, an event whose capture fits
//    sim::Callback's inline storage allocates nothing, whether scheduled on
//    the simulator or posted to a running process;
//  - a rendezvous broadcast copies its payload into at most one new large
//    buffer per (tree edge, chunk): the frame that crosses the edge.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>

#include "cluster/machine.hpp"
#include "comm/bootstrap.hpp"
#include "core/iccl.hpp"
#include "simkernel/simulator.hpp"

namespace {

bool g_counting = false;
std::size_t g_blocks = 0;
std::size_t g_large_blocks = 0;
constexpr std::size_t kLarge = 32 * 1024;

/// Counts the heap blocks allocated while it is alive.
class CountAllocations {
 public:
  CountAllocations() {
    g_blocks = 0;
    g_large_blocks = 0;
    g_counting = true;
  }
  ~CountAllocations() { g_counting = false; }
  CountAllocations(const CountAllocations&) = delete;
  CountAllocations& operator=(const CountAllocations&) = delete;
};

}  // namespace

// GCC cannot see that the replaced operator new is malloc, so freeing its
// blocks with free() looks mismatched to -Wmismatched-new-delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (g_counting) {
    ++g_blocks;
    if (size >= kLarge) ++g_large_blocks;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace lmon {
namespace {

/// A bare simulated machine: `nodes` compute nodes, nothing installed.
struct Bare {
  explicit Bare(int nodes)
      : machine(sim, cluster::MachineConfig{nodes, 0, "atlas", {}}) {}
  sim::Simulator sim;
  cluster::Machine machine;
};

/// A self-rescheduling event with a 104-byte capture: still inline.
struct Step {
  sim::Simulator* sim;
  int* left;
  std::uint64_t* sum;
  std::array<std::uint64_t, 10> pad;

  void operator()() {
    *sum += pad[0];
    if (--*left <= 0) return;
    Step next = *this;
    next.pad[0] += 1;
    sim->schedule(static_cast<sim::Time>(pad[0] % 13), next);
  }
};
static_assert(sim::Callback::fits_inline<Step>());

/// Runs `chains` concurrent Step chains of `events` events in total.
void run_steps(sim::Simulator& sim, int chains, int events,
               std::uint64_t& sum) {
  int left = events;
  for (int c = 0; c < chains; ++c) {
    Step s{&sim, &left, &sum, {}};
    s.pad[0] = static_cast<std::uint64_t>(c);
    sim.schedule(c % 7, s);
  }
  sim.run();
}

TEST(AllocGuard, InlineEventsAllocateNothingAfterWarmUp) {
  sim::Simulator sim;
  std::uint64_t sum = 0;
  run_steps(sim, 1000, 100000, sum);  // grows the queue to working size
  {
    CountAllocations count;
    run_steps(sim, 1000, 100000, sum);
    EXPECT_EQ(g_blocks, 0u) << "blocks allocated by 1e5 inline events";
  }
  EXPECT_GT(sum, 0u);
}

class Idle : public cluster::Program {
 public:
  explicit Idle(cluster::Process** self) : self_(self) {}
  [[nodiscard]] std::string_view name() const override { return "idle"; }
  void on_start(cluster::Process& self) override { *self_ = &self; }

 private:
  cluster::Process** self_;
};

/// A continuation posted to a running process that posts the next one; the
/// capture (96 bytes) plus post's own (machine, pid) still fits inline.
struct PostStep {
  cluster::Process* self;
  int* left;
  std::array<std::uint64_t, 10> pad;

  void operator()() {
    if (--*left <= 0) return;
    self->post(static_cast<sim::Time>(pad[0] % 5), PostStep{*this});
  }
};

TEST(AllocGuard, PostedContinuationsRunDirectlyWithoutAllocating) {
  Bare tc(1);
  cluster::Process* proc = nullptr;
  ASSERT_TRUE(tc.machine.compute_node(0)
                  .spawn(std::make_unique<Idle>(&proc), {})
                  .is_ok());
  tc.sim.run();
  ASSERT_NE(proc, nullptr);
  auto run_posts = [&](int events) {
    int left = events;
    for (std::uint64_t c = 0; c < 100; ++c) {
      PostStep s{proc, &left, {}};
      s.pad[0] = c;
      proc->post(static_cast<sim::Time>(c % 3), s);
    }
    tc.sim.run();
  };
  run_posts(100000);
  CountAllocations count;
  run_posts(100000);
  EXPECT_EQ(g_blocks, 0u) << "blocks allocated by 1e5 posted continuations";
}

/// A raw ICCL daemon that records only the size of what it delivers, so
/// the test's own handler allocates nothing.
class SizeRecordingDaemon : public cluster::Program {
 public:
  explicit SizeRecordingDaemon(std::map<std::uint32_t, core::Iccl*>* iccls,
                               std::map<std::uint32_t, std::size_t>* got)
      : iccls_(iccls), got_(got) {}
  [[nodiscard]] std::string_view name() const override { return "raw_iccl"; }

  void on_start(cluster::Process& self) override {
    auto params =
        core::Iccl::params_from_args(self.args(), self.node().hostname());
    ASSERT_TRUE(params.has_value());
    iccl_ = std::make_unique<core::Iccl>(self, std::move(*params));
    const std::uint32_t rank = iccl_->rank();
    iccl_->set_bcast_handler(
        [this, rank](std::uint32_t, const Bytes& data) {
          (*got_)[rank] = data.size();
        });
    (*iccls_)[rank] = iccl_.get();
    iccl_->start([](Status) {});
  }

 private:
  std::map<std::uint32_t, core::Iccl*>* iccls_;
  std::map<std::uint32_t, std::size_t>* got_;
  std::unique_ptr<core::Iccl> iccl_;
};

TEST(AllocGuard, RendezvousBroadcastCopiesOncePerEdgeAndChunk) {
  constexpr std::uint32_t kRanks = 16;
  constexpr std::size_t kPayload = 64 * 1024;
  Bare tc(static_cast<int>(kRanks));
  const std::uint32_t chunk = tc.machine.costs().iccl_rndv_chunk_bytes;
  comm::BootstrapSpec spec;
  spec.size = kRanks;
  spec.topology = comm::TopologySpec{comm::TopologyKind::KAry, 4};
  spec.port = cluster::kToolFabricBasePort;
  spec.session = "alloc";
  spec.rndv_threshold = 1;  // every non-empty broadcast runs rendezvous
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    spec.hosts.push_back(tc.machine.compute_node(static_cast<int>(r))
                             .hostname());
  }
  std::map<std::uint32_t, core::Iccl*> iccls;
  std::map<std::uint32_t, std::size_t> got;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    cluster::SpawnOptions opts;
    opts.executable = "raw_iccl";
    opts.args = comm::bootstrap_args(spec, r);
    ASSERT_TRUE(tc.machine.compute_node(static_cast<int>(r))
                    .spawn(std::make_unique<SizeRecordingDaemon>(&iccls, &got),
                           std::move(opts))
                    .is_ok());
  }
  tc.sim.run();
  ASSERT_EQ(iccls.size(), kRanks);

  auto broadcast = [&](std::uint32_t tag) {
    got.clear();
    iccls.at(0)->broadcast(tag, Bytes(kPayload, 0x5a));
    tc.sim.run();
    ASSERT_EQ(got.size(), kRanks);
    for (const auto& [rank, size] : got) EXPECT_EQ(size, kPayload);
  };
  broadcast(1);  // warm-up: queue, maps and channels reach working size
  Bytes payload(kPayload, 0x5a);
  got.clear();
  {
    CountAllocations count;
    iccls.at(0)->broadcast(2, std::move(payload));
    tc.sim.run();
    const std::size_t edges = kRanks - 1;
    const std::size_t chunks = (kPayload + chunk - 1) / chunk;
    EXPECT_LE(g_large_blocks, edges * chunks)
        << "large blocks: one frame per (edge, chunk) is the floor";
  }
  ASSERT_EQ(got.size(), kRanks);
  for (const auto& [rank, size] : got) EXPECT_EQ(size, kPayload);
}

}  // namespace
}  // namespace lmon
