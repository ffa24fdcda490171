// Tests for the §4 analytic model, including validation against the
// simulated implementation (the paper's Figure 3 comparison as an assertion).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/auto_tune.hpp"
#include "core/fe_api.hpp"
#include "core/perf_model.hpp"
#include "tests/test_util.hpp"

namespace lmon::core {
namespace {

// --- gather replay oracle ----------------------------------------------------
//
// The per-rank replay PerfModel::collective_gather() used before it solved
// one chunk stream per subtree shape. Kept here, and only here, as the
// reference the shape-memoized solver must match bit for bit.

double reference_gather(const cluster::CostModel& costs,
                        CollectiveProtocol proto, comm::TopologySpec spec,
                        int n, std::size_t payload_bytes) {
  constexpr double kFrameBytes = 13.0;
  constexpr double kEntryBytes = 8.0;
  auto scaled_per_kb = [](sim::Time per_kb, double bytes) {
    return static_cast<sim::Time>(static_cast<double>(per_kb) * bytes /
                                  1024.0);
  };
  if (n <= 1) return 0.0;
  if (spec.kind == comm::TopologyKind::KAry && spec.arity == 0) {
    spec.arity = static_cast<std::uint32_t>(costs.rm_launch_fanout);
  }
  const comm::Topology topo(spec, static_cast<std::uint32_t>(n));
  const sim::Time L = costs.net_latency;
  const sim::Time h = costs.iccl_msg_handle;
  const double bw = costs.bandwidth_bytes_per_sec;
  auto wire = [&](double bytes) {
    return L + static_cast<sim::Time>(bytes / bw * 1e9);
  };
  const double S = static_cast<double>(payload_bytes);
  const auto nn = static_cast<std::uint32_t>(n);

  std::vector<sim::Time> A(nn, 0);
  const sim::Time frame_wire = wire(kFrameBytes + kEntryBytes);
  for (std::uint32_t r = 0; r < nn; ++r) {
    const auto children = topo.children_of(r);
    for (std::size_t i = 0; i < children.size(); ++i) {
      A[children[i]] = A[r] + static_cast<sim::Time>(i) * h + frame_wire + h;
    }
  }
  std::vector<std::uint32_t> sz(nn, 1);
  for (std::uint32_t r = nn - 1; r >= 1; --r) {
    sz[*topo.parent_of(r)] += sz[r];
  }

  if (proto == CollectiveProtocol::Eager || payload_bytes == 0) {
    std::vector<sim::Time> U(nn, 0);
    for (std::uint32_t r = nn; r-- > 0;) {
      sim::Time t = A[r];
      for (std::uint32_t c : topo.children_of(r)) {
        const double entry_bytes =
            static_cast<double>(sz[c]) * (kEntryBytes + S);
        const sim::Time processed =
            U[c] + wire(kFrameBytes + entry_bytes) + h +
            scaled_per_kb(costs.iccl_eager_copy_per_kb,
                          static_cast<double>(sz[c]) * S);
        t = std::max(t, processed);
      }
      U[r] = t;
    }
    return sim::to_seconds(U[0]);
  }

  const std::uint32_t C = costs.iccl_rndv_chunk_bytes;
  const sim::Time c_h = costs.iccl_chunk_handle;
  const sim::Time cts_wire = wire(kFrameBytes);
  std::vector<sim::Time> R(nn, 0);
  std::vector<sim::Time> rts_arr(nn, 0);
  for (std::uint32_t r = nn; r-- > 0;) {
    sim::Time t = A[r];
    for (std::uint32_t c : topo.children_of(r)) {
      rts_arr[c] = R[c] + wire(kFrameBytes + 12.0 * sz[c]);
      t = std::max(t, rts_arr[c] + h);
    }
    R[r] = t;
  }
  std::vector<sim::Time> G(nn, 0);
  for (std::uint32_t r = 0; r < nn; ++r) {
    const auto children = topo.children_of(r);
    for (std::size_t i = 0; i < children.size(); ++i) {
      const sim::Time depart =
          r == 0 ? rts_arr[children[i]] + h
                 : G[r] + static_cast<sim::Time>(i) * h;
      G[children[i]] = depart + cts_wire + h;
    }
  }
  const auto m = static_cast<std::uint32_t>((payload_bytes + C - 1) / C);
  auto chunk_size = [&](std::uint32_t j) {
    return j + 1 == m ? S - static_cast<double>(j) * C
                      : static_cast<double>(C);
  };
  std::vector<std::vector<std::pair<sim::Time, double>>> sched(nn);
  for (std::uint32_t r = nn; r-- > 1;) {
    std::vector<std::pair<sim::Time, double>> ready;
    for (std::uint32_t j = 0; j < m; ++j) {
      ready.emplace_back(G[r], chunk_size(j));
    }
    for (std::uint32_t c : topo.children_of(r)) {
      sim::Time last_arrival = rts_arr[c];
      for (const auto& [dep, bytes] : sched[c]) {
        sim::Time arr = dep + wire(kFrameBytes + kEntryBytes + bytes);
        if (arr <= last_arrival) arr = last_arrival + 1;  // FIFO
        last_arrival = arr;
        ready.emplace_back(arr + c_h, bytes);
      }
    }
    std::stable_sort(ready.begin(), ready.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    auto& out = sched[r];
    sim::Time cursor = 0;
    for (const auto& [t, bytes] : ready) {
      const sim::Time depart = std::max(cursor, t);
      out.emplace_back(depart, bytes);
      cursor = depart + c_h;
    }
  }
  sim::Time done = R[0];
  for (std::uint32_t c : topo.children_of(0)) {
    sim::Time last_arrival = rts_arr[c];
    for (const auto& [dep, bytes] : sched[c]) {
      sim::Time arr = dep + wire(kFrameBytes + kEntryBytes + bytes);
      if (arr <= last_arrival) arr = last_arrival + 1;  // FIFO
      last_arrival = arr;
      done = std::max(done, arr + c_h);
    }
  }
  return sim::to_seconds(done);
}

std::vector<comm::TopologySpec> oracle_topologies() {
  return {{comm::TopologyKind::KAry, 2},     {comm::TopologyKind::KAry, 4},
          {comm::TopologyKind::KAry, 8},     {comm::TopologyKind::KAry, 32},
          {comm::TopologyKind::Binomial, 2}, {comm::TopologyKind::Flat, 2}};
}

/// Asserts bit equality with the reference over the oracle grid for one
/// cost model; `payloads` are in units of the model's chunk size C.
void expect_gather_matches_reference(const cluster::CostModel& costs,
                                     const std::vector<int>& sizes) {
  const PerfModel model(costs,
                        static_cast<std::uint32_t>(costs.rm_launch_fanout));
  const std::size_t C = costs.iccl_rndv_chunk_bytes;
  const std::vector<std::size_t> payloads{1,         C - 1, C,
                                          C + 1,     3 * C + 1,
                                          std::size_t{4} << 20};
  for (const auto& spec : oracle_topologies()) {
    for (int n : sizes) {
      for (std::size_t s : payloads) {
        for (auto proto :
             {CollectiveProtocol::Eager, CollectiveProtocol::Rendezvous}) {
          const double got = model.collective_gather(proto, spec, n, s);
          const double want = reference_gather(costs, proto, spec, n, s);
          ASSERT_EQ(got, want)
              << spec.to_string() << " n=" << n << " payload=" << s << " "
              << to_string(proto);
        }
      }
    }
  }
}

TEST(GatherOracle, BitEqualToPerRankReplay) {
  expect_gather_matches_reference(
      cluster::CostModel{}, {2, 3, 5, 17, 64, 100, 256, 513, 1024});
}

TEST(GatherOracle, BitEqualOnAZeroCostFabric) {
  // No handle, latency or wire cost: clearances can coincide with RTS
  // arrivals, so the FIFO clamp the shape solver normally proves idle
  // binds here.
  cluster::CostModel costs;
  costs.net_latency = 0;
  costs.iccl_msg_handle = 0;
  costs.bandwidth_bytes_per_sec = 1e18;
  expect_gather_matches_reference(costs, {2, 3, 5, 17, 64, 100});
}

TEST(GatherOracle, BitEqualWhenChunkArrivalsTie) {
  // A nanosecond fabric with few-byte chunks: a 1 ns handle, a 3 ns chunk
  // handle and 1 byte/ns wires make chunks of different sizes from
  // different children ready at the same instant, so the merge's tie
  // order (own chunks, then children in order) decides the result.
  cluster::CostModel costs;
  costs.net_latency = 0;
  costs.bandwidth_bytes_per_sec = 1e9;
  costs.iccl_msg_handle = 1;
  costs.iccl_chunk_handle = 3;
  costs.iccl_rndv_chunk_bytes = 7;
  const PerfModel model(costs,
                        static_cast<std::uint32_t>(costs.rm_launch_fanout));
  for (const auto& spec : oracle_topologies()) {
    for (int n : {2, 5, 17, 64, 100}) {
      for (std::size_t s : {1, 6, 7, 8, 23, 73}) {
        EXPECT_EQ(model.collective_gather(CollectiveProtocol::Rendezvous,
                                          spec, n, s),
                  reference_gather(costs, CollectiveProtocol::Rendezvous,
                                   spec, n, s))
            << spec.to_string() << " n=" << n << " payload=" << s;
      }
    }
  }
}

TEST(GatherOracle, AutoTuneCrossoversArePinned) {
  struct Pin {
    int n;
    int tpn;
    std::uint32_t bcast;
    std::uint32_t gather;
  };
  for (const Pin& pin : {Pin{64, 8, 41524, 213488}, Pin{1024, 8, 24164, 18648},
                         Pin{2048, 2, 21937, 15676},
                         Pin{4096, 8, 19731, 16775}}) {
    AutoTuneRequest req;
    req.n_nodes = pin.n;
    req.tasks_per_node = pin.tpn;
    const TunedConfig cfg = auto_tune(cluster::CostModel{}, req);
    EXPECT_EQ(cfg.bcast_crossover, pin.bcast) << pin.n << "x" << pin.tpn;
    EXPECT_EQ(cfg.gather_crossover, pin.gather) << pin.n << "x" << pin.tpn;
  }
}

TEST(PerfModel, DepthMatchesTreeGeometry) {
  const cluster::CostModel costs;
  PerfModel m(costs, 32);
  EXPECT_EQ(m.depth(1), 0);
  EXPECT_EQ(m.depth(2), 1);
  EXPECT_EQ(m.depth(32), 1);
  EXPECT_EQ(m.depth(33), 2);
  EXPECT_EQ(m.depth(1024), 2);
  EXPECT_EQ(m.depth(1025), 3);
  PerfModel bin(costs, 2);
  EXPECT_EQ(bin.depth(8), 3);
  EXPECT_EQ(bin.depth(9), 4);
}

TEST(PerfModel, TotalsGrowMonotonically) {
  const cluster::CostModel costs;
  PerfModel m(costs, static_cast<std::uint32_t>(costs.rm_launch_fanout));
  double prev = 0;
  for (int n : {16, 32, 64, 128, 256, 512, 1024}) {
    const double total = m.predict(n, 8).total();
    EXPECT_GT(total, prev) << "at n=" << n;
    prev = total;
  }
}

TEST(PerfModel, ScaleIndependentTermsAreConstant) {
  const cluster::CostModel costs;
  PerfModel m(costs, 32);
  const auto small = m.predict(16, 8);
  const auto large = m.predict(1024, 8);
  EXPECT_DOUBLE_EQ(small.tracing, large.tracing);
  EXPECT_DOUBLE_EQ(small.other, large.other);
  // Paper: tracing 18 ms, other 12 ms (plus engine spawn/connect in ours).
  EXPECT_NEAR(small.tracing, 0.018, 1e-9);
  EXPECT_GT(small.other, 0.012);
}

TEST(PerfModel, LaunchmonShareShrinksWithScale) {
  const cluster::CostModel costs;
  PerfModel m(costs, 32);
  // The RM terms grow with n while LaunchMON's stay near-constant, so the
  // share falls - the paper's headline scalability claim.
  EXPECT_GT(m.predict(16, 8).launchmon_share(),
            m.predict(128, 8).launchmon_share());
  // And at 128 daemons it is in the paper's ~5% neighbourhood.
  EXPECT_LT(m.predict(128, 8).launchmon_share(), 0.10);
  EXPECT_GT(m.predict(128, 8).launchmon_share(), 0.02);
}

/// The Figure 3 validation: model vs simulated measurement within
/// tolerance across the paper's sweep.
class ModelValidation : public ::testing::TestWithParam<int> {};

TEST_P(ModelValidation, PredictsMeasuredTotalWithinTolerance) {
  const int ndaemons = GetParam();
  const int tpn = 8;

  lmon::testing::TestCluster tc(ndaemons);
  sim::Timeline timeline;
  tc.machine.set_timeline(&timeline);

  bool done = false;
  Status status;
  std::shared_ptr<FrontEnd> fe;
  tc.spawn_fe([&](cluster::Process& self) {
    fe = std::make_shared<FrontEnd>(self);
    (void)fe->init();
    auto sid = fe->create_session();
    FrontEnd::SpawnConfig cfg;
    cfg.daemon_exe = "hello_be";
    rm::JobSpec job{ndaemons, tpn, "mpi_app", {}};
    fe->launch_and_spawn(sid.value, job, cfg, [&](Status st) {
      status = st;
      done = true;
    });
  });
  ASSERT_TRUE(tc.run_until([&] { return done; }));
  ASSERT_TRUE(status.is_ok()) << status.to_string();

  const double measured =
      sim::to_seconds(timeline.between("e0_fe_call", "e11_return"));
  const cluster::CostModel costs;
  PerfModel model(costs, static_cast<std::uint32_t>(costs.rm_launch_fanout));
  const double predicted = model.predict(ndaemons, tpn).total();

  EXPECT_NEAR(predicted / measured, 1.0, 0.25)
      << "model " << predicted << "s vs measured " << measured << "s at "
      << ndaemons << " daemons";
}

INSTANTIATE_TEST_SUITE_P(Fig3Sweep, ModelValidation,
                         ::testing::Values(16, 48, 96, 128, 256));

}  // namespace
}  // namespace lmon::core
