// Wire pin for the ICCL fabric: one frame of each payload-carrying kind,
// taken off a live fabric by a hand-played "spy" rank, must keep its exact
// size and FNV-1a digest. Message sizes set simulated transfer times, so
// this pins them. The digests were recorded from the encoder that built one
// temporary entry vector per frame; the single-copy encoder that writes
// from views must produce the same bytes.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "comm/bootstrap.hpp"
#include "comm/topology.hpp"
#include "core/iccl.hpp"
#include "tests/test_util.hpp"

namespace lmon::core {
namespace {

using testing::TestCluster;
using Kind = Iccl::Kind;

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Bytes pattern(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return b;
}

struct Wire {
  std::vector<Bytes> frames;  ///< every frame the spy received, in order
  std::map<std::uint32_t, Iccl*> iccls;  ///< real ranks
  int ready = 0;                          ///< real ranks whose subtree is up

  [[nodiscard]] const Bytes* first_of(Kind kind) const {
    for (const Bytes& f : frames) {
      if (!f.empty() && f[0] == static_cast<std::uint8_t>(kind)) return &f;
    }
    return nullptr;
  }
};

/// A real fabric rank.
class Daemon : public cluster::Program {
 public:
  explicit Daemon(Wire* wire) : wire_(wire) {}
  [[nodiscard]] std::string_view name() const override { return "raw_iccl"; }

  void on_start(cluster::Process& self) override {
    auto params = Iccl::params_from_args(self.args(), self.node().hostname());
    ASSERT_TRUE(params.has_value());
    iccl_ = std::make_unique<Iccl>(self, std::move(*params));
    wire_->iccls[iccl_->rank()] = iccl_.get();
    iccl_->start([this](Status st) {
      if (st.is_ok()) wire_->ready += 1;
    });
  }

 private:
  Wire* wire_;
  std::unique_ptr<Iccl> iccl_;
};

/// Plays one rank by hand and records every frame it receives. As rank 0
/// it accepts its children and clears every GatherRts; otherwise it
/// connects to its parent, registers, reports its subtree up and clears
/// every RndvRts.
class Spy : public cluster::Program {
 public:
  explicit Spy(Wire* wire) : wire_(wire) {}
  [[nodiscard]] std::string_view name() const override { return "spy"; }

  void on_start(cluster::Process& self) override {
    auto params = Iccl::params_from_args(self.args(), self.node().hostname());
    ASSERT_TRUE(params.has_value());
    params_ = *params;
    if (params_.rank == 0) {
      ASSERT_TRUE(self.listen(params_.port, [this, &self](
                                                cluster::ChannelPtr ch) {
                        watch(self, ch);
                      })
                      .is_ok());
      return;
    }
    connect(self, 100);
  }

 private:
  static cluster::Message control(Kind kind, StreamKey key,
                                  std::uint32_t src) {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(kind));
    w.u32(key.session);
    w.u32(key.tag);
    w.u32(src);
    w.u32(0);
    return cluster::Message(std::move(w).take());
  }

  void connect(cluster::Process& self, int attempts) {
    const comm::Topology topo(params_.topology, params_.size);
    const std::uint32_t parent = *topo.parent_of(params_.rank);
    self.connect(params_.hosts.at(parent), params_.port,
                 [this, &self, attempts](Status st, cluster::ChannelPtr ch) {
                   if (!st.is_ok()) {
                     ASSERT_GT(attempts, 0) << "spy cannot reach its parent";
                     self.post(sim::ms(1), [this, &self, attempts] {
                       connect(self, attempts - 1);
                     });
                     return;
                   }
                   watch(self, ch);
                   self.send(ch, control(Kind::Register, 0, params_.rank));
                   self.send(ch, control(Kind::SetupUp, 0, params_.rank));
                 });
  }

  void watch(cluster::Process& self, const cluster::ChannelPtr& ch) {
    self.set_channel_handler(ch, [this, &self](const cluster::ChannelPtr& c,
                                               cluster::Message m) {
      wire_->frames.push_back(m.bytes);
      ByteReader r(m.bytes);
      const auto kind = static_cast<Kind>(r.u8().value_or(0));
      const StreamKey key{r.u32().value_or(0), r.u32().value_or(0)};
      if (kind == Kind::RndvRts) {
        self.send(c, control(Kind::RndvCts, key, params_.rank));
      } else if (kind == Kind::GatherRts) {
        self.send(c, control(Kind::GatherCts, key, params_.rank));
      }
    });
  }

  Wire* wire_;
  Iccl::Params params_;
};

constexpr std::uint32_t kEagerOnly = 0xffffffffu;
constexpr std::uint32_t kRndvAlways = 1;

/// Starts a k-ary fabric of `size` ranks with the spy at `spy_rank` and
/// real daemons at the ranks in `real`, then waits until every real rank's
/// subtree is up.
void start_fabric(TestCluster& tc, Wire& wire, std::uint32_t size,
                  std::uint32_t arity, std::uint32_t spy_rank,
                  const std::vector<std::uint32_t>& real,
                  std::uint32_t threshold) {
  comm::BootstrapSpec spec;
  spec.size = size;
  spec.topology = comm::TopologySpec{comm::TopologyKind::KAry, arity};
  spec.port = cluster::kToolFabricBasePort;
  spec.session = "wire";
  spec.rndv_threshold = threshold;
  for (std::uint32_t r = 0; r < size; ++r) {
    spec.hosts.push_back(tc.machine.compute_node(static_cast<int>(r))
                             .hostname());
  }
  auto spawn = [&](std::uint32_t r, std::unique_ptr<cluster::Program> p) {
    cluster::SpawnOptions opts;
    opts.executable = "raw_iccl";
    opts.args = comm::bootstrap_args(spec, r);
    ASSERT_TRUE(tc.machine.compute_node(static_cast<int>(r))
                    .spawn(std::move(p), std::move(opts))
                    .is_ok());
  };
  spawn(spy_rank, std::make_unique<Spy>(&wire));
  for (std::uint32_t r : real) spawn(r, std::make_unique<Daemon>(&wire));
  ASSERT_TRUE(tc.run_until(
      [&] { return wire.ready == static_cast<int>(real.size()); }));
}

void expect_pinned(const Wire& wire, Kind kind, std::size_t size,
                   std::uint64_t digest) {
  const Bytes* frame = wire.first_of(kind);
  ASSERT_NE(frame, nullptr) << "no frame of kind "
                            << static_cast<int>(kind);
  EXPECT_EQ(frame->size(), size) << "kind " << static_cast<int>(kind);
  EXPECT_EQ(fnv1a(*frame), digest)
      << "kind " << static_cast<int>(kind) << " digest 0x" << std::hex
      << fnv1a(*frame);
}

TEST(IcclWire, EagerBroadcastFrameIsPinned) {
  TestCluster tc(2);
  Wire wire;
  start_fabric(tc, wire, 2, 1, /*spy_rank=*/1, {0}, kEagerOnly);
  wire.iccls.at(0)->broadcast(StreamKey{0, 7}, pattern(1000, 1));
  ASSERT_TRUE(tc.run_until(
      [&] { return wire.first_of(Kind::Bcast) != nullptr; }));
  expect_pinned(wire, Kind::Bcast, 1025, 0xdb180c9c29f5a28dULL);
}

TEST(IcclWire, RendezvousChunkFrameIsPinned) {
  TestCluster tc(2);
  Wire wire;
  start_fabric(tc, wire, 2, 1, /*spy_rank=*/1, {0}, kRndvAlways);
  wire.iccls.at(0)->broadcast(StreamKey{3, 8}, pattern(100000, 2));
  ASSERT_TRUE(tc.run_until(
      [&] { return wire.first_of(Kind::RndvChunk) != nullptr; }));
  expect_pinned(wire, Kind::RndvChunk, 65561, 0x5df07f7ab7f7f504ULL);
}

TEST(IcclWire, ScatterFrameIsPinned) {
  // Chain 0 -> 1 -> 2: the spy (rank 1) gets its own part and rank 2's.
  TestCluster tc(3);
  Wire wire;
  start_fabric(tc, wire, 3, 1, /*spy_rank=*/1, {0}, kEagerOnly);
  wire.iccls.at(0)->scatter(StreamKey{0, 9},
                            {pattern(200, 3), pattern(300, 4),
                             pattern(500, 5)});
  ASSERT_TRUE(tc.run_until(
      [&] { return wire.first_of(Kind::Scatter) != nullptr; }));
  expect_pinned(wire, Kind::Scatter, 833, 0x304c26f337ccc0ULL);
}

TEST(IcclWire, ThreeEntryGatherUpFrameIsPinned) {
  // Chain 0 -> 1 -> 2 -> 3 under a spy root: rank 1 forwards {1, 2, 3}.
  TestCluster tc(4);
  Wire wire;
  start_fabric(tc, wire, 4, 1, /*spy_rank=*/0, {1, 2, 3}, kEagerOnly);
  for (std::uint32_t r = 1; r <= 3; ++r) {
    const auto seed = static_cast<std::uint8_t>(r);
    wire.iccls.at(r)->contribute(StreamKey{0, 10}, pattern(100 * r, seed));
  }
  ASSERT_TRUE(tc.run_until(
      [&] { return wire.first_of(Kind::GatherUp) != nullptr; }));
  expect_pinned(wire, Kind::GatherUp, 641, 0xa6bbc90ceac5d41cULL);
}

TEST(IcclWire, GatherChunkFrameIsPinned) {
  TestCluster tc(2);
  Wire wire;
  start_fabric(tc, wire, 2, 1, /*spy_rank=*/0, {1}, kRndvAlways);
  wire.iccls.at(1)->contribute(StreamKey{0, 11}, pattern(70000, 6));
  ASSERT_TRUE(tc.run_until(
      [&] { return wire.first_of(Kind::GatherChunk) != nullptr; }));
  expect_pinned(wire, Kind::GatherChunk, 65561, 0xc1a91f31bc025509ULL);
}

}  // namespace
}  // namespace lmon::core
