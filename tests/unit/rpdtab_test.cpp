// Unit + property tests for the RPDTAB and the MPIR APAI encoding.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cluster/machine.hpp"
#include "core/rpdtab.hpp"
#include "rm/apai.hpp"
#include "rm/protocol.hpp"
#include "simkernel/rng.hpp"

namespace lmon::core {
namespace {

std::vector<rm::TaskDesc> sample_entries() {
  return {
      {"atlas1", "mpi_app", 1001, 0},
      {"atlas1", "mpi_app", 1002, 1},
      {"atlas2", "mpi_app", 1003, 2},
      {"atlas3", "mpi_app", 1004, 3},
      {"atlas2", "mpi_app", 1005, 4},
  };
}

TEST(Rpdtab, PackUnpackRoundTrip) {
  Rpdtab t(sample_entries());
  auto back = Rpdtab::unpack(t.pack());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, t);
}

TEST(Rpdtab, HostsInFirstAppearanceOrder) {
  Rpdtab t(sample_entries());
  EXPECT_EQ(t.hosts(),
            (std::vector<std::string>{"atlas1", "atlas2", "atlas3"}));
}

TEST(Rpdtab, EntriesForHost) {
  Rpdtab t(sample_entries());
  auto on2 = t.entries_for_host("atlas2");
  ASSERT_EQ(on2.size(), 2u);
  EXPECT_EQ(on2[0].rank, 2);
  EXPECT_EQ(on2[1].rank, 4);
  EXPECT_TRUE(t.entries_for_host("atlas9").empty());
}

TEST(Rpdtab, EmptyTableRoundTrips) {
  Rpdtab t;
  auto back = Rpdtab::unpack(t.pack());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
  EXPECT_TRUE(back->hosts().empty());
}

TEST(Rpdtab, MalformedBlobRejected) {
  EXPECT_FALSE(Rpdtab::unpack(Bytes{1, 2, 3}).has_value());
  // Claims 5 entries but contains none.
  ByteWriter w;
  w.u32(5);
  EXPECT_FALSE(Rpdtab::unpack(std::move(w).take()).has_value());
}

TEST(Rpdtab, PackedSizeLinearInEntries) {
  std::vector<rm::TaskDesc> entries;
  for (int i = 0; i < 100; ++i) {
    entries.push_back({"atlas" + std::to_string(i % 10), "mpi_app",
                       2000 + i, i});
  }
  const std::size_t n100 = Rpdtab(entries).pack().size();
  entries.resize(50);
  const std::size_t n50 = Rpdtab(entries).pack().size();
  // Linear growth: the Region B / Region C terms of the paper's model.
  EXPECT_NEAR(static_cast<double>(n100) / static_cast<double>(n50), 2.0, 0.1);
}

class RpdtabPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RpdtabPropertyTest, RandomTablesRoundTrip) {
  sim::Rng rng(GetParam() * 131 + 17);
  std::vector<rm::TaskDesc> entries;
  const auto n = rng.next_below(200);
  for (std::uint64_t i = 0; i < n; ++i) {
    rm::TaskDesc d;
    d.host = "node" + std::to_string(rng.next_below(64));
    d.executable = rng.next_below(2) == 0 ? "mpi_app" : "other_app";
    d.pid = static_cast<cluster::Pid>(rng.next_below(1 << 20));
    d.rank = static_cast<std::int32_t>(i);
    entries.push_back(std::move(d));
  }
  Rpdtab t(entries);
  auto back = Rpdtab::unpack(t.pack());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, t);
  // Host partitions cover all entries exactly once.
  std::size_t total = 0;
  for (const auto& h : back->hosts()) {
    total += back->entries_for_host(h).size();
  }
  EXPECT_EQ(total, back->size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RpdtabPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 20));

// --- layout: interned names, rank runs, pid column -------------------------

/// Entries in table order, for layout shapes the runs must reproduce.
struct Layout {
  const char* name;
  std::vector<rm::TaskDesc> entries;
};

std::vector<Layout> layouts() {
  std::vector<Layout> out;
  // Block: 4 hosts x 3 ranks, ranks contiguous per host (one run each).
  Layout block{"block", {}};
  for (int i = 0; i < 12; ++i) {
    block.entries.push_back({"n" + std::to_string(i / 3), "mpi_app",
                             100 + i, i});
  }
  out.push_back(block);
  // Cyclic: rank i on host i % 4 (every run has length one).
  Layout cyclic{"cyclic", {}};
  for (int i = 0; i < 12; ++i) {
    cyclic.entries.push_back({"n" + std::to_string(i % 4), "mpi_app",
                              100 + i, i});
  }
  out.push_back(cyclic);
  // A host that comes back after another host's block.
  out.push_back({"repeated-host",
                 {{"a", "mpi_app", 10, 0},
                  {"a", "mpi_app", 11, 1},
                  {"b", "mpi_app", 12, 2},
                  {"a", "mpi_app", 13, 3},
                  {"a", "mpi_app", 14, 4},
                  {"c", "mpi_app", 15, 5}}});
  // Mixed executables on one host split its runs (MPMD jobs).
  out.push_back({"mixed-executables",
                 {{"a", "ocean", 10, 0},
                  {"a", "ocean", 11, 1},
                  {"a", "atmosphere", 12, 2},
                  {"a", "ocean", 13, 3},
                  {"b", "atmosphere", 14, 4}}});
  // Pids follow no pattern; ranks step backwards, jump and wrap.
  constexpr std::int32_t kMaxRank = std::numeric_limits<std::int32_t>::max();
  constexpr std::int32_t kMinRank = std::numeric_limits<std::int32_t>::min();
  out.push_back({"non-contiguous-pids",
                 {{"a", "mpi_app", 907, 0},
                  {"a", "mpi_app", 12, 1},
                  {"a", "mpi_app", 400000, 2},
                  {"b", "mpi_app", 3, 7},
                  {"b", "mpi_app", 3, 6},
                  {"b", "mpi_app", -1, kMaxRank},
                  {"b", "mpi_app", 5, kMinRank},
                  {"b", "mpi_app", 6, -7}}});
  return out;
}

TEST(RpdtabLayout, RoundTripsAndPacksTheApaiBytes) {
  for (const Layout& l : layouts()) {
    SCOPED_TRACE(l.name);
    const Rpdtab t(l.entries);
    EXPECT_EQ(t.size(), l.entries.size());
    EXPECT_EQ(t.entries(), l.entries);
    const Bytes packed = t.pack();
    EXPECT_EQ(packed, rm::apai::encode_proctable(t.entries()));
    EXPECT_EQ(packed, rm::apai::encode_proctable(l.entries));
    const auto back = Rpdtab::unpack(packed);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, t);
    EXPECT_EQ(back->entries(), l.entries);
    EXPECT_EQ(back->pack(), packed);
  }
}

TEST(RpdtabLayout, HostsAndPerHostEntriesMatchTheEntryList) {
  for (const Layout& l : layouts()) {
    SCOPED_TRACE(l.name);
    const auto t = Rpdtab::unpack(Rpdtab(l.entries).pack());
    ASSERT_TRUE(t.has_value());
    std::vector<std::string> hosts;
    for (const auto& e : l.entries) {
      if (std::find(hosts.begin(), hosts.end(), e.host) == hosts.end()) {
        hosts.push_back(e.host);
      }
    }
    EXPECT_EQ(t->hosts(), hosts);
    for (const auto& h : hosts) {
      std::vector<rm::TaskDesc> want;
      for (const auto& e : l.entries) {
        if (e.host == h) want.push_back(e);
      }
      EXPECT_EQ(t->entries_for_host(h), want) << h;
    }
    EXPECT_TRUE(t->entries_for_host("absent").empty());
  }
}

// --- decoder robustness ------------------------------------------------------

/// A decode either fails or yields a table that re-encodes to exactly the
/// prefix of the input it consumed.
void expect_nullopt_or_valid(const Bytes& input) {
  const auto t = Rpdtab::unpack(input);
  if (!t) return;
  const Bytes again = t->pack();
  ASSERT_LE(again.size(), input.size());
  EXPECT_TRUE(std::equal(again.begin(), again.end(), input.begin()));
  EXPECT_EQ(t->entries().size(), t->size());
  std::size_t per_host = 0;
  for (const auto& h : t->hosts()) per_host += t->entries_for_host(h).size();
  EXPECT_EQ(per_host, t->size());
}

TEST(RpdtabDecoder, EveryTruncationIsRejected) {
  const Bytes packed = Rpdtab(sample_entries()).pack();
  for (std::size_t cut = 0; cut < packed.size(); ++cut) {
    const Bytes prefix(packed.begin(),
                       packed.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(Rpdtab::unpack(prefix).has_value()) << "cut at " << cut;
  }
}

TEST(RpdtabDecoder, InflatedCountAndLengthsAreRejected) {
  const Bytes packed = Rpdtab(sample_entries()).pack();
  auto patched = [&](std::size_t offset, std::uint32_t v) {
    ByteWriter w;
    w.raw(packed);
    w.patch_u32(offset, v);
    return std::move(w).take();
  };
  // Entry count far beyond what the bytes hold.
  for (std::uint32_t count : {6u, 1000u, 0xFFFFFFFFu}) {
    EXPECT_FALSE(Rpdtab::unpack(patched(0, count)).has_value()) << count;
  }
  // First entry's host length, then its executable length ("atlas1" is 6
  // bytes, so the executable's prefix sits at 4 + 4 + 6).
  for (std::size_t offset : {std::size_t{4}, std::size_t{14}}) {
    for (std::uint32_t len : {0x100u, 0x7FFFFFFFu, 0xFFFFFFFFu}) {
      EXPECT_FALSE(Rpdtab::unpack(patched(offset, len)).has_value())
          << offset << " " << len;
    }
  }
}

TEST(RpdtabDecoder, SingleBitFlipsNeverCrash) {
  const Bytes packed = Rpdtab(sample_entries()).pack();
  for (std::size_t byte = 0; byte < packed.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = packed;
      flipped[byte] = static_cast<std::uint8_t>(flipped[byte] ^ (1u << bit));
      SCOPED_TRACE(::testing::Message() << "byte " << byte << " bit " << bit);
      expect_nullopt_or_valid(flipped);
    }
  }
}

// --- shared decode: equal bytes, one body ----------------------------------

/// A 16-host x 4-task block table, packed.
std::vector<rm::TaskDesc> block_entries() {
  std::vector<rm::TaskDesc> out;
  for (int i = 0; i < 64; ++i) {
    out.push_back({"node" + std::to_string(i / 4), "mpi_app", 5000 + i, i});
  }
  return out;
}

TEST(RpdtabSharedDecode, EqualBytesShareOneBody) {
  const auto entries = block_entries();
  const Bytes packed = Rpdtab(entries).pack();
  const Bytes same = packed;  // equal bytes in a different buffer
  const std::uint64_t before = Rpdtab::decodes();
  const auto a = Rpdtab::unpack(packed);
  const auto b = Rpdtab::unpack(same);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(Rpdtab::decodes(), before + 1);
  EXPECT_EQ(&a->hosts(), &b->hosts());
  EXPECT_EQ(*a, Rpdtab(entries));
  EXPECT_EQ(*b, Rpdtab(entries));
  EXPECT_EQ(b->entries(), entries);
  // A copy is another handle to the same body.
  const Rpdtab c = *b;
  EXPECT_EQ(&c.hosts(), &a->hosts());
  EXPECT_EQ(c, *a);
}

TEST(RpdtabSharedDecode, BytesThatDifferDecodeTheirOwnTable) {
  const auto entries = block_entries();
  const Bytes packed = Rpdtab(entries).pack();
  const auto live = Rpdtab::unpack(packed);  // cached while alive
  ASSERT_TRUE(live.has_value());

  // Each variant has the same size as `packed`. Swapped pids keep the
  // multiset of bytes, so an order-insensitive checksum collides too.
  std::vector<std::pair<const char*, std::vector<rm::TaskDesc>>> variants;
  variants.push_back({"one pid", entries});
  variants.back().second[17].pid += 1;
  variants.push_back({"last rank", entries});
  variants.back().second.back().rank += 1;
  variants.push_back({"swapped pids", entries});
  std::swap(variants.back().second[3].pid, variants.back().second[40].pid);
  for (const auto& [name, want] : variants) {
    SCOPED_TRACE(name);
    const Bytes bytes = rm::apai::encode_proctable(want);
    ASSERT_EQ(bytes.size(), packed.size());
    const std::uint64_t before = Rpdtab::decodes();
    const auto t = Rpdtab::unpack(bytes);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(Rpdtab::decodes(), before + 1);
    EXPECT_NE(&t->hosts(), &live->hosts());
    EXPECT_EQ(t->entries(), want);
    EXPECT_EQ(*t, Rpdtab(want));
    EXPECT_NE(*t, *live);
  }
  EXPECT_EQ(live->entries(), entries);
}

TEST(RpdtabSharedDecode, MalformedInputNeverEntersTheCache) {
  const Bytes packed = Rpdtab(block_entries()).pack();
  const auto good = Rpdtab::unpack(packed);
  ASSERT_TRUE(good.has_value());

  for (std::size_t cut = 0; cut < packed.size(); ++cut) {
    const Bytes prefix(packed.begin(),
                       packed.begin() + static_cast<std::ptrdiff_t>(cut));
    const std::uint64_t before = Rpdtab::decodes();
    EXPECT_FALSE(Rpdtab::unpack(prefix).has_value()) << "cut at " << cut;
    EXPECT_FALSE(Rpdtab::unpack(prefix).has_value()) << "cut at " << cut;
    EXPECT_EQ(Rpdtab::decodes(), before + 2) << "cut at " << cut;
  }
  for (std::size_t byte = 0; byte < packed.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = packed;
      flipped[byte] = static_cast<std::uint8_t>(flipped[byte] ^ (1u << bit));
      SCOPED_TRACE(::testing::Message() << "byte " << byte << " bit " << bit);
      expect_nullopt_or_valid(flipped);
    }
  }

  const std::uint64_t before = Rpdtab::decodes();
  const auto again = Rpdtab::unpack(packed);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(Rpdtab::decodes(), before);
  EXPECT_EQ(&again->hosts(), &good->hosts());
}

TEST(RpdtabSharedDecode, DroppedTableDecodesFresh) {
  const auto entries = block_entries();
  const Bytes packed = Rpdtab(entries).pack();
  {
    const auto first = Rpdtab::unpack(packed);
    ASSERT_TRUE(first.has_value());
  }
  const std::uint64_t before = Rpdtab::decodes();
  const auto second = Rpdtab::unpack(packed);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(Rpdtab::decodes(), before + 1);
  EXPECT_EQ(second->entries(), entries);
}

TEST(RpdtabSharedDecode, ManyLiveTablesEachDecodeCorrectly) {
  std::vector<std::vector<rm::TaskDesc>> wants;
  std::vector<Rpdtab> live;
  for (int t = 0; t < 8; ++t) {
    auto entries = block_entries();
    entries.front().pid = t;
    const auto table = Rpdtab::unpack(rm::apai::encode_proctable(entries));
    ASSERT_TRUE(table.has_value());
    wants.push_back(std::move(entries));
    live.push_back(*table);
  }
  for (std::size_t t = 0; t < live.size(); ++t) {
    EXPECT_EQ(live[t].entries(), wants[t]) << t;
    const auto again = Rpdtab::unpack(rm::apai::encode_proctable(wants[t]));
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, live[t]) << t;
  }
  // The newest table is still remembered.
  const std::uint64_t before = Rpdtab::decodes();
  const auto newest = Rpdtab::unpack(rm::apai::encode_proctable(wants.back()));
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(Rpdtab::decodes(), before);
  EXPECT_EQ(&newest->hosts(), &live.back().hosts());
}

TEST(Apai, PublishExposesMpirSymbols) {
  sim::Simulator simulator;
  cluster::Machine machine(simulator, cluster::MachineConfig{1, 0, "t", {}});

  class Inert : public cluster::Program {
   public:
    [[nodiscard]] std::string_view name() const override { return "inert"; }
    void on_start(cluster::Process&) override {}
  };
  auto res = machine.front_end().spawn(std::make_unique<Inert>(), {});
  ASSERT_TRUE(res.is_ok());
  simulator.run();
  cluster::Process* p = machine.find_process(res.value);

  rm::apai::publish(*p, sample_entries());
  EXPECT_TRUE(p->symbols().has(rm::apai::kProctable));
  EXPECT_TRUE(p->symbols().has(rm::apai::kProctableSize));
  EXPECT_TRUE(p->symbols().has(rm::apai::kDebugState));

  auto table =
      Rpdtab::from_proctable_blob(*p->symbols().find(rm::apai::kProctable));
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->entries(), sample_entries());

  ByteReader size_r(*p->symbols().find(rm::apai::kProctableSize));
  EXPECT_EQ(size_r.u32(), 5u);
}

}  // namespace
}  // namespace lmon::core
