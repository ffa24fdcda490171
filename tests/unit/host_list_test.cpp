// Unit tests for comm::HostList: one shared, byte-verified decode of a
// launch's host list in both of its wire forms (the TreeLaunchReq section
// and the "--lmon-hosts=" argv value), with the bytes of both unchanged.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "comm/bootstrap.hpp"
#include "comm/host_list.hpp"
#include "rm/protocol.hpp"

namespace lmon::comm {
namespace {

std::vector<std::string> make_names(std::uint32_t n) {
  std::vector<std::string> names;
  for (std::uint32_t i = 0; i < n; ++i) {
    names.push_back("atlas" + std::to_string(i));
  }
  return names;
}

Bytes wire_of(const HostList& hosts) {
  ByteWriter w;
  hosts.write(w);
  return std::move(w).take();
}

std::optional<HostList> read_all(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  return HostList::read(r);
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                    std::uint64_t digest = 0xcbf29ce484222325ULL) {
  for (std::uint8_t b : bytes) digest = (digest ^ b) * 0x100000001b3ULL;
  return digest;
}

TEST(HostList, WireFormIsCountThenLengthPrefixedNames) {
  const HostList hosts{"a", "bc"};
  ByteWriter w;
  w.u32(2);
  w.str("a");
  w.str("bc");
  EXPECT_EQ(wire_of(hosts), std::move(w).take());
  EXPECT_EQ(hosts.csv(), "a,bc");
  EXPECT_EQ(wire_of(HostList{}), Bytes(4, 0));
  EXPECT_EQ(hosts.index_of("bc"), 1u);
  EXPECT_FALSE(hosts.index_of("b").has_value());
  EXPECT_EQ(HostList({"x", "y", "x"}).index_of("x"), 0u);
}

TEST(HostList, EqualBytesInEitherFormShareOneDecode) {
  const Bytes wire = wire_of(HostList(make_names(32)));
  const std::uint64_t before = HostList::decodes();
  auto first = read_all(wire);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(HostList::decodes(), before + 1);
  EXPECT_EQ(*first, make_names(32));

  // While it lives, equal bytes in either form return its body.
  auto again = read_all(wire);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(&again->names(), &first->names());
  std::optional<HostList> from_argv = HostList::from_csv(first->csv());
  EXPECT_EQ(&from_argv->names(), &first->names());
  EXPECT_EQ(HostList::decodes(), before + 1);

  // A different list decodes its own body.
  auto other = read_all(wire_of(HostList(make_names(31))));
  ASSERT_TRUE(other.has_value());
  EXPECT_NE(&other->names(), &first->names());
  EXPECT_EQ(HostList::decodes(), before + 2);

  // Once every holder is gone the bytes decode afresh.
  const std::string csv = first->csv();
  first.reset();
  again.reset();
  from_argv.reset();
  const HostList fresh = HostList::from_csv(csv);
  EXPECT_EQ(HostList::decodes(), before + 3);
  EXPECT_EQ(fresh, make_names(32));
}

TEST(HostList, ArgvFormOnlySharesWhenItRoundTrips) {
  // Names an argv list cannot carry (commas, empty names) split differently,
  // so the argv bytes of such a list must not return its body.
  const Bytes wire = wire_of(HostList({"a,b", "", "c"}));
  auto odd = read_all(wire);
  ASSERT_TRUE(odd.has_value());
  EXPECT_EQ(odd->csv(), "a,b,,c");
  const HostList split = HostList::from_csv(odd->csv());
  EXPECT_EQ(split, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_NE(&split.names(), &odd->names());

  // A non-canonical argv value decodes to the canonical list.
  EXPECT_EQ(HostList::from_csv("x,,y,"), (std::vector<std::string>{"x", "y"}));
}

TEST(HostList, TruncationsAndBitFlipsRejectOrDecodeExactly) {
  const HostList good(make_names(16));
  const Bytes wire = wire_of(good);
  auto held = read_all(wire);
  ASSERT_TRUE(held.has_value());
  const std::uint64_t decodes = HostList::decodes();

  // Every strict prefix is malformed.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(read_all(std::span(wire).first(len)).has_value()) << len;
  }
  // A flipped bit either fails or decodes to a list whose wire form is the
  // prefix it consumed; it never returns the good list's body.
  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    Bytes bad = wire;
    bad[bit / 8] = static_cast<std::uint8_t>(bad[bit / 8] ^ (1u << (bit % 8)));
    ByteReader r(bad);
    const auto got = HostList::read(r);
    if (!got) continue;
    EXPECT_NE(&got->names(), &held->names()) << bit;
    const Bytes consumed(bad.begin(),
                         bad.begin() + static_cast<std::ptrdiff_t>(
                                           bad.size() - r.remaining()));
    EXPECT_EQ(wire_of(*got), consumed) << bit;
  }
  // The good bytes still share the live body.
  const std::uint64_t after_mutants = HostList::decodes();
  auto again = read_all(wire);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(&again->names(), &held->names());
  EXPECT_EQ(HostList::decodes(), after_mutants);
  EXPECT_GE(after_mutants, decodes);
}

TEST(HostList, ParsedBootstrapsShareTheList) {
  BootstrapSpec spec;
  spec.size = 3;
  spec.port = 9000;
  spec.hosts = {"n0", "n1", "n2"};
  const auto args = bootstrap_args(spec, std::nullopt);
  const auto a = parse_bootstrap(args, "n1");
  const auto b = parse_bootstrap(args, "n2");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->rank, 1u);
  EXPECT_EQ(b->rank, 2u);
  EXPECT_EQ(&a->hosts.names(), &b->hosts.names());
}

// Pinned: the bytes of a 64-host launch, as the per-daemon vector host list
// produced them. Message sizes drive simulated transfer times, so the
// shared list must leave the TreeLaunchReq and every daemon's argv as they
// were.
TEST(HostList, SixtyFourHostLaunchBytesArePinned) {
  const auto names = make_names(64);
  rm::TreeLaunchReq req;
  for (std::uint32_t i = 0; i < 64; ++i) req.nodes.push_back({names[i], i});
  req.jobid = 5;
  req.seq = 1;
  req.mode = rm::LaunchMode::Daemons;
  req.executable = "hello_be";
  req.extra_args = {"--x=1"};
  req.tasks_per_node = 8;
  req.all_hosts = names;
  req.fabric = rm::FabricSpec{9000,   4, 64,    "atlas-fe", 7050, "s0p1",
                              TopologyKind::KAry, 0, "thunder", true, 25,
                              16};
  const Bytes bytes = req.encode().bytes;
  EXPECT_EQ(bytes.size(), 1755u);
  EXPECT_EQ(fnv1a(bytes), 0x251e7dd52a26d12fULL);
  const Bytes sub =
      req.encode_subtree(std::span(req.nodes).subspan(1, 16), 2).bytes;
  EXPECT_EQ(sub.size(), 1036u);
  EXPECT_EQ(fnv1a(sub), 0x2b689eb5b1e7723eULL);
  const auto back = rm::TreeLaunchReq::decode(req.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->all_hosts, names);

  // Node-daemon argv (explicit ranks, the request's list) and the tree-rsh
  // argv (no rank, the spec's list), each arg NUL-terminated.
  BootstrapSpec boot;
  boot.size = 64;
  boot.topology = req.fabric.topology();
  boot.port = 9000;
  boot.session = "s0p1";
  boot.fe_host = "atlas-fe";
  boot.fe_port = 7050;
  boot.platform = "thunder";
  boot.heal = true;
  boot.heal_grace_ms = 25;
  boot.max_sessions = 16;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t size = 0;
  auto add = [&](const std::vector<std::string>& args) {
    for (const auto& a : args) {
      digest = fnv1a(std::span(reinterpret_cast<const std::uint8_t*>(a.data()),
                               a.size() + 1),
                     digest);
      size += a.size() + 1;
    }
  };
  for (std::uint32_t r : {0u, 37u, 63u}) {
    add(bootstrap_args(boot, r, back->all_hosts));
  }
  boot.hosts = names;
  add(bootstrap_args(boot, std::nullopt));
  EXPECT_EQ(size, 2904u);
  EXPECT_EQ(digest, 0xac159350a769d4c8ULL);
}

}  // namespace
}  // namespace lmon::comm
