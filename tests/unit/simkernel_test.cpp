// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/argparse.hpp"
#include "simkernel/log.hpp"
#include "simkernel/simulator.hpp"
#include "simkernel/stats.hpp"

namespace lmon::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(30, [&] { fired.push_back(3); });
  q.push(10, [&] { fired.push_back(1); });
  q.push(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoForEqualTimestamps) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, PopThenPushKeepsTimeThenPushOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(5, [&] { fired.push_back(1); });
  q.push(1, [&] { fired.push_back(0); });
  q.run_next();
  q.push(5, [&] { fired.push_back(2); });
  q.push(5, [&] { fired.push_back(3); });
  q.push(4, [&] { fired.push_back(4); });
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.next_time(), 4);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, (std::vector<int>{0, 4, 1, 2, 3}));
}

/// The binary-heap queue the kernel used before the 4-ary slot heap:
/// std::push_heap/pop_heap over (when, seq, std::function) entries. Kept
/// here only as the oracle for the pop order.
class OracleQueue {
 public:
  void push(Time when, std::function<void()> fn) {
    heap_.push_back(Entry{when, next_seq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  void run_next() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    e.fn();
  }

 private:
  struct Entry {
    Time when;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  static bool later(const Entry& a, const Entry& b) {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 1;
};

/// Drives `Queue` through a seeded script of ~1e5 events and returns the
/// event ids in the order they ran. Every push depends only on the ids and
/// times seen so far, so two queues get the same pushes exactly as long as
/// they pop in the same order. A running event pushes 0-2 children, most of
/// them at its own time (now); between pops the driver pushes runs of equal
/// timestamps, some long enough (up to 120) to span several 4-ary levels.
template <typename Queue>
std::vector<std::uint64_t> drive(std::uint64_t seed) {
  constexpr std::uint64_t kEvents = 100000;
  Queue q;
  Rng rng(seed);
  std::vector<std::uint64_t> order;
  order.reserve(kEvents);
  std::uint64_t next_id = 0;
  Time now = 0;
  std::function<void(std::uint64_t, Time)> push = [&](std::uint64_t id,
                                                       Time when) {
    q.push(when, [&, id, when] {
      now = when;
      order.push_back(id);
      Rng kids(seed ^ (id * 0x9E3779B97F4A7C15ULL));
      const auto n = kids.next_below(3);
      for (std::uint64_t k = 0; k < n && next_id < kEvents; ++k) {
        const Time delay =
            kids.next_below(4) == 0 ? static_cast<Time>(kids.next_below(50))
                                    : 0;
        push(next_id++, now + delay);
      }
    });
  };
  while (next_id < kEvents || !q.empty()) {
    if (next_id < kEvents && (q.empty() || rng.next_below(3) == 0)) {
      const Time at = now + static_cast<Time>(rng.next_below(20));
      const auto run = 1 + rng.next_below(rng.next_below(8) == 0 ? 120 : 6);
      for (std::uint64_t i = 0; i < run && next_id < kEvents; ++i) {
        push(next_id++, at);
      }
    } else {
      q.run_next();
    }
  }
  return order;
}

TEST(EventQueue, PopsTheSameSequenceAsTheBinaryHeapOracle) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<std::uint64_t> want = drive<OracleQueue>(seed);
    const std::vector<std::uint64_t> got = drive<EventQueue>(seed);
    ASSERT_EQ(want.size(), 100000u);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    const auto diverge = std::mismatch(got.begin(), got.end(), want.begin());
    EXPECT_TRUE(diverge.first == got.end())
        << "seed " << seed << ": first difference at pop "
        << (diverge.first - got.begin());
  }
}

/// Counts live copies of itself in *live: every constructed instance must
/// be destroyed exactly once, so *live returns to 0 and never goes below.
template <std::size_t kPad>
struct Tracked {
  Tracked(int* live_count, int* ran_count)
      : live(live_count), ran(ran_count) {
    ++*live;
  }
  Tracked(Tracked&& o) noexcept : live(o.live), ran(o.ran), pad(o.pad) {
    ++*live;
  }
  Tracked(const Tracked&) = delete;
  ~Tracked() { --*live; }
  void operator()() { ++*ran; }

  int* live;
  int* ran;
  std::array<char, kPad> pad{};
};
using SmallTracked = Tracked<64>;
using BigTracked = Tracked<512>;
static_assert(Callback::fits_inline<SmallTracked>());
static_assert(!Callback::fits_inline<BigTracked>());

TEST(Callback, MoveOnlyCaptureRuns) {
  Simulator sim;
  int got = 0;
  sim.schedule(1, [p = std::make_unique<int>(7), &got] { got = *p; });
  sim.run();
  EXPECT_EQ(got, 7);
}

TEST(Callback, OversizeCaptureRunsThroughTheHeap) {
  std::array<std::uint64_t, 32> big{};
  big[31] = 9;
  std::uint64_t got = 0;
  auto fn = [big, &got] { got = big[31]; };
  static_assert(!Callback::fits_inline<decltype(fn)>());
  Simulator sim;
  sim.schedule(1, fn);
  sim.run();
  EXPECT_EQ(got, 9u);
}

TEST(Callback, MovesAndResetsDestroyEachCallableOnce) {
  int live = 0;
  int ran = 0;
  {
    Callback a(SmallTracked(&live, &ran));
    Callback b(BigTracked(&live, &ran));
    EXPECT_EQ(live, 2);
    Callback c(std::move(a));
    EXPECT_FALSE(a);
    EXPECT_EQ(live, 2);
    c();
    b = std::move(c);  // destroys b's callable, takes c's
    EXPECT_FALSE(c);
    EXPECT_EQ(live, 1);
    b();
    b.reset();
    EXPECT_EQ(live, 0);
    Callback d(BigTracked(&live, &ran));
    Callback e(std::move(d));
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);
  EXPECT_EQ(ran, 2);
}

TEST(Callback, EventsRunOrDroppedAtDestructionAreDestroyedOnce) {
  int live = 0;
  int ran = 0;
  {
    Simulator sim;
    for (int i = 0; i < 300; ++i) {
      sim.schedule(i, SmallTracked(&live, &ran));
      sim.schedule(i, BigTracked(&live, &ran));
    }
    EXPECT_EQ(live, 600);
    sim.run(149);  // times 0..149 run; 150..299 stay pending
    EXPECT_EQ(ran, 300);
    EXPECT_EQ(live, 300);
    // Freed slots are reused by new events without disturbing pending ones.
    for (int i = 0; i < 50; ++i) sim.schedule(1, SmallTracked(&live, &ran));
    EXPECT_EQ(live, 350);
    sim.run(150);
    EXPECT_EQ(ran, 352);
    EXPECT_EQ(live, 298);
  }
  EXPECT_EQ(live, 0);  // the simulator destroyed the events it never ran
}

TEST(Simulator, TimeAdvancesMonotonically) {
  Simulator sim;
  std::vector<Time> times;
  sim.schedule(ms(5), [&] { times.push_back(sim.now()); });
  sim.schedule(ms(1), [&] {
    times.push_back(sim.now());
    sim.schedule(ms(1), [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], ms(1));
  EXPECT_EQ(times[1], ms(2));
  EXPECT_EQ(times[2], ms(5));
}

TEST(Simulator, RunUntilBound) {
  Simulator sim;
  int fired = 0;
  sim.schedule(ms(1), [&] { ++fired; });
  sim.schedule(ms(10), [&] { ++fired; });
  sim.run(ms(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), ms(1));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.schedule(ms(3), [&] {
    sim.schedule(-ms(10), [&] { EXPECT_EQ(sim.now(), ms(3)); });
  });
  sim.run();
}

TEST(Simulator, EventLimitThrowsOnLivelock) {
  Simulator sim;
  sim.set_event_limit(100);
  std::function<void()> loop = [&] { sim.schedule(1, loop); };
  sim.schedule(1, loop);
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NormalHasRoughlyRightMoments) {
  Rng rng(11);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng b = a.fork();
  EXPECT_NE(a.next(), b.next());
}

TEST(Stats, AccumulatorMoments) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 0.001);
}

TEST(Stats, TimelineBetween) {
  Timeline t;
  t.mark("a", ms(10));
  t.mark("b", ms(35));
  EXPECT_EQ(t.between("a", "b"), ms(25));
  EXPECT_EQ(t.between("a", "missing"), 0);
  EXPECT_TRUE(t.has("a"));
  EXPECT_FALSE(t.has("c"));
}

TEST(Stats, TimelineBetweenWithMissingMarks) {
  Timeline t;
  t.mark("a", ms(10));
  // Either endpoint missing (or both) yields 0, never garbage; has()
  // distinguishes "missing" from "zero-length region".
  EXPECT_EQ(t.between("missing", "a"), 0);
  EXPECT_EQ(t.between("a", "missing"), 0);
  EXPECT_EQ(t.between("nope", "also_nope"), 0);
  EXPECT_EQ(Timeline{}.between("a", "b"), 0);
  // Re-marking overwrites; marks() exposes the full map.
  t.mark("a", ms(20));
  EXPECT_EQ(t.at("a"), ms(20));
  EXPECT_EQ(t.marks().size(), 1u);
}

TEST(Stats, AccumulatorDegenerateCounts) {
  Accumulator empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.mean(), 0.0);
  EXPECT_EQ(empty.min(), 0.0);
  EXPECT_EQ(empty.max(), 0.0);
  EXPECT_EQ(empty.variance(), 0.0);  // no samples: variance defined as 0
  EXPECT_EQ(empty.stddev(), 0.0);

  Accumulator one;
  one.add(42.0);
  EXPECT_EQ(one.count(), 1u);
  EXPECT_DOUBLE_EQ(one.mean(), 42.0);
  EXPECT_EQ(one.variance(), 0.0);  // single sample: no spread
  EXPECT_EQ(one.stddev(), 0.0);
}

TEST(Stats, LedgerAccumulates) {
  CostLedger l;
  l.charge("x", ms(5));
  l.charge("x", ms(7));
  l.charge("y", ms(1));
  EXPECT_EQ(l.total("x"), ms(12));
  EXPECT_EQ(l.events("x"), 2u);
  EXPECT_EQ(l.total("z"), 0);
}

TEST(Log, SinkCapturesLevelPassingLinesOnly) {
  const LogLevel saved = Log::level();
  std::vector<std::string> captured;
  Log::set_level(LogLevel::Info);
  Log::set_sink([&](LogLevel, Time, std::string_view component,
                    std::string_view message) {
    captured.push_back(std::string(component) + ": " + std::string(message));
  });

  LogLine(LogLevel::Info, ms(1), "unit") << "visible";
  LogLine(LogLevel::Debug, ms(2), "unit") << "filtered";

  Log::set_sink(nullptr);  // restore the stderr formatter
  Log::set_level(saved);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "unit: visible");
}

TEST(Log, TapSeesEveryLineRegardlessOfLevel) {
  const LogLevel saved = Log::level();
  Log::set_level(LogLevel::Off);
  int lines = 0;
  Log::set_tap([&](LogLevel, Time, std::string_view, std::string_view) {
    ++lines;
  });
  EXPECT_TRUE(Log::has_tap());
  EXPECT_TRUE(Log::enabled(LogLevel::Debug));  // tap forces line formatting

  LogLine(LogLevel::Debug, ms(1), "unit") << "tapped";
  Log::set_tap(nullptr);
  Log::set_level(saved);
  EXPECT_FALSE(Log::has_tap());
  EXPECT_EQ(lines, 1);
}

TEST(Log, ParseLogLevelRecognisesTheDocumentedVocabulary) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_EQ(parse_log_level("none"), LogLevel::Off);
  EXPECT_EQ(parse_log_level("0"), LogLevel::Off);
  EXPECT_EQ(parse_log_level(""), LogLevel::Off);
  // Unknown values are nullopt - the env reader warns instead of silently
  // disabling the log.
  EXPECT_FALSE(parse_log_level("verbose").has_value());
  EXPECT_FALSE(parse_log_level("DEBUG2").has_value());
}

TEST(TimeFormat, HumanReadable) {
  EXPECT_EQ(format_time(seconds(1.5)), "1.500s");
  EXPECT_EQ(format_time(ms(2.25)), "2.250ms");
  EXPECT_EQ(format_time(us(750)), "750us");
}

}  // namespace
}  // namespace lmon::sim

namespace lmon {
namespace {

TEST(Status, RoundTripAndMessages) {
  Status ok;
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.to_string(), "Ok");
  Status err(Rc::Esys, "fork failed");
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.rc(), Rc::Esys);
  EXPECT_EQ(err.to_string(), "Esys: fork failed");
  EXPECT_EQ(to_string(Rc::Etout), "Etout");
}

TEST(Argparse, ValueAndIntAndFlag) {
  std::vector<std::string> args{"--mode=job", "--nnodes=16", "--verbose",
                                "--empty="};
  EXPECT_EQ(arg_value(args, "--mode="), "job");
  EXPECT_EQ(arg_int(args, "--nnodes="), 16);
  EXPECT_FALSE(arg_value(args, "--missing=").has_value());
  EXPECT_FALSE(arg_int(args, "--mode=").has_value());
  EXPECT_TRUE(arg_flag(args, "--verbose"));
  EXPECT_FALSE(arg_flag(args, "--quiet"));
  EXPECT_FALSE(arg_value(args, "--empty=").has_value());
}

TEST(Argparse, SplitCsv) {
  EXPECT_EQ(split_csv("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_csv(""), (std::vector<std::string>{}));
  EXPECT_EQ(split_csv("one"), (std::vector<std::string>{"one"}));
  EXPECT_EQ(split_csv("a,,b"), (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace lmon
