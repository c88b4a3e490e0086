#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <thread>

#include "support/cli.hpp"
#include "support/prng.hpp"
#include "support/status.hpp"
#include "support/stop_token.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace ppnpart::support {
namespace {

// ---------------------------------------------------------------- PRNG ---

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b();
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformIndexInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::size_t v = rng.uniform_index(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(11);
  std::set<std::size_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_index(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIndexRoughlyUniform) {
  Rng rng(13);
  constexpr int kBuckets = 10, kSamples = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.uniform_index(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(17);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(19);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, DeriveIsDeterministicAndIndependent) {
  Rng parent(42);
  Rng c1 = parent.derive(1);
  Rng c2 = parent.derive(1);
  Rng c3 = parent.derive(2);
  EXPECT_EQ(c1(), c2());
  // Deriving does not advance the parent.
  Rng parent2(42);
  EXPECT_EQ(parent(), parent2());
  // Different tags give different streams.
  Rng c1b = parent.derive(1);
  int equal = 0;
  for (int i = 0; i < 50; ++i) equal += c1b() == c3();
  EXPECT_LT(equal, 3);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(5);
  const auto p = rng.permutation(100);
  std::set<std::uint32_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, ShuffleKeepsElements) {
  Rng rng(6);
  std::vector<int> v{1, 2, 3, 4, 5};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Splitmix, KnownNonZeroAndAdvancing) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
  EXPECT_NE(s, 0u);
}

// --------------------------------------------------------- thread pool ---

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, 1000, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(pool, 5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SizeDefaultsToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  // Force the parallel path: enough work per chunk, several chunks.
  EXPECT_THROW(
      parallel_for(
          pool, 0, 1000,
          [&](std::size_t i) {
            if (i == 500) throw std::runtime_error("boom");
          },
          1),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForDrainsAllChunksOnThrow) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  try {
    parallel_for(
        pool, 0, 1000,
        [&](std::size_t i) {
          if (i % 250 == 1) throw std::runtime_error("boom");
          ++executed;
        },
        1);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error&) {
  }
  // Every non-throwing index in chunks before their chunk's throw point ran;
  // the key property is that no chunk was abandoned mid-flight (which would
  // have dangled the callable). 996 = 1000 - 4 throwing indices.
  EXPECT_LE(executed.load(), 996);
  EXPECT_GT(executed.load(), 0);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  // Outer fan-out saturates the pool; inner calls must degrade to serial
  // instead of queueing behind blocked workers.
  parallel_for(
      pool, 0, 8,
      [&](std::size_t) {
        parallel_for(pool, 0, 64, [&](std::size_t) { ++total; }, 1);
      },
      1);
  EXPECT_EQ(total.load(), 8 * 64);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++ran;
      });
    }
  }  // ~ThreadPool must run every queued task, not drop them
  EXPECT_EQ(ran.load(), 64);
}

// ----------------------------------------------------------- seed stream ---

TEST(SeedStream, IndexStableAndOrderIndependent) {
  SeedStream a(99), b(99);
  const std::uint64_t a5 = a.seed_for(5);
  // Drawing other streams first must not change stream 5.
  (void)b.seed_for(0);
  (void)b.seed_for(12345);
  EXPECT_EQ(b.seed_for(5), a5);
  // Stateful next() walks the same mapping.
  SeedStream c(99);
  EXPECT_EQ(c.next(), a.seed_for(0));
  EXPECT_EQ(c.next(), a.seed_for(1));
}

TEST(SeedStream, StreamsAreIndependent) {
  SeedStream s(7);
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(s.seed_for(i));
  EXPECT_EQ(seeds.size(), 1000u);  // no collisions among the first 1000

  // Child streams decorrelate: matching outputs should be ~chance.
  Rng r0(s.seed_for(0)), r1(s.seed_for(1));
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += r0() == r1();
  EXPECT_LT(equal, 3);
}

TEST(SeedStream, DifferentRootsDiverge) {
  SeedStream a(1), b(2);
  int equal = 0;
  for (std::uint64_t i = 0; i < 100; ++i) equal += a.seed_for(i) == b.seed_for(i);
  EXPECT_LT(equal, 3);
}

// ------------------------------------------------------------ stop token ---

TEST(StopToken, ManualStop) {
  StopToken token;
  EXPECT_FALSE(token.stop_requested());
  token.request_stop();
  EXPECT_TRUE(token.stop_requested());
}

TEST(StopToken, DeadlineFires) {
  StopToken token;
  token.set_deadline_after(0.01);
  EXPECT_TRUE(token.has_deadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(token.stop_requested());
  EXPECT_TRUE(token.deadline_expired());
}

TEST(StopToken, NoDeadlineNeverFires) {
  StopToken token;
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.deadline_expired());
  EXPECT_FALSE(token.stop_requested());
}

TEST(StopToken, ParentStopPropagates) {
  StopToken parent, child;
  child.set_parent(&parent);
  EXPECT_FALSE(child.stop_requested());
  parent.request_stop();
  EXPECT_TRUE(child.stop_requested());
  // Child stops never flow upward.
  StopToken parent2, child2;
  child2.set_parent(&parent2);
  child2.request_stop();
  EXPECT_FALSE(parent2.stop_requested());
}

TEST(StopToken, LateArmingWhileWorkersPollIsSafe) {
  // The engine's submit path arms deadlines and parents on a token its
  // member tasks may already be polling; configuration is atomic, so this
  // must neither tear nor be missed. (Exercised under TSan/ASan in CI.)
  StopToken parent;
  StopToken token;
  std::atomic<bool> quit{false};
  std::atomic<bool> observed_stop{false};
  std::thread poller([&] {
    while (!quit.load()) {
      if (token.stop_requested()) observed_stop.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  token.set_deadline_after(3600.0);  // far future: arms, must not fire
  token.set_parent(&parent);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(observed_stop.load());
  EXPECT_TRUE(token.has_deadline());
  parent.request_stop();  // propagates through the late-linked parent
  // Wait for the poller to actually observe the stop instead of assuming a
  // fixed sleep suffices — under oversubscribed sanitizer CI the poller
  // thread can be starved for tens of milliseconds.
  for (int spin = 0; spin < 2000 && !observed_stop.load(); ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  quit.store(true);
  poller.join();
  EXPECT_TRUE(observed_stop.load());
  EXPECT_TRUE(token.stop_requested());
  EXPECT_FALSE(token.deadline_expired());
}

// -------------------------------------------------------------- strings ---

TEST(Strings, SplitBasic) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepEmpty) {
  const auto parts = split("a,,b", ',', true);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitWs) {
  const auto parts = split_ws("  1\t2 \n 3  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "1");
  EXPECT_EQ(parts[2], "3");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("  "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, StrFormat) {
  EXPECT_EQ(str_format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(str_format("%05.1f", 2.25), "002.2");
}

TEST(Strings, ParseI64) {
  std::int64_t v = 0;
  EXPECT_TRUE(parse_i64("-42", v));
  EXPECT_EQ(v, -42);
  EXPECT_TRUE(parse_i64(" 17 ", v));
  EXPECT_EQ(v, 17);
  EXPECT_FALSE(parse_i64("4x", v));
  EXPECT_FALSE(parse_i64("", v));
}

TEST(Strings, ParseF64) {
  double v = 0;
  EXPECT_TRUE(parse_f64("2.5", v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_FALSE(parse_f64("2.5 x", v));
}

TEST(Strings, WithThousands) {
  EXPECT_EQ(with_thousands(1234567), "1,234,567");
  EXPECT_EQ(with_thousands(-1000), "-1,000");
  EXPECT_EQ(with_thousands(999), "999");
  EXPECT_EQ(with_thousands(0), "0");
}

// ------------------------------------------------------------------ cli ---

TEST(Cli, ParsesTypedOptions) {
  ArgParser args("test");
  args.add_int("n", 10, "count");
  args.add_double("eps", 0.5, "tolerance");
  args.add_string("name", "x", "label");
  args.add_flag("verbose", "talk more");
  const char* argv[] = {"prog", "--n", "32", "--eps=0.25", "--verbose", "pos"};
  ASSERT_TRUE(args.parse(6, argv));
  EXPECT_EQ(args.get_int("n"), 32);
  EXPECT_DOUBLE_EQ(args.get_double("eps"), 0.25);
  EXPECT_EQ(args.get_string("name"), "x");
  EXPECT_TRUE(args.flag("verbose"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos");
}

TEST(Cli, RejectsUnknownOption) {
  ArgParser args;
  const char* argv[] = {"prog", "--bogus"};
  EXPECT_FALSE(args.parse(2, argv));
}

TEST(Cli, RejectsBadInt) {
  ArgParser args;
  args.add_int("n", 0, "");
  const char* argv[] = {"prog", "--n", "abc"};
  EXPECT_FALSE(args.parse(3, argv));
}

TEST(Cli, MissingValueIsError) {
  ArgParser args;
  args.add_int("n", 0, "");
  const char* argv[] = {"prog", "--n"};
  EXPECT_FALSE(args.parse(2, argv));
}

TEST(Cli, HelpRequested) {
  ArgParser args;
  args.add_int("n", 3, "count");
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(args.parse(2, argv));
  EXPECT_TRUE(args.help_requested());
  EXPECT_NE(args.help_text().find("--n"), std::string::npos);
}

// --------------------------------------------------------------- status ---

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_TRUE(s.message().empty());
}

TEST(Status, ErrorCarriesMessage) {
  const Status s = Status::error(StatusCode::kInternal, "boom");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.message(), "boom");
}

TEST(Result, ValueAndError) {
  Result<int> ok(7);
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value(), 7);
  EXPECT_EQ(ok.value_or(9), 7);

  Result<int> bad = Result<int>::error(StatusCode::kInvalidArgument, "nope");
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.message(), "nope");
  EXPECT_EQ(bad.value_or(9), 9);
}

TEST(Status, TypedCodesRoundTrip) {
  const Status s =
      Status::error(StatusCode::kResourceExhausted, "queue full");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.message(), "queue full");
  EXPECT_EQ(s.to_string(), "RESOURCE_EXHAUSTED: queue full");

  // An "error" may never smuggle kOk past is_ok() checks.
  EXPECT_NE(Status::error(StatusCode::kOk, "lying").code(), StatusCode::kOk);
  EXPECT_STREQ(to_string(StatusCode::kDeadlineExceeded), "DEADLINE_EXCEEDED");
  EXPECT_STREQ(to_string(StatusCode::kOk), "OK");
}

TEST(Result, TypedCodesPropagate) {
  const Result<int> bad =
      Result<int>::error(StatusCode::kUnavailable, "no file");
  EXPECT_EQ(bad.code(), StatusCode::kUnavailable);
  EXPECT_EQ(bad.status().code(), StatusCode::kUnavailable);
  const Result<int> ok(3);
  EXPECT_EQ(ok.code(), StatusCode::kOk);
}

TEST(Result, ValueOrMovesFromRvalueResults) {
  // A move-instrumented payload: value_or on an rvalue Result must move the
  // held value out, not copy it (the lvalue overload still copies).
  struct Probe {
    int copies = 0;
    int moves = 0;
    Probe() = default;
    Probe(const Probe& o) : copies(o.copies + 1), moves(o.moves) {}
    Probe(Probe&& o) noexcept : copies(o.copies), moves(o.moves + 1) {}
    Probe& operator=(const Probe&) = default;
    Probe& operator=(Probe&&) noexcept = default;
  };

  Result<Probe> lv(Probe{});
  const Probe copied = lv.value_or(Probe{});
  EXPECT_GE(copied.copies, 1);  // lvalue access keeps the stored value

  const Probe moved = Result<Probe>(Probe{}).value_or(Probe{});
  EXPECT_EQ(moved.copies, 0);  // rvalue access steals it — no copy at all

  // The fallback path is unaffected by the qualifier.
  const Probe fallback =
      Result<Probe>::error(StatusCode::kInternal, "x").value_or(Probe{});
  EXPECT_EQ(fallback.copies, 0);
}

// ---------------------------------------------------------------- timer ---

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(t.milliseconds(), 5.0);
  t.reset();
  EXPECT_LT(t.milliseconds(), 5.0);
}

TEST(Timer, ScopedAccumulator) {
  double sink = 0;
  {
    ScopedAccumulator acc(sink);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(sink, 0.0);
}

}  // namespace
}  // namespace ppnpart::support
