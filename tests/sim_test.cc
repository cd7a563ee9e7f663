// Unit tests for src/sim: virtual time, the event queue, statistics, and
// the stochastic processes used by workload generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/distributions.h"
#include "src/sim/event_queue.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"
#include "tests/stress_seeds.h"

namespace symphony {
namespace {

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(Seconds(1), 1'000'000'000);
  EXPECT_EQ(Millis(1), 1'000'000);
  EXPECT_EQ(Micros(1), 1'000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(ToMillis(Millis(7)), 7.0);
  EXPECT_EQ(DurationFromSeconds(0.5), Millis(500));
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(Millis(30), [&] { order.push_back(3); });
  sim.ScheduleAt(Millis(10), [&] { order.push_back(1); });
  sim.ScheduleAt(Millis(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Millis(30));
}

TEST(SimulatorTest, SameTimeEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(Millis(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(Millis(1), [&] {
    ++fired;
    sim.ScheduleAfter(Millis(1), [&] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), Millis(2));
}

TEST(SimulatorTest, PastEventsClampToNow) {
  Simulator sim;
  sim.ScheduleAt(Millis(10), [&] {
    sim.ScheduleAt(Millis(1), [&] {
      // Runs at now (10ms), not in the past.
      EXPECT_EQ(sim.now(), Millis(10));
    });
  });
  sim.Run();
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(Millis(1), [&] { ++fired; });
  sim.ScheduleAt(Millis(100), [&] { ++fired; });
  EXPECT_EQ(sim.RunUntil(Millis(50)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Millis(50));
  EXPECT_FALSE(sim.empty());
}

TEST(SimulatorTest, StepDispatchesOne) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1, [&] { ++fired; });
  sim.ScheduleAt(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

// A stamp must answer Dispatched exactly as an event scheduled in its place
// would have run. Each stamp here gets a real twin scheduled right after it
// (the next insertion number, so nothing can order between the two); events
// at a handful of instants spawn stamps, twins and plain events at their own
// instant, at later ones and in the past (clamped to now), and every event,
// the driver between steps and the driver after a RunUntil deadline check
// every stamp against whether its twin has started.
TEST(SimulatorTest, StampsAgreeWithDispatchOrder) {
  Simulator sim;
  Rng rng(17);
  struct Pair {
    Simulator::Stamp stamp;
    bool twin_started = false;
  };
  std::vector<Pair> pairs;
  int budget = 600;
  uint64_t same_instant_before = 0;
  uint64_t same_instant_after = 0;
  auto check = [&] {
    for (size_t i = 0; i < pairs.size(); ++i) {
      bool dispatched = sim.Dispatched(pairs[i].stamp);
      EXPECT_EQ(dispatched, pairs[i].twin_started) << "stamp " << i;
      if (pairs[i].stamp.when == sim.now()) {
        ++(dispatched ? same_instant_before : same_instant_after);
      }
    }
  };
  std::function<void()> event;
  auto spawn = [&] {
    SimTime when =
        sim.now() + Millis(5) * static_cast<int64_t>(rng.NextBounded(2));
    if (rng.NextBounded(4) == 0) {
      when -= Millis(1);
    }
    if (rng.NextBounded(2) == 0) {
      size_t i = pairs.size();
      pairs.push_back(Pair{sim.StampAt(when)});
      sim.ScheduleAt(when, [&pairs, &event, i] {
        pairs[i].twin_started = true;
        event();
      });
    } else {
      sim.ScheduleAt(when, event);
    }
  };
  event = [&] {
    check();
    for (uint64_t k = rng.NextBounded(4); k > 0 && budget > 0; --k) {
      --budget;
      spawn();
    }
    check();
  };
  for (int64_t ms : {0, 5, 5, 5, 10}) {
    sim.ScheduleAt(Millis(ms), event);
  }
  sim.RunUntil(Millis(5));
  check();
  spawn();  // From outside any event, at the deadline or after it.
  check();
  while (sim.Step()) {
    check();
  }
  EXPECT_EQ(budget, 0);
  EXPECT_GT(pairs.size(), 100u);
  EXPECT_GT(same_instant_before, 0u);
  EXPECT_GT(same_instant_after, 0u);
}

// One seeded run of DispatchOrderMatchesReference: `operations` counts the
// loop's own operations and the events that events spawn. The loop
// schedules at past (clamped), present and future times on a coarse grid,
// so many events tie, and steps or runs to a deadline; a dispatched event may schedule more at now() or
// 1 us later, behind every event already pending at that time. Each event
// captures a shared_ptr that the test also holds: once its callback has run,
// the simulator must hold no copy of it.
void DispatchOrderSweep(uint64_t seed, int operations) {
  Rng rng(seed);
  Simulator sim;
  std::vector<SimTime> due;                 // By event id: clamped time.
  std::vector<std::shared_ptr<int>> lives;  // By event id: its capture.
  std::vector<size_t> dispatched;
  int released_late = 0;
  auto check_released = [&] {
    if (!dispatched.empty() && lives[dispatched.back()].use_count() != 1) {
      ++released_late;
    }
  };
  std::function<void(SimTime)> schedule = [&](SimTime when) {
    const size_t id = due.size();
    due.push_back(std::max(when, sim.now()));
    lives.push_back(std::make_shared<int>(0));
    sim.ScheduleAt(when, [&, id, life = lives.back()] {
      check_released();
      EXPECT_EQ(sim.now(), due[id]) << "seed " << seed << " event " << id;
      dispatched.push_back(id);
      for (uint64_t k = rng.NextBounded(8); k > 4 && operations > 0; --k) {
        --operations;
        schedule(sim.now() + Micros(1) * static_cast<int64_t>(rng.NextBounded(2)));
      }
      EXPECT_EQ(*life, 0);
    });
  };
  while (operations > 0) {
    --operations;
    const uint64_t op = rng.NextBounded(8);
    if (op < 4) {
      // Past (clamped to now), present or future.
      schedule(sim.now() + Micros(1) * (static_cast<int64_t>(rng.NextBounded(6)) - 1));
    } else if (op < 7) {
      sim.Step();
    } else {
      sim.RunUntil(sim.now() + Micros(1) * static_cast<int64_t>(rng.NextBounded(3)));
    }
    check_released();
  }
  sim.Run();
  check_released();
  EXPECT_EQ(released_late, 0) << "seed " << seed;

  std::vector<size_t> reference(due.size());
  std::iota(reference.begin(), reference.end(), size_t{0});
  std::stable_sort(reference.begin(), reference.end(),
                   [&](size_t a, size_t b) { return due[a] < due[b]; });
  ASSERT_EQ(dispatched.size(), reference.size()) << "seed " << seed;
  auto diverged = std::mismatch(dispatched.begin(), dispatched.end(), reference.begin());
  EXPECT_TRUE(diverged.first == dispatched.end())
      << "seed " << seed << ": dispatch " << (diverged.first - dispatched.begin())
      << " ran event " << *diverged.first << ", the reference runs "
      << *diverged.second;
  EXPECT_EQ(std::count_if(lives.begin(), lives.end(),
                          [](const std::shared_ptr<int>& life) { return life.use_count() != 1; }),
            0)
      << "seed " << seed;
}

// The heap orders keys and each callback waits in a recycled slot; the
// dispatch order must still be (clamped time, insertion order), and a
// callback's captures must be released once it has run, or when a
// simulator with pending events is destroyed.
TEST(SimulatorTest, DispatchOrderMatchesReference) {
  for (uint64_t seed : StressSeeds({1, 2, 3, 4}, 0x5D)) {
    DispatchOrderSweep(seed, 30000);
  }

  auto life = std::make_shared<int>(0);
  {
    Simulator sim;
    for (int i = 0; i < 64; ++i) {
      sim.ScheduleAt(Micros(i % 8), [life, &sim, i] {
        sim.ScheduleAfter(Micros(i % 3), [life] {});
      });
    }
    sim.RunUntil(Micros(3));
    EXPECT_FALSE(sim.empty());
    EXPECT_GT(life.use_count(), 1);
  }
  EXPECT_EQ(life.use_count(), 1);
}

TEST(OnlineStatsTest, MeanVarianceMinMax) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(SampleSeriesTest, ExactPercentiles) {
  SampleSeries s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(0.99), 99.01, 1e-9);
}

// Percentile sorts only the samples added since its last call and merges
// them into the sorted prefix. Seeded runs of Adds (zeros and duplicates
// included, sometimes none) between reads must give exactly what a fresh
// series over a freshly sorted copy gives, and leave samples() fully sorted.
TEST(SampleSeriesTest, AddAfterPercentileStillCorrect) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    SampleSeries s;
    std::vector<double> added;
    for (int step = 0; step < 40; ++step) {
      uint64_t adds = rng.NextBounded(24);
      for (uint64_t i = 0; i < adds; ++i) {
        double x = rng.NextDouble() * 100.0;
        uint64_t kind = rng.NextBounded(4);
        if (kind == 0) {
          x = 0.0;
        } else if (kind == 1 && !added.empty()) {
          x = added[rng.NextBounded(added.size())];
        }
        s.Add(x);
        added.push_back(x);
        ASSERT_EQ(s.count(), s.samples().size());
      }
      std::vector<double> sorted = added;
      std::sort(sorted.begin(), sorted.end());
      SampleSeries fresh;
      for (double x : sorted) {
        fresh.Add(x);
      }
      for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
        EXPECT_EQ(s.Percentile(q), fresh.Percentile(q))
            << "seed " << seed << " step " << step << " q " << q;
        EXPECT_EQ(s.count(), s.samples().size());
      }
      EXPECT_EQ(s.samples(), sorted) << "seed " << seed << " step " << step;
    }
  }
}

TEST(PoissonProcessTest, MeanGapMatchesRate) {
  PoissonProcess p(50.0, /*seed=*/42);
  double total = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    total += ToSeconds(p.NextGap());
  }
  EXPECT_NEAR(total / kN, 1.0 / 50.0, 1e-3);
}

TEST(ParetoCatalogTest, MassesSumToOne) {
  ParetoCatalog cat(100, /*pareto_index=*/1.0, /*seed=*/1);
  double total = 0.0;
  for (size_t i = 0; i < cat.size(); ++i) {
    total += cat.Mass(i);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ParetoCatalogTest, SmallIndexIsMoreSkewed) {
  // Small Pareto index => a few topics dominate (paper §5 reading).
  ParetoCatalog skewed(100, /*pareto_index=*/0.5, /*seed=*/1);
  ParetoCatalog flat(100, /*pareto_index=*/4.0, /*seed=*/1);
  double skewed_top10 = 0.0;
  double flat_top10 = 0.0;
  for (size_t i = 0; i < 10; ++i) {
    skewed_top10 += skewed.Mass(i);
    flat_top10 += flat.Mass(i);
  }
  EXPECT_GT(skewed_top10, 0.9);
  EXPECT_LT(flat_top10, 0.6);
}

TEST(ParetoCatalogTest, EmpiricalFrequencyTracksMass) {
  ParetoCatalog cat(10, /*pareto_index=*/1.0, /*seed=*/99);
  std::vector<int> counts(10, 0);
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    ++counts[cat.Next()];
  }
  for (size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / kN, cat.Mass(r), 0.01)
        << "rank " << r;
  }
}

TEST(ParetoCatalogTest, RanksAreDescendinglyPopular) {
  ParetoCatalog cat(50, /*pareto_index=*/1.5, /*seed=*/5);
  for (size_t r = 1; r < 50; ++r) {
    EXPECT_GE(cat.Mass(r - 1), cat.Mass(r));
  }
}

}  // namespace
}  // namespace symphony
