// Achilles reproduction -- tests.
//
// Support-library tests: deterministic RNG, timers.

#include <gtest/gtest.h>

#include <thread>

#include "support/rng.h"
#include "support/timer.h"

namespace achilles {
namespace {

TEST(RngTest, DeterministicFromSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        const uint64_t va = a.Next();
        EXPECT_EQ(va, b.Next());
        (void)c.Next();
    }
    Rng a2(42), c2(43);
    EXPECT_NE(a2.Next(), c2.Next());
}

TEST(RngTest, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.Below(10), 10u);
        const uint64_t r = rng.Range(5, 9);
        EXPECT_GE(r, 5u);
        EXPECT_LE(r, 9u);
    }
}

TEST(RngTest, BelowIsRoughlyUniform)
{
    Rng rng(99);
    int buckets[8] = {0};
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        ++buckets[rng.Below(8)];
    for (int b = 0; b < 8; ++b) {
        EXPECT_GT(buckets[b], n / 8 - n / 40);
        EXPECT_LT(buckets[b], n / 8 + n / 40);
    }
}

TEST(RngTest, ChanceExtremes)
{
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.Chance(0.0));
        EXPECT_TRUE(rng.Chance(1.0));
    }
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.NextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(TimerTest, MeasuresElapsedTime)
{
    Timer t;
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    EXPECT_GE(t.Millis(), 10.0);
    t.Reset();
    EXPECT_LT(t.Millis(), 10.0);
}

}  // namespace
}  // namespace achilles
