#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "core/random.hh"

namespace diablo {
namespace {

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next()) {
            ++same;
        }
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsStableAndIndependent)
{
    Rng master(7);
    Rng a1 = master.fork("nic");
    Rng a2 = master.fork("nic");
    Rng b = master.fork("switch");
    EXPECT_EQ(a1.next(), a2.next());
    EXPECT_NE(Rng(7).fork("nic").seed(), b.seed());
    // Forking doesn't consume master state.
    Rng master2(7);
    master2.fork("x");
    EXPECT_EQ(master.next(), master2.next());
}

TEST(Rng, ForkById)
{
    Rng master(7);
    EXPECT_EQ(master.fork(uint64_t{3}).seed(),
              master.fork(uint64_t{3}).seed());
    EXPECT_NE(master.fork(uint64_t{3}).seed(),
              master.fork(uint64_t{4}).seed());
}

TEST(Rng, UniformRange)
{
    Rng r(123);
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanApproximatelyHalf)
{
    Rng r(99);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        sum += r.uniform();
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng r(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = r.uniformInt(3, 7);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 7u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 7);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean)
{
    Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        sum += r.exponential(250.0);
    }
    EXPECT_NEAR(sum / n, 250.0, 5.0);
}

TEST(Rng, NormalMoments)
{
    Rng r(13);
    double sum = 0, sq = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double x = r.normal(10.0, 2.0);
        sum += x;
        sq += x * x;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ParetoIsHeavyTailedAndBounded)
{
    Rng r(17);
    double mx = 0;
    for (int i = 0; i < 100000; ++i) {
        double x = r.pareto(100.0, 1.5);
        ASSERT_GE(x, 100.0);
        mx = std::max(mx, x);
    }
    // With 100k draws and alpha=1.5, the max should far exceed xm.
    EXPECT_GT(mx, 10000.0);
}

TEST(Rng, GeneralizedParetoShapeZeroIsExponential)
{
    Rng r(19);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        sum += r.generalizedPareto(0.0, 100.0, 0.0);
    }
    EXPECT_NEAR(sum / n, 100.0, 2.5);
}

TEST(Rng, BernoulliFrequency)
{
    Rng r(23);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        hits += r.bernoulli(0.3);
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeightedChoice)
{
    Rng r(29);
    std::vector<double> w = {1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    const int n = 40000;
    for (int i = 0; i < n; ++i) {
        counts[r.weightedChoice(w)]++;
    }
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
    EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(ZipfSampler, RankZeroMostPopular)
{
    Rng r(31);
    ZipfSampler z(1000, 0.99);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 100000; ++i) {
        counts[z.sample(r)]++;
    }
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[10], counts[500]);
}

TEST(ZipfSampler, CoversDomain)
{
    Rng r(37);
    ZipfSampler z(4, 0.5);
    bool seen[4] = {false, false, false, false};
    for (int i = 0; i < 10000; ++i) {
        seen[z.sample(r)] = true;
    }
    for (bool s : seen) {
        EXPECT_TRUE(s);
    }
}

/** The CDF each sampler built for itself before tables were shared. */
std::vector<double>
perInstanceZipfCdf(size_t n, double skew)
{
    std::vector<double> cdf(n);
    double acc = 0;
    for (size_t i = 0; i < n; ++i) {
        acc += 1.0 / std::pow(static_cast<double>(i + 1), skew);
        cdf[i] = acc;
    }
    for (auto &v : cdf) {
        v /= acc;
    }
    return cdf;
}

TEST(ZipfSampler, EqualParametersShareOneTable)
{
    ZipfSampler a(20000, 0.99), b(20000, 0.99);
    EXPECT_EQ(&a.cdf(), &b.cdf());
    ZipfSampler other_n(20001, 0.99), other_skew(20000, 0.98);
    EXPECT_NE(&other_n.cdf(), &a.cdf());
    EXPECT_NE(&other_skew.cdf(), &a.cdf());
    EXPECT_NE(&other_n.cdf(), &other_skew.cdf());
    EXPECT_EQ(other_n.size(), 20001u);
    EXPECT_EQ(other_skew.size(), 20000u);
}

TEST(ZipfSampler, DrawsMatchPerInstanceReference)
{
    const std::vector<double> ref = perInstanceZipfCdf(20000, 0.99);
    ZipfSampler z(20000, 0.99);
    ASSERT_EQ(z.cdf(), ref); // bit-identical values, not just close
    Rng a(41), b(41);
    for (int i = 0; i < 10000; ++i) {
        double u = b.uniform();
        auto it = std::lower_bound(ref.begin(), ref.end(), u);
        size_t want = it == ref.end()
                          ? ref.size() - 1
                          : static_cast<size_t>(it - ref.begin());
        ASSERT_EQ(z.sample(a), want) << "draw " << i;
    }
}

TEST(ZipfSampler, RebuildsAfterLastSamplerIsGone)
{
    // A pair no other test uses, so this test's samplers are its only
    // users and the table dies with the first one.
    const std::vector<double> ref = perInstanceZipfCdf(777, 1.25);
    {
        ZipfSampler first(777, 1.25);
        ASSERT_EQ(first.cdf(), ref);
    }
    ZipfSampler again(777, 1.25);
    EXPECT_EQ(again.cdf(), ref);
}

TEST(ZipfSampler, ConcurrentConstructionSharesOneTable)
{
    constexpr int kThreads = 4;
    std::vector<const std::vector<double> *> seen(kThreads);
    std::vector<std::thread> threads;
    {
        ZipfSampler anchor(5000, 0.8);
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&seen, t] {
                for (int i = 0; i < 100; ++i) {
                    ZipfSampler z(5000, 0.8);
                    seen[t] = &z.cdf();
                }
            });
        }
        for (auto &th : threads) {
            th.join();
        }
        for (const auto *p : seen) {
            EXPECT_EQ(p, &anchor.cdf());
        }
    }
}

TEST(ZipfSamplerDeathTest, RejectsBadSkew)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EXIT(ZipfSampler(10, nan), testing::ExitedWithCode(1),
                "skew -?nan must be finite");
    EXPECT_EXIT(ZipfSampler(10, inf), testing::ExitedWithCode(1),
                "skew inf must be finite");
    EXPECT_EXIT(ZipfSampler(10, -0.5), testing::ExitedWithCode(1),
                "skew -0.5 must be finite and non-negative");
    EXPECT_EXIT(ZipfSampler(0, 0.99), testing::ExitedWithCode(1),
                "empty domain");
}

} // namespace
} // namespace diablo
