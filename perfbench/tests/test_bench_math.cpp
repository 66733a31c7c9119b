// Hand-worked checks of the benchmark's own arithmetic (bench_math.hpp):
// the exact percentile and the seeded Poisson arrival schedule.
// Build and run with `python3 perfbench/run.py --selftest`; exits
// nonzero on the first failed check.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_math.hpp"

namespace {

int failures = 0;

void
expectNear(double got, double want, double tol, const char *what)
{
    if (!(std::fabs(got - want) <= tol)) {
        std::printf("FAIL %s: got %.9g, want %.9g (tol %.3g)\n", what, got,
                    want, tol);
        ++failures;
    }
}

void
expectTrue(bool ok, const char *what)
{
    if (!ok) {
        std::printf("FAIL %s\n", what);
        ++failures;
    }
}

void
testPercentile()
{
    using perfbench::percentile;
    // {1,2,3,4}: rank(0.5) = 1.5 -> halfway between 2 and 3.
    expectNear(percentile({4, 1, 3, 2}, 0.5), 2.5, 1e-12, "p50 of 1..4");
    // rank(0.25) = 0.75 -> 1 + 0.75 * (2 - 1).
    expectNear(percentile({1, 2, 3, 4}, 0.25), 1.75, 1e-12, "p25 of 1..4");
    expectNear(percentile({1, 2, 3, 4}, 0.0), 1.0, 1e-12, "p0 is the min");
    expectNear(percentile({1, 2, 3, 4}, 1.0), 4.0, 1e-12, "p100 is the max");
    // 1..100: rank(0.99) = 98.01 -> 99 + 0.01 * (100 - 99) = 99.01.
    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i)
        hundred.push_back(i);
    expectNear(percentile(hundred, 0.99), 99.01, 1e-9, "p99 of 1..100");
    expectNear(percentile(hundred, 0.5), 50.5, 1e-12, "p50 of 1..100");
    expectNear(percentile({7.0}, 0.99), 7.0, 1e-12, "single sample");
    expectNear(percentile({}, 0.5), 0.0, 0.0, "empty sample reads 0");
    expectNear(perfbench::median({5, 1, 9}), 5.0, 1e-12, "median of 3");
    expectNear(perfbench::mean({1, 2, 6}), 3.0, 1e-12, "mean");
}

void
testArrivals()
{
    using perfbench::poissonArrivals;
    const auto a = poissonArrivals(42, 100.0, 50.0);
    const auto b = poissonArrivals(42, 100.0, 50.0);
    expectTrue(a == b, "same seed gives the same schedule");
    expectTrue(poissonArrivals(43, 100.0, 50.0) != a,
               "another seed gives another schedule");
    bool sorted_in_range = !a.empty();
    for (size_t i = 0; i < a.size(); ++i)
        sorted_in_range = sorted_in_range && a[i] >= 0.0 && a[i] < 50.0 &&
                          (i == 0 || a[i] > a[i - 1]);
    expectTrue(sorted_in_range, "arrivals ascend inside [0, duration)");
    // ~5000 exponential gaps of mean 10 ms: the sample mean's standard
    // error is 10 ms / sqrt(5000) ~ 0.14 ms; allow four of them.
    const double mean_gap = a.back() / double(a.size());
    expectNear(mean_gap, 0.010, 4 * 0.010 / std::sqrt(double(a.size())),
               "mean gap equals 1/rate");
    // Count over the window is Poisson(5000): sd ~ 71, allow four.
    expectNear(double(a.size()), 5000.0, 4 * std::sqrt(5000.0),
               "arrival count equals rate x duration");
    // Exponential gaps: the share of gaps above the mean is e^-1.
    size_t above = 0;
    double prev = 0.0;
    for (double t : a) {
        above += (t - prev) > 0.010;
        prev = t;
    }
    const double share = double(above) / double(a.size());
    expectNear(share, std::exp(-1.0), 4 * std::sqrt(0.23 / double(a.size())),
               "gap distribution is exponential");
    expectTrue(poissonArrivals(1, 0.0, 10.0).empty(), "zero rate: no arrivals");
}

} // namespace

int
main()
{
    testPercentile();
    testArrivals();
    if (failures) {
        std::printf("%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("bench_math: all checks passed\n");
    return 0;
}
