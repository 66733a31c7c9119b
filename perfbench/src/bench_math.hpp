/**
 * @file
 * The benchmark's own arithmetic: exact percentiles over recorded
 * samples and the seeded open-loop arrival schedule. Kept independent
 * of the library under test (no asdr headers), so a change to the
 * program cannot move the measuring stick; tests/test_bench_math.cpp
 * checks both on hand-worked inputs.
 */

#ifndef PERFBENCH_BENCH_MATH_HPP
#define PERFBENCH_BENCH_MATH_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/**
 * Exact percentile of `values` at quantile q in [0, 1]: linear
 * interpolation between the two closest ranks of the sorted sample
 * (rank = q * (n - 1)), the definition numpy and Python's
 * statistics.quantiles(method="inclusive") use. 0 for an empty sample.
 */
inline double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    q = std::min(1.0, std::max(0.0, q));
    const double rank = q * double(values.size() - 1);
    const size_t lo = size_t(std::floor(rank));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - double(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double
median(const std::vector<double> &values)
{
    return percentile(values, 0.5);
}

inline double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double s = 0.0;
    for (double v : values)
        s += v;
    return s / double(values.size());
}

/** SplitMix64 step: the benchmark's one source of seeded randomness. */
inline uint64_t
nextRandom(uint64_t &state)
{
    state += 0x9E3779B97F4A7C15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Uniform double in [0, 1) with 53 random bits. */
inline double
nextUnit(uint64_t &state)
{
    return double(nextRandom(state) >> 11) * 0x1.0p-53;
}

/** A seed for stream `stream` derived from the run seed, so every
 *  viewer draws from its own independent sequence. */
inline uint64_t
streamSeed(uint64_t seed, uint64_t stream)
{
    uint64_t s = seed ^ (0xA0761D6478BD642Full * (stream + 1));
    return nextRandom(s);
}

/**
 * Poisson arrival times in [0, duration_s) at `rate_per_s`: exponential
 * gaps -ln(1 - u) / rate from the seeded stream. The same (seed, rate,
 * duration) always gives the same schedule.
 */
inline std::vector<double>
poissonArrivals(uint64_t seed, double rate_per_s, double duration_s)
{
    std::vector<double> times;
    if (rate_per_s <= 0.0 || duration_s <= 0.0)
        return times;
    uint64_t state = seed;
    double t = 0.0;
    for (;;) {
        t += -std::log1p(-nextUnit(state)) / rate_per_s;
        if (t >= duration_s)
            break;
        times.push_back(t);
    }
    return times;
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_MATH_HPP
