/**
 * @file
 * Shared plumbing of the perfbench workloads: run options, the result
 * every workload fills, the metric tables BENCHMARK.json mirrors, and
 * the per-layer aggregation of telemetry spans (self times).
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/telemetry.hpp"

namespace perfbench {

using namespace asdr;

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Steady-clock time at process start (captured during static init,
 *  before main; the set-up time is measured from here). */
Clock::time_point processStart();

/** Peak resident set of the process so far, MB (getrusage). */
double peakRssMb();

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    /** Layers this workload does not exercise: their per-layer metrics
     *  print as 0 instead of counting as missing. */
    std::vector<std::string> idle_layers;

    void set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = Metric{value, unit};
    }
    /** Record one correctness check; a failure is reported on stderr
     *  and clears `correct`. */
    void check(bool ok, const std::string &what);
};

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics every workload prints with --trace 0. */
const std::vector<MetricSpec> &endToEndMetrics();
/** Per-layer metrics every workload prints with --trace 1. */
const std::vector<MetricSpec> &perLayerMetrics();

/** Latency samples of one run, ms: per QoS class index, and all. */
struct Latencies
{
    std::vector<double> cls[3];
    std::vector<double> all;
};

/** Set the class latency metrics and rtt_p50_ms from `lat`, and
 *  interactive_tail_ms to the workload's own interactive tail figure. */
void setLatencyMetrics(RunResult &r, const Latencies &lat,
                       double interactive_tail_ms);

RunResult runRenderOrbit(const Options &opt);
RunResult runServeOpen(const Options &opt);
RunResult runWireStream(const Options &opt);

// ------------------------------------------------------ span aggregation

/** Span name the benchmark records around every timed field call
 *  (TimedField), so stage self times can subtract it. */
inline constexpr const char *kSpanNerf = "perfbench.nerf";

/** Per-layer view of the spans recorded while tracing was on. */
struct SpanSplit
{
    /** Summed duration per span name, seconds (nerf time included). */
    std::map<std::string, double> total_s;
    /** Summed self time per engine stage span name, seconds: duration
     *  minus the perfbench.nerf spans it contains on the same lane. */
    std::map<std::string, double> self_s;
    std::map<std::string, uint64_t> count;
    /** Per engine frame id: last stage-span end minus first stage-span
     *  start, ms (the traced per-frame stage time). */
    std::map<uint64_t, double> frame_extent_ms;
    /** server.queue_wait duration per ticket, ms. */
    std::map<uint64_t, double> queue_wait_ms;
    /** Per ticket: end of its server.admit span to the start of its
     *  first engine stage span, ms (the wait inside the engine). */
    std::map<uint64_t, double> engine_wait_ms;
};

/** Drain every buffered span into `split` and clear the buffers. */
void collectSpans(SpanSplit &split);

/** Fill the core.* stage self times (s/frame) from `split`. */
void setCoreStageMetrics(RunResult &r, const SpanSplit &split,
                         uint64_t frames);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
