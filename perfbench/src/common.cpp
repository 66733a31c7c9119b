#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <unordered_map>

#include "bench_math.hpp"

namespace perfbench {

namespace {

const Clock::time_point g_process_start = Clock::now();

bool
isEngineStage(const char *name)
{
    return std::strncmp(name, "engine.", 7) == 0;
}

} // namespace

Clock::time_point
processStart()
{
    return g_process_start;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

void
RunResult::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    std::cerr << "perfbench: check failed: " << what << "\n";
}

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"frames_per_s", "1/s"},       {"psnr_db", "dB"},
        {"interactive_p50_ms", "ms"},  {"interactive_tail_ms", "ms"},
        {"standard_p50_ms", "ms"},     {"batch_p50_ms", "ms"},
        {"rtt_p50_ms", "ms"},          {"bytes_per_frame", "bytes"},
        {"setup_s", "s"},              {"peak_rss_mb", "MB"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"nerf.density_calls", "count/frame"},
        {"nerf.density_points", "count/frame"},
        {"nerf.density_s", "s/frame"},
        {"nerf.color_points", "count/frame"},
        {"nerf.color_s", "s/frame"},
        {"nerf.encode_s", "s/frame"},
        {"nerf.density_mlp_s", "s/frame"},
        {"core.ray_setup_s", "s/frame"},
        {"core.phase1_s", "s/frame"},
        {"core.planning_s", "s/frame"},
        {"core.phase2_s", "s/frame"},
        {"core.finalize_s", "s/frame"},
        {"core.probe_rays", "count/frame"},
        {"core.samples_budgeted", "count/frame"},
        {"core.samples_marched", "count/frame"},
        {"core.color_execs", "count/frame"},
        {"core.marched_per_budgeted", "ratio"},
        {"engine.wait_ms", "ms"},
        {"engine.frame_ms", "ms"},
        {"engine.span_extent_ms", "ms"},
        {"engine.overlap", "ratio"},
        {"server.queue_wait_ms.interactive", "ms"},
        {"server.queue_wait_ms.standard", "ms"},
        {"server.queue_wait_ms.batch", "ms"},
        {"server.admit_ms", "ms"},
        {"server.submit_us", "us"},
        {"server.dropped", "count"},
        {"server.expired", "count"},
        {"server.failed", "count"},
        {"net.encode_ms", "ms"},
        {"net.flush_ms", "ms"},
        {"net.payload_bytes", "bytes/frame"},
        {"net.compression", "ratio"},
        {"net.client_wait_ms", "ms"},
        {"net.overhead_ms", "ms"},
        {"net.results_shed", "count"},
        {"load.late_p99_ms", "ms"},
        {"trace.overhead_pct", "%"},
    };
    return specs;
}

void
setLatencyMetrics(RunResult &r, const Latencies &lat,
                  double interactive_tail_ms)
{
    r.set("interactive_p50_ms", percentile(lat.cls[0], 0.5), "ms");
    r.set("interactive_tail_ms", interactive_tail_ms, "ms");
    r.set("standard_p50_ms", percentile(lat.cls[1], 0.5), "ms");
    r.set("batch_p50_ms", percentile(lat.cls[2], 0.5), "ms");
    r.set("rtt_p50_ms", percentile(lat.all, 0.5), "ms");
    std::cerr << "perfbench: latency samples interactive "
              << lat.cls[0].size() << ", standard " << lat.cls[1].size()
              << ", batch " << lat.cls[2].size() << "\n";
}

void
collectSpans(SpanSplit &split)
{
    const std::vector<telemetry::Span> spans = telemetry::snapshot();
    telemetry::reset();

    std::unordered_map<uint32_t, std::vector<const telemetry::Span *>>
        stages, nerf;
    for (const telemetry::Span &s : spans) {
        const double dur_s =
            double(s.t_end_us > s.t_start_us ? s.t_end_us - s.t_start_us
                                             : 0) *
            1e-6;
        split.total_s[s.name] += dur_s;
        split.count[s.name] += 1;
        if (std::strcmp(s.name, kSpanNerf) == 0) {
            nerf[s.lane].push_back(&s);
            continue;
        }
        if (std::strcmp(s.name, telemetry::kSpanQueueWait) == 0)
            split.queue_wait_ms[s.ticket] += dur_s * 1e3;
        if (!isEngineStage(s.name))
            continue;
        split.self_s[s.name] += dur_s;
        stages[s.lane].push_back(&s);
    }

    // Per ticket: admission end to the first stage start.
    std::unordered_map<uint64_t, uint64_t> admitted_us;
    for (const telemetry::Span &s : spans)
        if (s.ticket != 0 && std::strcmp(s.name, telemetry::kSpanAdmit) == 0)
            admitted_us[s.ticket] = s.t_end_us;
    std::unordered_map<uint64_t, uint64_t> first_stage_us;
    for (const auto &lane : stages)
        for (const telemetry::Span *s : lane.second) {
            if (s->ticket == 0)
                continue;
            auto it = first_stage_us.find(s->ticket);
            if (it == first_stage_us.end())
                first_stage_us.emplace(s->ticket, s->t_start_us);
            else
                it->second = std::min(it->second, s->t_start_us);
        }
    for (const auto &f : first_stage_us) {
        auto a = admitted_us.find(f.first);
        if (a != admitted_us.end())
            split.engine_wait_ms[f.first] =
                f.second > a->second ? double(f.second - a->second) * 1e-3
                                     : 0.0;
    }

    // Per-frame extent: first stage start to last stage end.
    std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> extent;
    for (const auto &lane : stages)
        for (const telemetry::Span *s : lane.second) {
            if (s->frame == 0)
                continue;
            auto it = extent.find(s->frame);
            if (it == extent.end())
                extent.emplace(s->frame,
                               std::make_pair(s->t_start_us, s->t_end_us));
            else {
                it->second.first = std::min(it->second.first, s->t_start_us);
                it->second.second = std::max(it->second.second, s->t_end_us);
            }
        }
    for (const auto &e : extent)
        split.frame_extent_ms[e.first] =
            double(e.second.second - e.second.first) * 1e-3;

    // Self time: a field call runs inside exactly one stage task on its
    // lane; find that task (the last stage span starting at or before
    // the call) and charge the call's duration to it.
    auto by_start = [](const telemetry::Span *a, const telemetry::Span *b) {
        return a->t_start_us < b->t_start_us;
    };
    for (auto &lane : nerf) {
        auto st = stages.find(lane.first);
        if (st == stages.end())
            continue;
        std::vector<const telemetry::Span *> &parents = st->second;
        std::sort(parents.begin(), parents.end(), by_start);
        for (const telemetry::Span *n : lane.second) {
            auto it = std::upper_bound(
                parents.begin(), parents.end(), n,
                [](const telemetry::Span *x, const telemetry::Span *p) {
                    return x->t_start_us < p->t_start_us;
                });
            if (it == parents.begin())
                continue;
            const telemetry::Span *p = *(it - 1);
            if (n->t_end_us <= p->t_end_us)
                split.self_s[p->name] -=
                    double(n->t_end_us - n->t_start_us) * 1e-6;
        }
    }
}

void
setCoreStageMetrics(RunResult &r, const SpanSplit &split, uint64_t frames)
{
    const double n = frames ? double(frames) : 1.0;
    auto self = [&](const char *span) {
        auto it = split.self_s.find(span);
        return it == split.self_s.end() ? 0.0 : it->second / n;
    };
    r.set("core.ray_setup_s", self(telemetry::kSpanRaySetup), "s/frame");
    r.set("core.phase1_s", self(telemetry::kSpanProbes), "s/frame");
    r.set("core.planning_s", self(telemetry::kSpanPlanning), "s/frame");
    r.set("core.phase2_s", self(telemetry::kSpanTiles), "s/frame");
    r.set("core.finalize_s", self(telemetry::kSpanFinalize), "s/frame");
}

} // namespace perfbench
