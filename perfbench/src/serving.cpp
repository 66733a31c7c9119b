#include "serving.hpp"

#include <atomic>
#include <cstring>
#include <thread>

#include "bench_math.hpp"
#include "core/ground_truth.hpp"
#include "image/metrics.hpp"
#include "net/frame_codec.hpp"
#include "scene/scene_library.hpp"

namespace perfbench {

namespace {

const char *const kServeScenes[] = {"Lego", "Hotdog", "Chair"};
constexpr int kGroundTruthSamples = 512;
constexpr int kCheckThreads = 3;

core::RenderConfig
servingRenderConfig()
{
    core::RenderConfig cfg =
        core::RenderConfig::asdr(kServeSize, kServeSize, kServeSamples);
    cfg.num_threads = 2;
    cfg.morton_order = 1;
    cfg.sample_cache.enabled = 0;
    return cfg;
}

} // namespace

server::ServerConfig
servingServerConfig()
{
    server::ServerConfig cfg;
    cfg.shards = 1;
    cfg.threads_per_shard = 2;
    cfg.frames_in_flight_per_shard = 2;
    cfg.sample_cache.enabled = 0;
    return cfg;
}

nerf::Camera
orbitCamera(const server::SceneEntry &e, float angle_rad)
{
    return nerf::Camera(nerf::orbitPosition(e.info, angle_rad),
                        e.info.look_at, Vec3(0.0f, 1.0f, 0.0f),
                        e.info.fov_deg, kServeSize, kServeSize);
}

nerf::Camera
viewerPose(const server::SceneEntry &e, int v, float u)
{
    // Twelve 30-degree sectors; a viewer draws poses from the first
    // three quarters of its own sector.
    const float sector = 2.0f * 3.14159265f / 12.0f;
    return orbitCamera(e, sector * (float(v % 12) + 0.75f * u));
}

void
ServingSetup::build()
{
    for (const char *name : kServeScenes)
        registry.addProcedural(name, name, nerf::NgpModelConfig::reference(),
                               servingRenderConfig());
}

FrameChecks
ServingSetup::checkFrames(const std::vector<KeptFrame> &frames, RunResult &r)
{
    FrameChecks out;
    r.check(!frames.empty(), "no served frame was kept for the checks");
    if (frames.empty())
        return out;

    std::map<std::string, std::unique_ptr<scene::AnalyticScene>> truth;
    std::map<std::string, std::unique_ptr<core::AsdrRenderer>> direct;
    for (const char *name : kServeScenes) {
        const server::SceneEntry *e = registry.find(name);
        truth[name] = scene::createScene(name);
        direct[name] =
            std::make_unique<core::AsdrRenderer>(*e->field, e->config);
    }

    std::vector<double> psnr_db(frames.size(), 0.0);
    std::vector<char> same(frames.size(), 0);
    std::vector<core::RenderStats> stats(frames.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < kCheckThreads; ++t)
        pool.emplace_back([&] {
            for (size_t i; (i = next.fetch_add(1)) < frames.size();) {
                const KeptFrame &k = frames[i];
                const Image ref = direct.at(k.scene)->render(k.camera, &stats[i]);
                same[i] = ref.width() == k.image->width() &&
                          ref.height() == k.image->height() &&
                          std::memcmp(ref.data().data(),
                                      k.image->data().data(),
                                      ref.pixels() * sizeof(Vec3)) == 0;
                psnr_db[i] = psnr(
                    *k.image, core::renderGroundTruth(*truth.at(k.scene),
                                                      k.camera,
                                                      kGroundTruthSamples));
            }
        });
    for (std::thread &t : pool)
        t.join();
    for (size_t i = 0; i < frames.size(); ++i)
        r.check(same[i], "served frame of viewer " +
                             std::to_string(frames[i].viewer) +
                             " differs from a direct render");
    out.mean_psnr_db = mean(psnr_db);
    for (const core::RenderStats &st : stats) {
        out.profile.merge(st.profile);
        for (float b : st.sample_count_map)
            out.budgeted += b;
        for (float m : st.actual_points_map)
            out.marched += m;
    }

    std::map<int, const Image *> prev;
    double bytes = 0.0;
    for (const KeptFrame &k : frames) {
        const Image *&p = prev[k.viewer];
        bytes += double(net::encodeFramePayload(
                            *k.image, net::FrameEncoding::DeltaPrev, p)
                            .size());
        p = k.image;
    }
    out.delta_bytes_per_frame = bytes / double(frames.size());
    return out;
}

void
checkClassCounts(RunResult &r, const ClassCounts &mine,
                 const server::ServerStatsSnapshot &before,
                 const server::ServerStatsSnapshot &after)
{
    static const char *const kCounts[5] = {"submitted", "served", "dropped",
                                           "failed", "expired"};
    for (int c = 0; c < server::kQosClasses; ++c) {
        const server::QosClassStats &a = after.cls[c], &b = before.cls[c];
        const uint64_t theirs[5] = {
            a.submitted - b.submitted, a.served - b.served,
            a.dropped - b.dropped, a.failed - b.failed,
            a.expired - b.expired};
        for (int k = 0; k < 5; ++k)
            r.check(mine[c][k] == theirs[k],
                    std::string("ServerStats ") + kCounts[k] + " of class " +
                        server::qosClassName(server::QosClass(c)) + " is " +
                        std::to_string(theirs[k]) + ", the workload counted " +
                        std::to_string(mine[c][k]));
    }
}

void
setServingLayerMetrics(RunResult &r, const ServingLayerInputs &in)
{
    const SpanSplit &split = *in.split;
    const auto fin = split.count.find(telemetry::kSpanFinalize);
    setCoreStageMetrics(r, split, fin == split.count.end() ? 0 : fin->second);

    const double n = in.served ? double(in.served) : 1.0;
    r.set("core.probe_rays", double(in.profile.probe_rays) / n, "count/frame");
    r.set("core.samples_budgeted", in.budgeted / n, "count/frame");
    r.set("core.samples_marched", in.marched / n, "count/frame");
    r.set("core.color_execs", double(in.profile.color_execs) / n,
          "count/frame");
    r.set("core.marched_per_budgeted",
          in.budgeted > 0.0 ? in.marched / in.budgeted : 0.0, "ratio");

    r.set("engine.wait_ms", mean(in.wait_ms), "ms");
    r.set("engine.frame_ms", mean(in.frame_ms), "ms");
    std::vector<double> extent;
    for (const auto &e : split.frame_extent_ms)
        extent.push_back(e.second);
    r.set("engine.span_extent_ms", mean(extent), "ms");
    r.set("engine.overlap", in.overlap, "ratio");

    std::vector<double> wait[server::kQosClasses];
    for (const auto &q : split.queue_wait_ms) {
        auto it = in.ticket_class->find(q.first);
        if (it != in.ticket_class->end())
            wait[it->second].push_back(q.second);
    }
    r.set("server.queue_wait_ms.interactive", mean(wait[0]), "ms");
    r.set("server.queue_wait_ms.standard", mean(wait[1]), "ms");
    r.set("server.queue_wait_ms.batch", mean(wait[2]), "ms");
    const auto admit_n = split.count.find(telemetry::kSpanAdmit);
    const auto admit_s = split.total_s.find(telemetry::kSpanAdmit);
    r.set("server.admit_ms",
          admit_n == split.count.end()
              ? 0.0
              : admit_s->second * 1e3 / double(admit_n->second),
          "ms");
    uint64_t dropped = 0, expired = 0, failed = 0;
    for (int c = 0; c < server::kQosClasses; ++c) {
        dropped += in.after.cls[c].dropped - in.before.cls[c].dropped;
        expired += in.after.cls[c].expired - in.before.cls[c].expired;
        failed += in.after.cls[c].failed - in.before.cls[c].failed;
    }
    r.set("server.dropped", double(dropped), "count");
    r.set("server.expired", double(expired), "count");
    r.set("server.failed", double(failed), "count");
}

} // namespace perfbench
