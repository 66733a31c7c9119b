// render_orbit: fitted Instant-NGP scenes of opposite sparsity (Mic,
// thin and mostly empty; Fox, frame-filling) rendered along orbits
// through one engine::FrameEngine with the full ASDR config. Three
// closed-loop viewers -- one per QoS class, each at its class's pool
// priority -- keep one frame each in flight, so the engine pipelines
// three large frames at a time. Every viewer alternates between the two
// scenes, so all three carry the same mix of work. No server, no wire:
// the nerf kernels and core Phase I/II do most of the work.

#include <cmath>
#include <condition_variable>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include "bench_math.hpp"
#include "common.hpp"
#include "core/adaptive_sampler.hpp"
#include "core/ground_truth.hpp"
#include "core/renderer.hpp"
#include "engine/frame_engine.hpp"
#include "image/metrics.hpp"
#include "nerf/camera.hpp"
#include "nerf/trainer.hpp"
#include "net/frame_codec.hpp"
#include "scene/scene_library.hpp"
#include "server/qos.hpp"
#include "timed_field.hpp"

namespace perfbench {

namespace {

// Frame geometry: ~4.1k pixels per frame (Mic 64x64, Fox 48x85 at its
// portrait aspect), 128 samples per ray.
constexpr int kPixelBudget = 64 * 64;
constexpr int kSamplesPerRay = 128;
// Frames per viewer per pass, alternating Mic and Fox, 30 degrees apart:
// one full turn per viewer.
constexpr int kOrbitPoses = 12;
constexpr int kWarmupPoses = 2;
constexpr int kEngineThreads = 3;
constexpr int kViewers = 3;
// Pass-to-pass turn of the orbit, in steps: the golden-ratio fraction,
// whose multiples spread evenly over [0, 1) for any number of passes.
constexpr double kGoldenFraction = 0.6180339887498949;
constexpr float kTurn = 2.0f * 3.14159265f;
// interactive_tail_ms: the median over passes of each pass's p90 of
// its 12 interactive frames (about its second-slowest frame). A run has
// only about 100 interactive frames, too few for a p99, and a per-pass
// tail is not moved by a slow spell of the shared host that covers one
// or two passes.
constexpr double kTailQuantile = 0.9;
// Ground-truth samples per ray for the PSNR reference.
constexpr int kGroundTruthSamples = 512;
// Floor on the mean PSNR against the analytic ground truth; the fitted
// fields land well above it (see README), a broken render far below.
constexpr double kPsnrFloorDb = 30.0;

struct FittedScene
{
    std::string name;
    std::unique_ptr<scene::AnalyticScene> scene;
    std::unique_ptr<nerf::InstantNgpField> field;
    std::unique_ptr<TimedField> timed;
    std::unique_ptr<core::AsdrRenderer> renderer;
    int width = 0, height = 0;
};

/** One frame a viewer requests: which scene, from where. */
struct Shot
{
    const FittedScene *scene = nullptr;
    nerf::Camera camera;
};

struct Viewer
{
    server::QosClass qos = server::QosClass::Interactive;
    std::vector<Shot> shots; ///< kOrbitPoses, in orbit order
};

struct FrameRecord
{
    Clock::time_point submitted, started, finished;
    uint64_t id = 0;
    core::WorkloadProfile profile;
    double budgeted = 0.0; ///< summed per-pixel sample budgets
    double marched = 0.0;  ///< summed per-pixel marched samples
    bool ok = false;
    bool budget_ok = false;
    Image image;
};

/** Fit an NGP field to a library scene from fixed seeds, in-process
 *  (never through the on-disk field cache). */
void
fitScene(FittedScene &fs)
{
    fs.scene = scene::createScene(fs.name);
    fs.field = std::make_unique<nerf::InstantNgpField>(
        nerf::NgpModelConfig::fast(), 0xF1E1D);
    nerf::TrainConfig train;
    train.steps = 2500;
    train.batch = 96;
    train.lr = 4e-3f;
    nerf::fitField(*fs.field, *fs.scene, train);
    fs.timed = std::make_unique<TimedField>(*fs.field);
    const scene::SceneInfo &info = fs.scene->info();
    const double aspect = double(info.full_width) / double(info.full_height);
    fs.height = int(std::lround(std::sqrt(kPixelBudget / aspect)));
    fs.width = int(std::lround(fs.height * aspect));
}

core::RenderConfig
orbitConfig(int w, int h)
{
    core::RenderConfig cfg = core::RenderConfig::asdr(w, h, kSamplesPerRay);
    cfg.num_threads = kEngineThreads;
    cfg.morton_order = 1;
    cfg.sample_cache.enabled = 0;
    return cfg;
}

/** Check one frame's sample accounting: budgets never exceed
 *  samples_per_ray; marched samples never exceed the pixel's budget
 *  (probe pixels march the full samples_per_ray by design). */
bool
budgetsHold(const core::RenderStats &st, const core::RenderConfig &cfg,
            int w, int h)
{
    if (st.sample_count_map.size() != size_t(w) * size_t(h) ||
        st.actual_points_map.size() != st.sample_count_map.size())
        return false;
    std::vector<char> probe(size_t(w) * size_t(h), 0);
    int gw = 0, gh = 0;
    core::AdaptiveSampler::probeGridDims(w, h, cfg.probe_stride, gw, gh);
    for (int gy = 0; gy < gh; ++gy)
        for (int gx = 0; gx < gw; ++gx) {
            int px = 0, py = 0;
            core::AdaptiveSampler::probePixel(gx, gy, cfg.probe_stride, w, h,
                                              px, py);
            probe[size_t(py) * size_t(w) + size_t(px)] = 1;
        }
    if (st.profile.probe_rays != uint64_t(gw) * uint64_t(gh))
        return false;
    for (size_t i = 0; i < probe.size(); ++i) {
        const float budget = st.sample_count_map[i];
        const float marched = st.actual_points_map[i];
        const float cap = probe[i] ? float(cfg.samples_per_ray) : budget;
        if (budget < 0.0f || budget > float(cfg.samples_per_ray) ||
            marched < 0.0f || marched > cap)
            return false;
    }
    return true;
}

bool
sameBits(const Image &a, const Image &b)
{
    return a.width() == b.width() && a.height() == b.height() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.pixels() * sizeof(Vec3)) == 0;
}

/** One pass: every viewer renders `poses` frames of its orbit, closed
 *  loop (the completion callback submits the viewer's next pose). */
class Pass
{
  public:
    Pass(engine::FrameEngine &eng, const std::vector<Viewer> &viewers,
         int poses)
        : eng_(eng), viewers_(viewers), poses_(poses),
          records_(viewers.size() * size_t(poses)),
          active_(int(viewers.size()))
    {
    }

    /** Run the pass to completion; returns its wall time, seconds. */
    double run()
    {
        const Clock::time_point t0 = Clock::now();
        for (size_t v = 0; v < viewers_.size(); ++v)
            submit(int(v), 0);
        std::unique_lock<std::mutex> lock(m_);
        done_cv_.wait(lock, [this] { return active_ == 0; });
        return secondsBetween(t0, Clock::now());
    }

    std::vector<FrameRecord> &records() { return records_; }

  private:
    FrameRecord &record(int v, int pose)
    {
        return records_[size_t(v) * size_t(poses_) + size_t(pose)];
    }

    void submit(int v, int pose)
    {
        const Viewer &vw = viewers_[size_t(v)];
        const Shot &shot = vw.shots[size_t(pose)];
        engine::FrameRequest req(shot.camera);
        req.renderer = shot.scene->renderer.get();
        req.priority = server::qosPoolPriority(vw.qos);
        req.on_complete = [this, v, pose](engine::Frame &&f,
                                          std::exception_ptr err) {
            complete(v, pose, std::move(f), err);
        };
        eng_.submitAsync(std::move(req));
    }

    void complete(int v, int pose, engine::Frame &&f, std::exception_ptr err)
    {
        const FittedScene &sc = *viewers_[size_t(v)].shots[size_t(pose)].scene;
        FrameRecord &rec = record(v, pose);
        rec.submitted = f.submitted_at;
        rec.started = f.started_at;
        rec.finished = f.finished_at;
        rec.id = f.id;
        rec.ok = err == nullptr;
        if (rec.ok) {
            rec.profile = f.stats.profile;
            for (float b : f.stats.sample_count_map)
                rec.budgeted += b;
            for (float m : f.stats.actual_points_map)
                rec.marched += m;
            rec.budget_ok = budgetsHold(f.stats, sc.renderer->config(),
                                        sc.width, sc.height);
            rec.image = std::move(f.image);
        }
        if (pose + 1 < poses_) {
            submit(v, pose + 1);
            return;
        }
        std::lock_guard<std::mutex> lock(m_);
        if (--active_ == 0)
            done_cv_.notify_all();
    }

    engine::FrameEngine &eng_;
    const std::vector<Viewer> &viewers_;
    const int poses_;
    std::vector<FrameRecord> records_;
    std::mutex m_;
    std::condition_variable done_cv_;
    int active_;
};

/** Split of density time into hash encode vs density MLP, from a
 *  replay of the recorded batches through the public kernels. */
double
encodeShare(const nerf::InstantNgpField &field,
            const std::vector<TimedField::Batch> &batches)
{
    const int fd = field.grid().featureDim();
    std::vector<float> feat, geo;
    double enc_s = 0.0, mlp_s = 0.0;
    for (int rep = 0; rep < 3; ++rep)
        for (const TimedField::Batch &b : batches) {
            const int n = int(b.size());
            feat.resize(size_t(fd) * size_t(n));
            geo.resize(size_t(nerf::kGeoFeatures) * size_t(n));
            const Clock::time_point t0 = Clock::now();
            field.grid().encodeBatch(b.data(), n, feat.data(), fd);
            const Clock::time_point t1 = Clock::now();
            field.densityMlp().forwardBatch(feat.data(), n, fd, geo.data(),
                                            nerf::kGeoFeatures);
            const Clock::time_point t2 = Clock::now();
            enc_s += secondsBetween(t0, t1);
            mlp_s += secondsBetween(t1, t2);
        }
    return enc_s + mlp_s > 0.0 ? enc_s / (enc_s + mlp_s) : 0.0;
}

} // namespace

RunResult
runRenderOrbit(const Options &opt)
{
    RunResult r;
    r.idle_layers = {"server.", "net.", "load."};

    // ---- set-up: fit both fields in parallel (fixed seeds) ----
    std::vector<FittedScene> scenes(2);
    scenes[0].name = "Mic";
    scenes[1].name = "Fox";
    {
        std::thread other([&] { fitScene(scenes[1]); });
        fitScene(scenes[0]);
        other.join();
    }
    for (FittedScene &s : scenes) {
        const nerf::RadianceField &field =
            opt.trace ? static_cast<const nerf::RadianceField &>(*s.timed)
                      : *s.field;
        s.renderer = std::make_unique<core::AsdrRenderer>(
            field, orbitConfig(s.width, s.height));
    }

    // In pass p, viewer v's frame k shows scene k % 2 from orbit angle
    // phase + (k + o_p) * 30 degrees + v * 10 degrees. The phase comes
    // from the seed; the pass offset o_p = frac(p * 0.618...) turns
    // successive passes by golden-ratio fractions of a step, so a run's
    // frames cover the orbit evenly whatever the seed. Each viewer sees
    // both scenes from six angles per pass.
    uint64_t rng = streamSeed(opt.seed, 0);
    const float step = kTurn / float(kOrbitPoses);
    const float phase = float(nextUnit(rng)) * step;
    auto orbitViewers = [&](int pass) {
        const double offset = std::fmod(double(pass) * kGoldenFraction, 1.0);
        std::vector<Viewer> viewers(kViewers);
        for (int v = 0; v < kViewers; ++v) {
            viewers[size_t(v)].qos = server::QosClass(v);
            for (int k = 0; k < kOrbitPoses; ++k) {
                const FittedScene &s = scenes[size_t(k % 2)];
                const scene::SceneInfo &info = s.scene->info();
                const float angle =
                    phase + step * (float(k) + float(offset) +
                                    float(v) / float(kViewers));
                viewers[size_t(v)].shots.push_back(
                    {&s, nerf::Camera(nerf::orbitPosition(info, angle),
                                      info.look_at, Vec3(0.0f, 1.0f, 0.0f),
                                      info.fov_deg, s.width, s.height)});
            }
        }
        return viewers;
    };
    // The first timed pass is the one the checks render again.
    const std::vector<Viewer> viewers = orbitViewers(0);

    engine::EngineConfig ecfg;
    ecfg.num_threads = kEngineThreads;
    ecfg.max_frames_in_flight = kViewers;
    engine::FrameEngine eng(ecfg);

    // Warm-up: a fixed few poses per viewer through the same engine.
    {
        Pass warm(eng, viewers, kWarmupPoses);
        warm.run();
    }

    // ---- timed passes ----
    const double setup_s = secondsBetween(processStart(), Clock::now());
    std::vector<double> pass_s, traced_pass_s, untraced_pass_s;
    Latencies lat;
    std::vector<double> pass_tail_ms;
    std::vector<double> wait_ms, frame_ms, extent_err_ms;
    double busy_s = 0.0, traced_wall_s = 0.0;
    uint64_t traced_frames = 0;
    core::WorkloadProfile traced_profile;
    double traced_budgeted = 0.0, traced_marched = 0.0;
    SpanSplit split;
    std::vector<FrameRecord> first;
    const Clock::time_point run_start = Clock::now();
    for (int pass = 0;; ++pass) {
        // In a traced run, passes alternate untraced / traced so the
        // tracing overhead is measured against interleaved baselines.
        const bool traced = opt.trace && (pass % 2 == 1);
        for (FittedScene &s : scenes)
            s.timed->setArmed(traced);
        telemetry::setEnabled(traced);
        const std::vector<Viewer> pass_viewers = orbitViewers(pass);
        Pass p(eng, pass_viewers, kOrbitPoses);
        const double wall = p.run();
        telemetry::setEnabled(false);
        pass_s.push_back(wall);
        (traced ? traced_pass_s : untraced_pass_s).push_back(wall);
        std::vector<FrameRecord> &recs = p.records();
        std::vector<double> pass_interactive_ms;
        for (size_t i = 0; i < recs.size(); ++i) {
            const FrameRecord &rec = recs[i];
            const int v = int(i / kOrbitPoses);
            r.attempted++;
            if (!rec.ok) {
                r.failed++;
                continue;
            }
            r.check(rec.budget_ok, "sample budgets within samples_per_ray "
                                   "and marched samples within budget");
            // Every frame of the pass counts, so each class has 12
            // samples per pass whatever the host's speed; the pass runs
            // the same priority schedule every time.
            const double ms = msBetween(rec.submitted, rec.finished);
            lat.cls[v].push_back(ms);
            lat.all.push_back(ms);
            if (v == 0)
                pass_interactive_ms.push_back(ms);
            if (traced) {
                wait_ms.push_back(msBetween(rec.submitted, rec.started));
                frame_ms.push_back(msBetween(rec.started, rec.finished));
                busy_s += msBetween(rec.started, rec.finished) * 1e-3;
                traced_frames++;
                traced_profile.merge(rec.profile);
                traced_budgeted += rec.budgeted;
                traced_marched += rec.marched;
            }
        }
        pass_tail_ms.push_back(percentile(pass_interactive_ms, kTailQuantile));
        if (traced) {
            traced_wall_s += wall;
            collectSpans(split);
            for (const FrameRecord &rec : recs) {
                auto it = split.frame_extent_ms.find(rec.id);
                if (it != split.frame_extent_ms.end())
                    extent_err_ms.push_back(
                        msBetween(rec.started, rec.finished) - it->second);
            }
        }
        if (pass == 0)
            first = std::move(recs);
        const bool enough = !opt.trace || (traced_pass_s.size() >= 1 &&
                                           untraced_pass_s.size() >= 1);
        if (enough &&
            secondsBetween(run_start, Clock::now()) >= opt.seconds)
            break;
    }
    const double run_wall_s = secondsBetween(run_start, Clock::now());
    const double rss_mb = peakRssMb();
    const Clock::time_point checks_start = Clock::now();

    // ---- correctness checks (after the timed region) ----
    // Half the frames of the first timed pass, three of each scene per viewer,
    // against the analytic ground truth (one thread per viewer); every
    // frame DeltaPrev-encoded against the viewer's previous frame of
    // the same scene.
    constexpr int kChecked = kOrbitPoses / 2;
    std::vector<double> psnr_db(viewers.size() * kChecked, 0.0);
    {
        std::vector<std::thread> gt;
        for (size_t v = 0; v < viewers.size(); ++v)
            gt.emplace_back([&, v] {
                for (int j = 0; j < kChecked; ++j) {
                    // Frames {0,1,4,5,8,9}, shifted by 2 on odd viewers.
                    const int k = 4 * (j / 2) + j % 2 + 2 * int(v % 2);
                    const size_t i = v * kOrbitPoses + size_t(k);
                    if (!first[i].ok)
                        continue;
                    const Shot &shot = viewers[v].shots[size_t(k)];
                    const Image ref = core::renderGroundTruth(
                        *shot.scene->scene, shot.camera, kGroundTruthSamples);
                    psnr_db[v * kChecked + size_t(j)] =
                        asdr::psnr(first[i].image, ref);
                }
            });
        for (std::thread &t : gt)
            t.join();
    }
    double bytes = 0.0;
    for (size_t v = 0; v < viewers.size(); ++v) {
        const Image *prev[2] = {nullptr, nullptr};
        for (int k = 0; k < kOrbitPoses; ++k) {
            const Image &img = first[v * kOrbitPoses + size_t(k)].image;
            bytes += double(net::encodeFramePayload(
                                img, net::FrameEncoding::DeltaPrev,
                                prev[k % 2])
                                .size());
            prev[k % 2] = &img;
        }
    }
    bytes /= double(first.size());
    const double mean_psnr = mean(psnr_db);
    r.check(mean_psnr >= kPsnrFloorDb,
            "mean PSNR " + std::to_string(mean_psnr) + " dB below the " +
                std::to_string(kPsnrFloorDb) + " dB floor");
    // One seed-chosen frame per viewer against the scalar reference path
    // (eval_batch = 1, row order, one thread): bit-identical frames.
    for (size_t v = 0; v < viewers.size(); ++v) {
        const int k = int(nextRandom(rng) % kOrbitPoses);
        const Shot &shot = viewers[v].shots[size_t(k)];
        core::RenderConfig scfg = shot.scene->renderer->config();
        scfg.eval_batch = 1;
        scfg.morton_order = 0;
        scfg.num_threads = 1;
        core::AsdrRenderer scalar(*shot.scene->field, scfg);
        r.check(sameBits(first[v * kOrbitPoses + size_t(k)].image,
                         scalar.render(shot.camera)),
                "engine frame differs from the scalar reference (viewer " +
                    std::to_string(v) + ", frame " + std::to_string(k) + ")");
    }

    std::cerr << "perfbench: render_orbit set-up " << setup_s << " s, "
              << pass_s.size() << " passes in " << run_wall_s
              << " s, checks "
              << secondsBetween(checks_start, Clock::now()) << " s\n";
    if (!opt.trace) {
        r.set("frames_per_s", double(kViewers * kOrbitPoses) / median(pass_s),
              "1/s");
        r.set("psnr_db", mean_psnr, "dB");
        setLatencyMetrics(r, lat, median(pass_tail_ms));
        r.set("bytes_per_frame", bytes, "bytes");
        r.set("setup_s", setup_s, "s");
        r.set("peak_rss_mb", rss_mb, "MB");
        return r;
    }

    // ---- per-layer split (traced passes only) ----
    const double nf = traced_frames ? double(traced_frames) : 1.0;
    TimedField::Counters c;
    for (FittedScene &s : scenes) {
        const TimedField::Counters sc = s.timed->counters();
        c.density_calls += sc.density_calls;
        c.density_points += sc.density_points;
        c.density_ns += sc.density_ns;
        c.color_points += sc.color_points;
        c.color_ns += sc.color_ns;
    }
    // The replay runs the recorded batches of each scene through that
    // scene's own grid and MLP; shares are weighted by recorded points.
    double share = 0.0, share_w = 0.0;
    for (FittedScene &s : scenes) {
        const std::vector<TimedField::Batch> b = s.timed->sampledBatches();
        double pts = 0.0;
        for (const TimedField::Batch &x : b)
            pts += double(x.size());
        share += encodeShare(*s.field, b) * pts;
        share_w += pts;
    }
    share = share_w > 0.0 ? share / share_w : 0.0;
    const double density_s = double(c.density_ns) * 1e-9 / nf;
    r.set("nerf.density_calls", double(c.density_calls) / nf, "count/frame");
    r.set("nerf.density_points", double(c.density_points) / nf,
          "count/frame");
    r.set("nerf.density_s", density_s, "s/frame");
    r.set("nerf.color_points", double(c.color_points) / nf, "count/frame");
    r.set("nerf.color_s", double(c.color_ns) * 1e-9 / nf, "s/frame");
    r.set("nerf.encode_s", density_s * share, "s/frame");
    r.set("nerf.density_mlp_s", density_s * (1.0 - share), "s/frame");
    setCoreStageMetrics(r, split, traced_frames);
    r.set("core.probe_rays", double(traced_profile.probe_rays) / nf,
          "count/frame");
    r.set("core.samples_budgeted", traced_budgeted / nf, "count/frame");
    r.set("core.samples_marched", traced_marched / nf, "count/frame");
    r.set("core.color_execs", double(traced_profile.color_execs) / nf,
          "count/frame");
    r.set("core.marched_per_budgeted",
          traced_budgeted > 0.0 ? traced_marched / traced_budgeted : 0.0,
          "ratio");
    r.set("engine.wait_ms", mean(wait_ms), "ms");
    r.set("engine.frame_ms", mean(frame_ms), "ms");
    std::vector<double> extent;
    for (const auto &e : split.frame_extent_ms)
        extent.push_back(e.second);
    r.set("engine.span_extent_ms", mean(extent), "ms");
    r.set("engine.overlap", busy_s / traced_wall_s, "ratio");
    r.set("trace.overhead_pct",
          (median(traced_pass_s) / median(untraced_pass_s) - 1.0) * 100.0,
          "%");

    // The traced stage time must agree with the engine's own clock: no
    // frame's span extent exceeds its start-to-finish time by more than
    // 1 ms, and on average the extent covers at least 75% of it (the
    // rest is an admitted frame waiting for its first task behind
    // higher-priority frames).
    const double mean_gap = mean(extent_err_ms);
    std::cerr << "perfbench: traced frame time vs engine start-to-finish: "
              << "mean gap " << mean_gap << " ms of " << mean(frame_ms)
              << " ms, min gap " << percentile(extent_err_ms, 0.0)
              << " ms over " << extent_err_ms.size() << " frames\n";
    r.check(extent_err_ms.size() == traced_frames,
            "a traced frame recorded no stage spans");
    r.check(percentile(extent_err_ms, 0.0) >= -1.0,
            "a frame's stage spans outlast its engine start-to-finish time");
    r.check(mean_gap <= 0.25 * mean(frame_ms),
            "traced stage time covers under 75% of engine frame time");
    return r;
}

} // namespace perfbench
