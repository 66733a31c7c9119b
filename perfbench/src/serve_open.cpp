// serve_open: an open loop against an in-process server::FrameServer
// (1 shard, 2 workers, default QoS). Interactive, standard and batch
// viewers on procedural scenes each submit on their own seeded Poisson
// schedule, at a fixed total rate of about half the server's capacity.
// Every viewer looks at its own range of orbit poses. Latency runs from
// each frame's due time, so a stalled generator shows up as latency;
// the generator's own lateness is reported as load.late_p99_ms.
// Procedural fields run no hash grid or MLP: QoS admission, queueing
// and delivery dominate, with many small frames from many sessions.

#include <algorithm>
#include <iostream>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench_math.hpp"
#include "common.hpp"
#include "serving.hpp"

namespace perfbench {

namespace {

// Offered load: 4 interactive viewers x 8.5 + 4 standard x 4 + 4 batch
// x 2.5 = 60 frames/s, about a quarter of what 2 workers serve at 48x48
// and 64 samples per ray. At half capacity the class latencies moved by
// 20-35% between runs on a shared host (queueing amplifies every shift
// in host speed); at a quarter they track the service time. 34
// interactive frames/s give the 30-second run over 1000 samples, so
// its p99 has ten beyond it. Spreading each class over four viewers
// keeps every viewer's Poisson bursts inside its class backlog, so no
// frame is dropped.
struct OpenViewer
{
    const char *scene;
    server::QosClass qos;
    double rate_per_s;
};
constexpr OpenViewer kViewers[] = {
    {"Lego", server::QosClass::Interactive, 8.5},
    {"Hotdog", server::QosClass::Interactive, 8.5},
    {"Chair", server::QosClass::Interactive, 8.5},
    {"Lego", server::QosClass::Interactive, 8.5},
    {"Hotdog", server::QosClass::Standard, 4.0},
    {"Chair", server::QosClass::Standard, 4.0},
    {"Lego", server::QosClass::Standard, 4.0},
    {"Hotdog", server::QosClass::Standard, 4.0},
    {"Chair", server::QosClass::Batch, 2.5},
    {"Lego", server::QosClass::Batch, 2.5},
    {"Hotdog", server::QosClass::Batch, 2.5},
    {"Chair", server::QosClass::Batch, 2.5},
};
constexpr int kNumViewers = int(sizeof(kViewers) / sizeof(kViewers[0]));
constexpr int kWarmupRounds = 10;
// One kept frame per this many tickets, for the post-run checks.
constexpr uint64_t kKeepEvery = 16;
// Traced runs alternate untraced and traced slices of the schedule.
constexpr double kTraceSliceS = 1.0;

struct Arrival
{
    double due_s = 0.0;
    int viewer = 0;
    nerf::Camera camera;
};

struct Delivery
{
    Clock::time_point at;
    int status = 0; ///< 0 served, 1 dropped, 2 failed, 3 expired
    int count = 0;  ///< terminal results seen for the ticket
    Clock::time_point started, finished, engine_submitted;
    core::WorkloadProfile profile;
    double budgeted = 0.0, marched = 0.0;
};

} // namespace

RunResult
runServeOpen(const Options &opt)
{
    RunResult r;
    r.idle_layers = {"nerf.", "net."};

    ServingSetup setup;
    setup.build();

    // Declared before the server, which must not outlive what its
    // delivery callbacks write to.
    std::mutex m;
    std::unordered_map<uint64_t, Delivery> deliveries;
    std::unordered_map<uint64_t, Image> kept;
    server::FrameServer server(setup.registry, servingServerConfig());
    std::vector<uint64_t> clients(kNumViewers);
    for (int v = 0; v < kNumViewers; ++v) {
        clients[size_t(v)] = server.openSession(
            kViewers[v].scene, kViewers[v].qos, {},
            [&](server::FrameResult &&res) {
                const Clock::time_point now = Clock::now();
                Delivery d;
                d.at = now;
                d.status = res.ok() ? 0
                           : res.dropped ? 1
                           : res.expired ? 3
                                         : 2;
                d.started = res.frame.started_at;
                d.finished = res.frame.finished_at;
                d.engine_submitted = res.frame.submitted_at;
                if (res.ok()) {
                    d.profile = res.frame.stats.profile;
                    for (float b : res.frame.stats.sample_count_map)
                        d.budgeted += b;
                    for (float x : res.frame.stats.actual_points_map)
                        d.marched += x;
                }
                std::lock_guard<std::mutex> lock(m);
                Delivery &slot = deliveries[res.ticket];
                const int seen = slot.count;
                slot = d;
                slot.count = seen + 1;
                if (res.ok() && res.ticket % kKeepEvery == 0)
                    kept[res.ticket] = std::move(res.frame.image);
            });
        r.check(clients[size_t(v)] != 0, "openSession refused");
    }

    // Warm-up: a fixed number of rounds, one frame per viewer each.
    for (int round = 0; round < kWarmupRounds; ++round) {
        for (int v = 0; v < kNumViewers; ++v) {
            const server::SceneEntry *e =
                setup.registry.find(kViewers[v].scene);
            server.submitFrame(clients[size_t(v)],
                               viewerPose(*e, v, 0.5f));
        }
        server.waitIdle();
    }
    {
        std::lock_guard<std::mutex> lock(m);
        deliveries.clear();
        kept.clear();
    }

    // The seeded schedule: per-viewer Poisson arrivals over the run,
    // each at a seeded pose inside the viewer's own pose range.
    std::vector<Arrival> schedule;
    for (int v = 0; v < kNumViewers; ++v) {
        const server::SceneEntry *e = setup.registry.find(kViewers[v].scene);
        uint64_t pose_rng = streamSeed(opt.seed, 100 + uint64_t(v));
        for (double t : poissonArrivals(streamSeed(opt.seed, uint64_t(v)),
                                        kViewers[v].rate_per_s,
                                        opt.seconds))
            schedule.push_back(
                {t, v, viewerPose(*e, v, float(nextUnit(pose_rng)))});
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const Arrival &a, const Arrival &b) {
                         return a.due_s < b.due_s;
                     });

    const server::ServerStatsSnapshot before = server.stats();
    const double setup_s = secondsBetween(processStart(), Clock::now());

    // ---- timed open loop (this thread is the one load generator) ----
    std::vector<uint64_t> tickets(schedule.size(), 0);
    std::vector<Clock::time_point> submitted(schedule.size());
    std::vector<double> submit_us, late_ms;
    submit_us.reserve(schedule.size());
    late_ms.reserve(schedule.size());
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
    auto due = [&](size_t i) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(schedule[i].due_s));
    };
    for (size_t i = 0; i < schedule.size(); ++i) {
        if (opt.trace)
            telemetry::setEnabled(int(schedule[i].due_s / kTraceSliceS) % 2 ==
                                  1);
        std::this_thread::sleep_until(due(i));
        const Clock::time_point s0 = Clock::now();
        tickets[i] = server.submitFrame(clients[size_t(schedule[i].viewer)],
                                        schedule[i].camera);
        const Clock::time_point s1 = Clock::now();
        submitted[i] = s0;
        submit_us.push_back(std::chrono::duration<double, std::micro>(s1 - s0)
                                .count());
        late_ms.push_back(msBetween(due(i), s0));
    }
    server.waitIdle();
    telemetry::setEnabled(false);
    const double rss_mb = peakRssMb();
    const server::ServerStatsSnapshot after = server.stats();

    // ---- accounting checks ----
    uint64_t mine[server::kQosClasses][5] = {}; // sub, served, drop, fail, exp
    Latencies lat; // due time to delivery; .all: submit to delivery
    std::vector<double> lat_traced, lat_untraced;
    std::vector<double> wait_ms, frame_ms;
    double busy_s = 0.0, budgeted = 0.0, marched = 0.0;
    core::WorkloadProfile prof;
    uint64_t served = 0;
    Clock::time_point last_delivery = t0;
    std::unordered_map<uint64_t, int> ticket_class;
    for (size_t i = 0; i < schedule.size(); ++i) {
        const int c = int(kViewers[schedule[i].viewer].qos);
        r.attempted++;
        mine[c][0]++;
        r.check(tickets[i] != 0, "submitFrame refused a ticket");
        auto it = deliveries.find(tickets[i]);
        if (it == deliveries.end() || it->second.count != 1) {
            r.check(false, "ticket " + std::to_string(tickets[i]) +
                               " did not get exactly one result");
            r.failed++;
            continue;
        }
        const Delivery &d = it->second;
        ticket_class[tickets[i]] = c;
        mine[c][1 + d.status]++;
        if (d.status != 0) {
            r.failed++;
            continue;
        }
        served++;
        const double ms = msBetween(due(i), d.at);
        lat.cls[c].push_back(ms);
        lat.all.push_back(msBetween(submitted[i], d.at));
        (int(schedule[i].due_s / kTraceSliceS) % 2 == 1 ? lat_traced
                                                        : lat_untraced)
            .push_back(ms);
        wait_ms.push_back(msBetween(d.engine_submitted, d.started));
        frame_ms.push_back(msBetween(d.started, d.finished));
        busy_s += msBetween(d.started, d.finished) * 1e-3;
        budgeted += d.budgeted;
        marched += d.marched;
        prof.merge(d.profile);
        last_delivery = std::max(last_delivery, d.at);
    }
    r.check(deliveries.size() == schedule.size(),
            "results arrived for tickets that were never submitted");
    checkClassCounts(r, mine, before, after);

    // ---- output checks on the kept frames ----
    std::vector<KeptFrame> check_frames;
    for (size_t i = 0; i < schedule.size(); ++i) {
        auto it = kept.find(tickets[i]);
        if (it != kept.end())
            check_frames.push_back({schedule[i].viewer,
                                    kViewers[schedule[i].viewer].scene,
                                    schedule[i].camera, &it->second});
    }
    const FrameChecks fc = setup.checkFrames(check_frames, r);

    const double wall_s = secondsBetween(t0, last_delivery);
    if (!opt.trace) {
        r.set("frames_per_s", double(served) / wall_s, "1/s");
        r.set("psnr_db", fc.mean_psnr_db, "dB");
        setLatencyMetrics(r, lat, percentile(lat.cls[0], 0.99));
        r.set("bytes_per_frame", fc.delta_bytes_per_frame, "bytes");
        r.set("setup_s", setup_s, "s");
        r.set("peak_rss_mb", rss_mb, "MB");
        std::cerr << "perfbench: serve_open " << schedule.size()
                  << " frames offered, generator late p99 "
                  << percentile(late_ms, 0.99) << " ms\n";
        return r;
    }

    SpanSplit split;
    collectSpans(split);
    ServingLayerInputs in;
    in.split = &split;
    in.ticket_class = &ticket_class;
    in.profile = prof;
    in.budgeted = budgeted;
    in.marched = marched;
    in.served = served;
    in.wait_ms = std::move(wait_ms);
    in.frame_ms = std::move(frame_ms);
    in.overlap = busy_s / wall_s;
    in.before = before;
    in.after = after;
    setServingLayerMetrics(r, in);
    r.set("server.submit_us", mean(submit_us), "us");
    r.set("load.late_p99_ms", percentile(late_ms, 0.99), "ms");
    r.set("trace.overhead_pct",
          (median(lat_traced) / median(lat_untraced) - 1.0) * 100.0, "%");
    return r;
}

} // namespace perfbench
