// wire_stream: a loopback net::RenderService over a FrameServer (1
// shard, 2 workers), driven in a closed loop by three net::Client
// connections, one thread each. Every connection carries four DeltaPrev
// sessions, each with one frame outstanding; four sessions per QoS
// class, and every session renders the same fixed number of poses per
// pass. Half of the twelve sessions request, pose for pose,
// an orbit another session on another connection also requests -- the
// only workload where viewers share work. The net layer (protocol,
// codec, poll loop, client decode) runs here and nowhere else.

#include <atomic>
#include <condition_variable>
#include <iostream>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench_math.hpp"
#include "common.hpp"
#include "net/client.hpp"
#include "net/render_service.hpp"
#include "serving.hpp"

namespace perfbench {

namespace {

constexpr int kConnections = 3;
constexpr int kSessionsPerConnection = 4;
constexpr int kSessions = kConnections * kSessionsPerConnection;
// Distinct orbits: sessions 9..11 repeat the orbits of sessions 0..2,
// which live on another connection.
constexpr int kOrbits = 9;
constexpr int kPosesPerPass = 8;
constexpr int kWarmupPoses = kPosesPerPass;
constexpr float kOrbitStepRad = 0.05f;
const char *const kOrbitScenes[] = {"Lego", "Hotdog", "Chair"};

int
orbitOf(int session)
{
    return session < kOrbits ? session : session - kOrbits;
}

/** Classes rotate against scenes (orbit o views scene o % 3), so every
 *  class holds one session of each scene plus one more. */
server::QosClass
classOf(int session)
{
    return server::QosClass((session + session / 3) % server::kQosClasses);
}

/** One received frame, as the client saw it. */
struct Received
{
    int session = 0;
    int pose = 0;
    uint64_t ticket = 0;
    net::FrameStatus status = net::FrameStatus::Ok;
    double rtt_ms = 0.0;
    double server_ms = 0.0; ///< server-side submit -> delivery
    double wait_ms = 0.0;   ///< time inside Client::nextFrame
    double submit_ms = 0.0; ///< the Client::submitFrame call (to its ack)
    /** Submitted after some session had finished its pass: the server
     *  was no longer shared by all twelve sessions. */
    bool tail = false;
    size_t payload_bytes = 0;
    Image image;
};

/** One connection: a client and its four sessions, driven from its
 *  own thread one pass at a time. */
class Connection
{
  public:
    Connection(int index, const std::vector<std::vector<net::CameraSpec>> &o)
        : index_(index), orbits_(o)
    {
    }

    bool open(uint16_t port, std::string &err)
    {
        if (!client_.connect("127.0.0.1", port, &err))
            return false;
        for (int k = 0; k < kSessionsPerConnection; ++k) {
            const int s = index_ * kSessionsPerConnection + k;
            const uint64_t id = client_.openSession(
                kOrbitScenes[orbitOf(s) % 3], classOf(s),
                net::FrameEncoding::DeltaPrev, &err);
            if (id == 0)
                return false;
            session_ids_.push_back(id);
        }
        return true;
    }

    /**
     * Render `poses` poses on every session, closed loop: each session
     * has one frame outstanding and submits its next pose when the
     * previous result arrives. `tail` is shared by all connections: the
     * first session to finish its poses raises it, and frames submitted
     * after that are flagged. False on any client error.
     */
    bool runPass(int poses, bool keep_images, std::atomic<bool> &tail,
                 std::vector<Received> &out, std::string &err)
    {
        struct Pending
        {
            int k = 0, pose = 0;
            Clock::time_point sent;
            double submit_ms = 0.0;
            bool tail = false;
        };
        std::unordered_map<uint64_t, Pending> pending;
        std::vector<int> next(kSessionsPerConnection, 0);
        auto submit = [&](int k) {
            const int s = index_ * kSessionsPerConnection + k;
            const int pose = next[size_t(k)]++;
            const bool late = tail.load();
            const Clock::time_point sent = Clock::now();
            const uint64_t t = client_.submitFrame(
                session_ids_[size_t(k)],
                orbits_[size_t(orbitOf(s))][size_t(pose)], &err);
            if (t != 0)
                pending[t] = {k, pose, sent, msBetween(sent, Clock::now()),
                              late};
            return t != 0;
        };
        for (int k = 0; k < kSessionsPerConnection; ++k)
            if (!submit(k))
                return false;
        while (!pending.empty()) {
            net::ClientFrame cf;
            const Clock::time_point w0 = Clock::now();
            if (!client_.nextFrame(cf, &err))
                return false;
            const Clock::time_point got = Clock::now();
            auto it = pending.find(cf.ticket);
            if (it == pending.end()) {
                err = "result for unknown ticket " + std::to_string(cf.ticket);
                return false;
            }
            const Pending p = it->second;
            pending.erase(it);
            Received rec;
            rec.session = index_ * kSessionsPerConnection + p.k;
            rec.pose = p.pose;
            rec.ticket = cf.ticket;
            rec.status = cf.status;
            rec.rtt_ms = msBetween(p.sent, got);
            rec.server_ms = cf.latency_ms;
            rec.wait_ms = msBetween(w0, got);
            rec.submit_ms = p.submit_ms;
            rec.tail = p.tail;
            rec.payload_bytes = cf.payload_bytes;
            if (keep_images && cf.ok())
                rec.image = std::move(cf.image);
            out.push_back(std::move(rec));
            if (next[size_t(p.k)] == poses)
                tail.store(true);
            else if (!submit(p.k))
                return false;
        }
        return true;
    }

    const net::ClientTransferStats &transfer() const
    {
        return client_.transfer();
    }

    void close() { client_.disconnect(); }

  private:
    const int index_;
    const std::vector<std::vector<net::CameraSpec>> &orbits_;
    net::Client client_;
    std::vector<uint64_t> session_ids_;
};

} // namespace

RunResult
runWireStream(const Options &opt)
{
    RunResult r;
    r.idle_layers = {"nerf.", "load."};

    ServingSetup setup;
    setup.build();
    server::FrameServer server(setup.registry, servingServerConfig());
    net::RenderService service(server);
    std::string err;
    if (!service.start(&err)) {
        r.check(false, "render service did not start: " + err);
        return r;
    }

    // Orbit o starts at a seeded phase, spread a ninth of a turn apart.
    uint64_t rng = streamSeed(opt.seed, 0);
    const float phase = float(nextUnit(rng)) * 2.0f * 3.14159265f;
    std::vector<std::vector<net::CameraSpec>> orbits(kOrbits);
    for (int o = 0; o < kOrbits; ++o) {
        const server::SceneEntry *e = setup.registry.find(kOrbitScenes[o % 3]);
        for (int p = 0; p < kPosesPerPass; ++p) {
            const float a = phase + float(o) * 2.0f * 3.14159265f / kOrbits +
                            kOrbitStepRad * float(p);
            net::CameraSpec cs;
            cs.pos = nerf::orbitPosition(e->info, a);
            cs.look_at = e->info.look_at;
            cs.up = Vec3(0.0f, 1.0f, 0.0f);
            cs.fov_deg = e->info.fov_deg;
            cs.width = uint16_t(kServeSize);
            cs.height = uint16_t(kServeSize);
            orbits[size_t(o)].push_back(cs);
        }
    }

    std::vector<std::unique_ptr<Connection>> conns;
    for (int c = 0; c < kConnections; ++c) {
        conns.push_back(std::make_unique<Connection>(c, orbits));
        if (!conns.back()->open(service.port(), err)) {
            r.check(false, "client set-up failed: " + err);
            service.stop();
            return r;
        }
    }

    // One thread per connection; the main thread starts each pass and
    // waits for all three to finish it.
    std::mutex m;
    std::condition_variable cv;
    int pass_no = -1, done = 0;
    int pass_poses = 0;
    bool pass_keep = false, stop = false, broken = false;
    std::atomic<bool> tail{false};
    std::vector<std::vector<Received>> got(kConnections);
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c)
        threads.emplace_back([&, c] {
            int seen = -1;
            for (;;) {
                int poses = 0;
                bool keep = false;
                {
                    std::unique_lock<std::mutex> lock(m);
                    cv.wait(lock, [&] { return stop || pass_no != seen; });
                    if (stop)
                        return;
                    seen = pass_no;
                    poses = pass_poses;
                    keep = pass_keep;
                }
                std::string e;
                std::vector<Received> out;
                const bool ok =
                    conns[size_t(c)]->runPass(poses, keep, tail, out, e);
                std::lock_guard<std::mutex> lock(m);
                if (!ok) {
                    broken = true;
                    std::cerr << "perfbench: connection " << c << ": " << e
                              << "\n";
                }
                got[size_t(c)] = std::move(out);
                ++done;
                cv.notify_all();
            }
        });
    auto runPass = [&](int poses, bool keep) {
        const Clock::time_point t0 = Clock::now();
        std::unique_lock<std::mutex> lock(m);
        pass_poses = poses;
        pass_keep = keep;
        done = 0;
        tail.store(false);
        ++pass_no;
        cv.notify_all();
        cv.wait(lock, [&] { return done == kConnections; });
        return secondsBetween(t0, Clock::now());
    };

    runPass(kWarmupPoses, false);
    const server::ServerStatsSnapshot before = server.stats();
    const net::WireCounters wire_before = service.counters();
    const double setup_s = secondsBetween(processStart(), Clock::now());

    // ---- timed passes ----
    std::vector<double> pass_s, traced_s, untraced_s;
    std::vector<Received> all;
    SpanSplit split;
    const Clock::time_point run_start = Clock::now();
    for (int pass = 0;; ++pass) {
        const bool traced = opt.trace && pass % 2 == 1;
        telemetry::setEnabled(traced);
        const double wall = runPass(kPosesPerPass, false);
        telemetry::setEnabled(false);
        if (traced)
            collectSpans(split);
        pass_s.push_back(wall);
        (traced ? traced_s : untraced_s).push_back(wall);
        for (std::vector<Received> &g : got)
            for (Received &rec : g)
                all.push_back(std::move(rec));
        if (broken)
            break;
        const bool enough =
            !opt.trace || (!traced_s.empty() && !untraced_s.empty());
        if (enough && secondsBetween(run_start, Clock::now()) >= opt.seconds)
            break;
    }
    const double rss_mb = peakRssMb();
    const server::ServerStatsSnapshot after = server.stats();
    const net::WireCounters wire_after = service.counters();

    // One more pass, outside the timed region, whose decoded frames
    // feed the output checks.
    std::vector<KeptFrame> kept;
    std::vector<Received> check_pass;
    if (!broken) {
        runPass(kPosesPerPass, true);
        for (std::vector<Received> &g : got)
            for (Received &rec : g)
                check_pass.push_back(std::move(rec));
        for (const Received &rec : check_pass)
            if (rec.status == net::FrameStatus::Ok)
                kept.push_back({rec.session,
                                kOrbitScenes[orbitOf(rec.session) % 3],
                                orbits[size_t(orbitOf(rec.session))]
                                      [size_t(rec.pose)]
                                          .toCamera(),
                                &rec.image});
    }
    {
        std::lock_guard<std::mutex> lock(m);
        stop = true;
        cv.notify_all();
    }
    for (std::thread &t : threads)
        t.join();
    r.check(!broken, "a client connection failed");

    const FrameChecks fc = setup.checkFrames(kept, r);
    uint64_t client_payload = 0, client_frames = 0, client_raw = 0;
    for (auto &c : conns) {
        client_payload += c->transfer().payload_bytes;
        client_frames += c->transfer().frames;
        client_raw += c->transfer().raw_bytes;
    }
    const net::WireCounters wire_end = service.counters();
    r.check(client_payload == wire_end.frame_payload_bytes,
            "client payload bytes " + std::to_string(client_payload) +
                " != service frame_payload_bytes " +
                std::to_string(wire_end.frame_payload_bytes));
    r.check(client_frames == wire_end.frames_sent,
            "client frames " + std::to_string(client_frames) +
                " != service frames_sent " +
                std::to_string(wire_end.frames_sent));
    for (auto &c : conns)
        c->close();
    service.stop();

    // ---- accounting ----
    uint64_t mine[server::kQosClasses][5] = {};
    std::unordered_map<uint64_t, int> per_ticket, ticket_class;
    Latencies rtt;
    std::vector<double> wait_ms, overhead_ms, submit_us;
    double payload = 0.0;
    uint64_t served = 0;
    for (const Received &rec : all) {
        const int c = int(classOf(rec.session));
        r.attempted++;
        mine[c][0]++;
        per_ticket[rec.ticket]++;
        ticket_class[rec.ticket] = c;
        submit_us.push_back(rec.submit_ms * 1e3);
        // A shed result was served by the server; only its wire payload
        // was dropped (still a failed operation for the viewer).
        const int k =
            rec.status == net::FrameStatus::Ok ||
                    rec.status == net::FrameStatus::Shed
                ? 1
            : rec.status == net::FrameStatus::Dropped          ? 2
            : rec.status == net::FrameStatus::DeadlineExceeded ? 4
                                                               : 3;
        mine[c][k]++;
        if (rec.status != net::FrameStatus::Ok) {
            r.failed++;
            continue;
        }
        served++;
        // Latency percentiles describe the shared server: frames
        // submitted once a session had finished its pass are left out.
        if (!rec.tail) {
            rtt.cls[c].push_back(rec.rtt_ms);
            rtt.all.push_back(rec.rtt_ms);
        }
        wait_ms.push_back(rec.wait_ms);
        overhead_ms.push_back(rec.rtt_ms - rec.server_ms);
        payload += double(rec.payload_bytes);
    }
    for (const auto &t : per_ticket)
        r.check(t.second == 1, "ticket " + std::to_string(t.first) +
                                   " got more than one result");
    checkClassCounts(r, mine, before, after);

    const double frames_per_pass = double(kSessions * kPosesPerPass);
    if (!opt.trace) {
        r.set("frames_per_s", frames_per_pass / median(pass_s), "1/s");
        r.set("psnr_db", fc.mean_psnr_db, "dB");
        setLatencyMetrics(r, rtt, percentile(rtt.cls[0], 0.99));
        r.set("bytes_per_frame", served ? payload / double(served) : 0.0,
              "bytes");
        r.set("setup_s", setup_s, "s");
        r.set("peak_rss_mb", rss_mb, "MB");
        std::cerr << "perfbench: wire_stream " << pass_s.size()
                  << " passes, median " << median(pass_s) << " s\n";
        return r;
    }

    // Per-layer split: spans from the traced passes; client-side
    // timings from every timed pass. The wire carries no RenderStats or
    // engine timestamps, so sample counts come from the direct renders
    // of the checked frames (bit-identical, so identical counts) and
    // engine times from the stage spans.
    ServingLayerInputs in;
    in.split = &split;
    in.ticket_class = &ticket_class;
    in.profile = fc.profile;
    in.budgeted = fc.budgeted;
    in.marched = fc.marched;
    in.served = kept.size();
    for (const auto &w : split.engine_wait_ms)
        in.wait_ms.push_back(w.second);
    double extent_ms = 0.0;
    for (const auto &e : split.frame_extent_ms) {
        in.frame_ms.push_back(e.second);
        extent_ms += e.second;
    }
    double traced_wall_s = 0.0;
    for (double s : traced_s)
        traced_wall_s += s;
    in.overlap = extent_ms * 1e-3 / traced_wall_s;
    in.before = before;
    in.after = after;
    setServingLayerMetrics(r, in);
    auto spanMeanMs = [&](const char *name) {
        auto n = split.count.find(name);
        auto s = split.total_s.find(name);
        return n == split.count.end() ? 0.0
                                      : s->second * 1e3 / double(n->second);
    };
    r.set("net.encode_ms", spanMeanMs(telemetry::kSpanEncode), "ms");
    r.set("net.flush_ms", spanMeanMs(telemetry::kSpanFlush), "ms");
    r.set("net.payload_bytes", served ? payload / double(served) : 0.0,
          "bytes/frame");
    r.set("net.compression",
          client_payload ? double(client_raw) / double(client_payload) : 0.0,
          "ratio");
    r.set("net.client_wait_ms", mean(wait_ms), "ms");
    r.set("net.overhead_ms", mean(overhead_ms), "ms");
    r.set("net.results_shed",
          double(wire_after.results_shed - wire_before.results_shed),
          "count");
    r.set("server.submit_us", mean(submit_us), "us");
    r.set("trace.overhead_pct",
          (median(traced_s) / median(untraced_s) - 1.0) * 100.0, "%");
    return r;
}

} // namespace perfbench
