/**
 * @file
 * What the two serving workloads (serve_open, wire_stream) share: the
 * procedural scene catalog and server configuration, viewer poses, the
 * post-run output checks on kept frames, and the serving per-layer
 * metrics.
 */

#ifndef PERFBENCH_SERVING_HPP
#define PERFBENCH_SERVING_HPP

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "core/renderer.hpp"
#include "nerf/camera.hpp"
#include "server/frame_server.hpp"
#include "server/scene_registry.hpp"

namespace perfbench {

/** Frame size and samples per ray of every serving viewer. */
constexpr int kServeSize = 48;
constexpr int kServeSamples = 64;

/** Server shape of both serving workloads: 1 shard, 2 workers,
 *  2 frames in flight, default QoS, no sample cache. */
server::ServerConfig servingServerConfig();

/** Camera at orbit angle `angle_rad` around a registered scene, built
 *  from the same parameters a wire CameraSpec carries. */
nerf::Camera orbitCamera(const server::SceneEntry &e, float angle_rad);

/** Pose `u` in [0, 1) of viewer `v`'s own range of orbit angles
 *  (viewers never share a range). */
nerf::Camera viewerPose(const server::SceneEntry &e, int v, float u);

/** A served frame kept for the post-run checks. */
struct KeptFrame
{
    int viewer = 0;
    std::string scene;
    nerf::Camera camera;
    const Image *image = nullptr;
};

struct FrameChecks
{
    double mean_psnr_db = 0.0;
    /** Mean DeltaPrev payload of the kept frames, each viewer's frames
     *  encoded in order against its previous kept frame. */
    double delta_bytes_per_frame = 0.0;
    /** RenderStats of the direct renders, summed: the served frames'
     *  sample accounting (the frames are bit-identical). */
    core::WorkloadProfile profile;
    double budgeted = 0.0, marched = 0.0;
};

class ServingSetup
{
  public:
    server::SceneRegistry registry;

    /** Register the procedural scenes Lego, Mic and Fox. */
    void build();

    /**
     * Check kept frames against two independent references: bitwise
     * equality with a direct AsdrRenderer::render of the same camera
     * outside the serving stack, and PSNR against the analytic ground
     * truth (core::renderGroundTruth).
     */
    FrameChecks checkFrames(const std::vector<KeptFrame> &frames,
                            RunResult &r);
};

/** Per-class outcome counts a workload kept itself: submitted, served,
 *  dropped, failed, expired (the ServerStats order). */
using ClassCounts = uint64_t[server::kQosClasses][5];

/** Check the workload's own counts against the ServerStats deltas. */
void checkClassCounts(RunResult &r, const ClassCounts &mine,
                      const server::ServerStatsSnapshot &before,
                      const server::ServerStatsSnapshot &after);

/** Per-layer metrics both serving workloads derive the same way. */
struct ServingLayerInputs
{
    const SpanSplit *split = nullptr;
    /** QoS class index per ticket, for the queue-wait spans. */
    const std::unordered_map<uint64_t, int> *ticket_class = nullptr;
    core::WorkloadProfile profile; ///< summed over served frames
    double budgeted = 0.0, marched = 0.0;
    uint64_t served = 0;
    std::vector<double> wait_ms, frame_ms;
    double overlap = 0.0;
    server::ServerStatsSnapshot before, after;
};

void setServingLayerMetrics(RunResult &r, const ServingLayerInputs &in);

} // namespace perfbench

#endif // PERFBENCH_SERVING_HPP
