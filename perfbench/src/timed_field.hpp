/**
 * @file
 * The benchmark's probe on the nerf layer: a RadianceField that
 * delegates every call to a fitted InstantNgpField and, while armed,
 * times density and color evaluation, counts points, records one
 * telemetry span per call (so stage self times can subtract it) and
 * keeps a sample of density batches for the encode/MLP replay.
 * Frames rendered through it are bit-identical to the wrapped field's.
 */

#ifndef PERFBENCH_TIMED_FIELD_HPP
#define PERFBENCH_TIMED_FIELD_HPP

#include <atomic>
#include <mutex>
#include <vector>

#include "common.hpp"
#include "nerf/ngp_field.hpp"

namespace perfbench {

class TimedField : public nerf::RadianceField
{
  public:
    explicit TimedField(const nerf::InstantNgpField &inner) : inner_(inner) {}

    /** Arm or disarm timing; disarmed calls only delegate. */
    void setArmed(bool on) { armed_.store(on, std::memory_order_relaxed); }

    struct Counters
    {
        uint64_t density_calls = 0;
        uint64_t density_points = 0;
        uint64_t density_ns = 0;
        uint64_t color_points = 0;
        uint64_t color_ns = 0;
    };
    Counters counters() const
    {
        Counters c;
        c.density_calls = density_calls_.load();
        c.density_points = density_points_.load();
        c.density_ns = density_ns_.load();
        c.color_points = color_points_.load();
        c.color_ns = color_ns_.load();
        return c;
    }

    /** One recorded density batch (positions only). */
    using Batch = std::vector<Vec3>;
    /** The sampled density batches, for the encode/MLP replay. */
    std::vector<Batch> sampledBatches() const
    {
        std::lock_guard<std::mutex> lock(sample_m_);
        return samples_;
    }

    nerf::DensityOutput density(const Vec3 &pos) const override
    {
        if (!armed())
            return inner_.density(pos);
        const Clock::time_point t0 = Clock::now();
        nerf::DensityOutput d = inner_.density(pos);
        noteDensity(t0, 1);
        return d;
    }

    Vec3 color(const Vec3 &pos, const Vec3 &dir,
               const nerf::DensityOutput &den) const override
    {
        if (!armed())
            return inner_.color(pos, dir, den);
        const Clock::time_point t0 = Clock::now();
        Vec3 c = inner_.color(pos, dir, den);
        noteColor(t0, 1);
        return c;
    }

    void densityBatch(const Vec3 *pos, int count,
                      nerf::DensityOutput *out) const override
    {
        if (!armed()) {
            inner_.densityBatch(pos, count, out);
            return;
        }
        const Clock::time_point t0 = Clock::now();
        inner_.densityBatch(pos, count, out);
        const uint64_t call = noteDensity(t0, count);
        if (call % kSampleEvery == 0)
            keepSample(pos, count);
    }

    void colorBatch(const Vec3 *pos, const Vec3 &dir,
                    const nerf::DensityOutput *den, int count,
                    Vec3 *out) const override
    {
        if (!armed()) {
            inner_.colorBatch(pos, dir, den, count, out);
            return;
        }
        const Clock::time_point t0 = Clock::now();
        inner_.colorBatch(pos, dir, den, count, out);
        noteColor(t0, count);
    }

    void traceLookups(const Vec3 &pos, nerf::LookupSink &sink) const override
    {
        inner_.traceLookups(pos, sink);
    }
    nerf::TableSchema tableSchema() const override
    {
        return inner_.tableSchema();
    }
    nerf::FieldCosts costs() const override { return inner_.costs(); }
    std::string describe() const override { return inner_.describe(); }

  private:
    /** Every kSampleEvery-th armed density batch is kept for replay,
     *  up to kMaxSampledPoints points in total. */
    static constexpr uint64_t kSampleEvery = 16;
    static constexpr size_t kMaxSampledPoints = size_t(1) << 17;

    bool armed() const { return armed_.load(std::memory_order_relaxed); }

    uint64_t noteDensity(Clock::time_point t0, int count) const
    {
        const Clock::time_point t1 = Clock::now();
        density_ns_.fetch_add(uint64_t((t1 - t0).count()),
                              std::memory_order_relaxed);
        density_points_.fetch_add(uint64_t(count), std::memory_order_relaxed);
        telemetry::recordSpan(kSpanNerf, 0, 0, telemetry::toUs(t0),
                              telemetry::toUs(t1));
        return density_calls_.fetch_add(1, std::memory_order_relaxed);
    }

    void noteColor(Clock::time_point t0, int count) const
    {
        const Clock::time_point t1 = Clock::now();
        color_ns_.fetch_add(uint64_t((t1 - t0).count()),
                            std::memory_order_relaxed);
        color_points_.fetch_add(uint64_t(count), std::memory_order_relaxed);
        telemetry::recordSpan(kSpanNerf, 0, 0, telemetry::toUs(t0),
                              telemetry::toUs(t1));
    }

    void keepSample(const Vec3 *pos, int count) const
    {
        std::lock_guard<std::mutex> lock(sample_m_);
        if (sampled_points_ + size_t(count) > kMaxSampledPoints)
            return;
        samples_.emplace_back(pos, pos + count);
        sampled_points_ += size_t(count);
    }

    const nerf::InstantNgpField &inner_;
    std::atomic<bool> armed_{false};
    mutable std::atomic<uint64_t> density_calls_{0};
    mutable std::atomic<uint64_t> density_points_{0};
    mutable std::atomic<uint64_t> density_ns_{0};
    mutable std::atomic<uint64_t> color_points_{0};
    mutable std::atomic<uint64_t> color_ns_{0};
    mutable std::mutex sample_m_;
    mutable std::vector<Batch> samples_;
    mutable size_t sampled_points_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_FIELD_HPP
