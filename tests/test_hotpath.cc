/**
 * @file
 * Tests for the caches a mission frame runs through: bit-identity and
 * buffer reuse of the camera render path, bit-identity and zero
 * steady-state allocation of the cached pose estimator, and the
 * memoized weights and inference schedules.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "dnn/classifier.hh"
#include "dnn/engine.hh"
#include "dnn/forward.hh"
#include "env/sensors.hh"
#include "env/world.hh"
#include "util/rng.hh"

using namespace rose;
using namespace rose::dnn;

// --------------------------------------------------------------------
// Global allocation counter: every operator new in the process bumps
// it, so a steady-state region that performs zero heap allocations is
// directly observable. Counting is always on; the zero-alloc
// assertions are skipped under sanitizers, whose instrumentation may
// allocate on its own schedule.

namespace {
std::atomic<uint64_t> g_allocCount{0};
} // namespace

void *
operator new(size_t n)
{
    ++g_allocCount;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](size_t n)
{
    return ::operator new(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, size_t) noexcept { std::free(p); }
void operator delete[](void *p, size_t) noexcept { std::free(p); }

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kUnderSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kUnderSanitizer = true;
#else
constexpr bool kUnderSanitizer = false;
#endif
#else
constexpr bool kUnderSanitizer = false;
#endif

template <typename VecA, typename VecB>
bool
bitIdentical(const VecA &a, const VecB &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(float)) == 0);
}

} // namespace

// ----------------------------------------------------- shared artifacts

TEST(HotpathShared, WeightsAndSchedulesAreMemoized)
{
    auto w1 = sharedWeights(6, 42);
    auto w2 = sharedWeights(6, 42);
    EXPECT_EQ(w1.get(), w2.get());
    EXPECT_NE(w1.get(), sharedWeights(6, 43).get());

    soc::SocConfig soc;
    ExecutionEngine eng(soc);
    std::shared_ptr<const Model> model = sharedResNet(6);
    auto s1 = eng.scheduleShared(*model);
    auto s2 = eng.scheduleShared(*model);
    EXPECT_EQ(s1.get(), s2.get());
    // The memoized schedule is the schedule.
    InferenceSchedule direct = eng.schedule(*model);
    EXPECT_EQ(s1->totalCycles, direct.totalCycles);
    EXPECT_EQ(s1->accelCycles, direct.accelCycles);
    EXPECT_EQ(s1->layers.size(), direct.layers.size());
}

// ------------------------------------------------------ camera hot path

TEST(HotpathCamera, RenderIntoBitIdenticalAndReusesBuffer)
{
    env::TunnelWorld world;
    env::Camera a(env::CameraConfig{}, Rng(7));
    env::Camera b(env::CameraConfig{}, Rng(7));
    env::Drone drone;
    env::Image reused;
    Rng rng(3);
    const float *pixels = nullptr;
    for (int frame = 0; frame < 6; ++frame) {
        drone.setPose({rng.uniform(5, 45), rng.uniform(-1, 1), 1.5},
                      Quat::fromEuler(0, 0, rng.uniform(-0.3, 0.3)));
        env::Image fresh =
            a.render(world, drone.position(), drone.attitude());
        b.renderInto(world, drone.position(), drone.attitude(), reused);
        ASSERT_EQ(fresh.width, reused.width);
        ASSERT_EQ(fresh.height, reused.height);
        EXPECT_TRUE(bitIdentical(fresh.pixels, reused.pixels))
            << "frame " << frame;
        if (frame == 0)
            pixels = reused.pixels.data();
        else
            EXPECT_EQ(reused.pixels.data(), pixels)
                << "image buffer was reallocated";
    }
}

// ----------------------------------------------------- pose-scratch path

TEST(HotpathPose, ScratchOverloadBitIdentical)
{
    env::TunnelWorld world;
    env::Camera cam(env::CameraConfig{}, Rng(21));
    env::Drone drone;
    Rng rng(23);
    EstimatorConfig cfg;
    PoseScratch scratch;
    for (int frame = 0; frame < 8; ++frame) {
        drone.setPose({rng.uniform(5, 45), rng.uniform(-1, 1), 1.5},
                      Quat::fromEuler(0, 0, rng.uniform(-0.3, 0.3)));
        env::Image img = cam.render(world, drone);
        PoseEstimate fresh = estimatePose(img, cfg);
        PoseEstimate cached = estimatePose(img, cfg, scratch);
        EXPECT_EQ(fresh.valid, cached.valid);
        // Bitwise double equality, not near-equality: the cached
        // tables hold exactly the values the fresh path recomputes.
        EXPECT_EQ(std::memcmp(&fresh.headingRad, &cached.headingRad,
                              sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(&fresh.offsetM, &cached.offsetM,
                              sizeof(double)), 0);
    }
}

TEST(HotpathPose, ScratchSteadyStateZeroAllocation)
{
    if (kUnderSanitizer)
        GTEST_SKIP() << "allocation counting is unreliable under "
                        "sanitizer instrumentation";
    env::TunnelWorld world;
    env::Camera cam(env::CameraConfig{}, Rng(31));
    env::Drone drone;
    drone.setPose({10, 0.2, 1.5}, Quat::fromEuler(0, 0, 0.1));
    env::Image img;
    cam.renderInto(world, drone.position(), drone.attitude(), img);

    EstimatorConfig cfg;
    PoseScratch scratch;
    estimatePose(img, cfg, scratch); // sizes the cache + scratch
    uint64_t before = g_allocCount.load();
    for (int i = 0; i < 5; ++i)
        estimatePose(img, cfg, scratch);
    EXPECT_EQ(g_allocCount.load() - before, 0u);
}

TEST(HotpathPose, ScratchRebuildsOnConfigChange)
{
    env::TunnelWorld world;
    env::Camera cam(env::CameraConfig{}, Rng(41));
    env::Drone drone;
    drone.setPose({12, -0.4, 1.5}, Quat::fromEuler(0, 0, -0.15));
    env::Image img = cam.render(world, drone);

    PoseScratch scratch;
    EstimatorConfig cfg;
    PoseEstimate a = estimatePose(img, cfg, scratch);
    EstimatorConfig other = cfg;
    other.maxDepth *= 0.5;
    PoseEstimate b = estimatePose(img, other, scratch);
    PoseEstimate bFresh = estimatePose(img, other);
    EXPECT_EQ(std::memcmp(&b.headingRad, &bFresh.headingRad,
                          sizeof(double)), 0);
    // Switching back re-keys again and still matches the fresh path.
    PoseEstimate a2 = estimatePose(img, cfg, scratch);
    EXPECT_EQ(std::memcmp(&a.headingRad, &a2.headingRad,
                          sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a.offsetM, &a2.offsetM, sizeof(double)), 0);
}
