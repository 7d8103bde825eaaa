/**
 * @file
 * Tests for the caches a mission frame runs through: bit-identity and
 * buffer reuse of the camera render path, bit-identity and zero
 * steady-state allocation of the cached pose estimator, and the
 * memoized weights and inference schedules. The oracle tests at the
 * end hold the pose scorer and the raycaster to frozen reference
 * copies, bit for bit, in every world.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "dnn/classifier.hh"
#include "dnn/engine.hh"
#include "dnn/forward.hh"
#include "env/sensors.hh"
#include "env/world.hh"
#include "util/geometry.hh"
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

// --------------------------------------------------- kernel oracles
//
// Verbatim copies of the mission-frame kernels as they were before the
// pose SSDs were interleaved and the raycast march devirtualized: one
// sequential SSD per candidate over a [cand][col][row] template bank,
// and a march that calls the virtual centerY/halfWidth at every step.
// The production kernels must reproduce them bit for bit.

namespace ref {

void
expectedColumn(double d_perp, double alpha, int height, double focal,
               const EstimatorConfig &cfg, float *out)
{
    double mid = height / 2.0 - 0.5;
    double d_shade = d_perp / std::max(0.2, std::cos(alpha));
    double top = mid - focal * (cfg.wallHeight - cfg.camAltitude) / d_perp;
    double bot = mid + focal * cfg.camAltitude / d_perp;
    double wall = 0.25 + 0.6 / (1.0 + 0.12 * d_shade);
    for (int r = 0; r < height; ++r) {
        if (r < top) {
            out[size_t(r)] = 0.85f;
        } else if (r > bot) {
            double floor_d =
                focal * cfg.camAltitude / std::max(0.5, double(r) - mid);
            out[size_t(r)] =
                float(0.10 + 0.25 / (1.0 + 0.2 * floor_d));
        } else {
            out[size_t(r)] = float(wall);
        }
    }
}

void
openColumn(int height, float *out)
{
    double mid = height / 2.0 - 0.5;
    for (int r = 0; r < height; ++r)
        out[size_t(r)] = r < mid ? 0.85f : 0.15f;
}

double
ssd(const float *profile, int height, const double *col)
{
    double sum = 0.0;
    for (int r = 0; r < height; ++r) {
        double d = double(profile[size_t(r)]) - col[size_t(r)];
        sum += d * d;
    }
    return sum;
}

/** The [cand][col][row] template bank. */
struct Bank
{
    int width = 0;
    int height = 0;
    std::vector<double> alpha;
    std::vector<double> candidates;
    std::vector<float> profiles;
    std::vector<float> openProfile;

    const float *
    profile(size_t ci, int c) const
    {
        return &profiles[(ci * size_t(width) + size_t(c)) *
                         size_t(height)];
    }
};

Bank
buildBank(int width, int height, const EstimatorConfig &cfg,
          double focal)
{
    Bank s;
    s.width = width;
    s.height = height;
    s.alpha.resize(size_t(width));
    for (int c = 0; c < width; ++c) {
        double u = width / 2.0 - 0.5 - c;
        s.alpha[size_t(c)] = std::atan2(u, focal);
    }
    for (double d = 0.6; d < cfg.maxDepth; d *= 1.22)
        s.candidates.push_back(d);
    s.profiles.resize(s.candidates.size() * size_t(width) * height);
    for (size_t ci = 0; ci < s.candidates.size(); ++ci) {
        for (int c = 0; c < width; ++c) {
            float *dst = &s.profiles[(ci * size_t(width) + size_t(c)) *
                                     size_t(height)];
            expectedColumn(s.candidates[ci], s.alpha[size_t(c)], height,
                           focal, cfg, dst);
        }
    }
    s.openProfile.resize(size_t(height));
    openColumn(height, s.openProfile.data());
    return s;
}

double
focalFor(const env::Image &img, const EstimatorConfig &cfg)
{
    double hfov = deg2rad(cfg.horizontalFovDeg);
    return (img.width / 2.0) / std::tan(hfov / 2.0);
}

struct Pose
{
    PoseEstimate est;
    std::vector<double> rayDist;
    std::vector<uint8_t> open;
    /** Every candidate's SSD, [col][cand]. */
    std::vector<double> ssds;
};

Pose
estimatePose(const env::Image &img, const EstimatorConfig &cfg)
{
    Pose out;
    PoseEstimate &est = out.est;
    Bank s = buildBank(img.width, img.height, cfg, focalFor(img, cfg));
    out.rayDist.resize(size_t(img.width));
    out.open.resize(size_t(img.width));
    std::vector<double> colBuf(size_t(img.height));

    for (int c = 0; c < img.width; ++c) {
        double alpha = s.alpha[size_t(c)];
        for (int r = 0; r < img.height; ++r)
            colBuf[size_t(r)] = double(img.at(r, c));

        double best = 1e30;
        double best_d = cfg.maxDepth;
        bool best_open = false;
        for (size_t ci = 0; ci < s.candidates.size(); ++ci) {
            double e = ssd(s.profile(ci, c), img.height, colBuf.data());
            out.ssds.push_back(e);
            if (e < best) {
                best = e;
                best_d = s.candidates[ci];
                best_open = false;
            }
        }
        double e_open =
            ssd(s.openProfile.data(), img.height, colBuf.data());
        if (e_open < best) {
            best_open = true;
            best_d = cfg.maxDepth;
        }
        out.open[size_t(c)] = best_open;
        out.rayDist[size_t(c)] =
            best_open ? cfg.maxDepth
                      : best_d / std::max(0.2, std::cos(alpha));
    }

    double best_d = 0.0;
    for (int c = 0; c < img.width; ++c)
        best_d = std::max(best_d, out.rayDist[size_t(c)]);
    double az_sum = 0.0, az_w = 0.0;
    for (int c = 0; c < img.width; ++c) {
        if (out.rayDist[size_t(c)] >= 0.85 * best_d) {
            az_sum += s.alpha[size_t(c)];
            az_w += 1.0;
        }
    }
    if (az_w == 0.0)
        return out;
    double alpha_axis = az_sum / az_w;
    est.headingRad = -alpha_axis;

    double left_sum = 0.0, right_sum = 0.0;
    int left_n = 0, right_n = 0;
    for (int c = 0; c < img.width; ++c) {
        if (out.open[size_t(c)])
            continue;
        double theta = s.alpha[size_t(c)] - alpha_axis;
        double a = std::abs(theta);
        if (a < deg2rad(18.0) || a > deg2rad(60.0))
            continue;
        double lateral = out.rayDist[size_t(c)] * std::sin(theta);
        if (theta > 0) {
            left_sum += cfg.trainedHalfWidth - lateral;
            ++left_n;
        } else {
            right_sum += -cfg.trainedHalfWidth - lateral;
            ++right_n;
        }
    }
    if (left_n > 0 && right_n > 0) {
        est.offsetM =
            0.5 * (left_sum / left_n + right_sum / right_n);
    } else if (left_n > 0) {
        est.offsetM = left_sum / left_n;
    } else if (right_n > 0) {
        est.offsetM = right_sum / right_n;
    } else {
        est.offsetM = 0.0;
    }
    est.valid = true;
    return out;
}

double
rayCircle(double ox, double oy, double dx, double dy,
          const env::Obstacle &o)
{
    double cx = o.x - ox, cy = o.y - oy;
    double t = cx * dx + cy * dy;
    if (t < 0.0)
        return -1.0;
    double closest2 = cx * cx + cy * cy - t * t;
    double r2 = o.radius * o.radius;
    if (closest2 > r2)
        return -1.0;
    double thit = t - std::sqrt(r2 - closest2);
    return thit >= 0.0 ? thit : 0.0;
}

env::RayHit
raycast(const env::World &w, const Vec3 &origin, double azimuth,
        double max_range = 60.0)
{
    const double coarse = 0.10;
    double dx = std::cos(azimuth);
    double dy = std::sin(azimuth);

    double pillar_t = max_range + 1.0;
    for (const env::Obstacle &o : w.obstacles()) {
        double t = rayCircle(origin.x, origin.y, dx, dy, o);
        if (t >= 0.0 && t < pillar_t)
            pillar_t = t;
    }

    auto outside = [&](double t) {
        double x = origin.x + dx * t;
        double y = origin.y + dy * t;
        return std::abs(y - w.centerY(x)) >= w.halfWidth(x);
    };

    env::RayHit hit;
    if (outside(0.0)) {
        hit.hit = true;
        hit.distance = 0.0;
        hit.point = origin;
        hit.side = w.lateralOffset(origin) > 0.0 ? 1 : -1;
        return hit;
    }

    auto pillarHit = [&]() {
        env::RayHit h;
        h.hit = true;
        h.distance = pillar_t;
        h.point = Vec3{origin.x + dx * pillar_t,
                       origin.y + dy * pillar_t, origin.z};
        h.side = w.lateralOffset(h.point) > 0.0 ? 1 : -1;
        return h;
    };

    double t_prev = 0.0;
    for (double t = coarse; t <= max_range; t += coarse) {
        if (t > pillar_t && pillar_t <= max_range)
            return pillarHit();
        if (outside(t)) {
            double lo = t_prev, hi = t;
            for (int i = 0; i < 20; ++i) {
                double mid = 0.5 * (lo + hi);
                if (outside(mid))
                    hi = mid;
                else
                    lo = mid;
            }
            if (pillar_t < hi && pillar_t <= max_range)
                return pillarHit();
            hit.hit = true;
            hit.distance = hi;
            hit.point = Vec3{origin.x + dx * hi, origin.y + dy * hi,
                             origin.z};
            hit.side =
                (hit.point.y - w.centerY(hit.point.x)) > 0.0 ? 1 : -1;
            return hit;
        }
        t_prev = t;
    }
    if (pillar_t <= max_range)
        return pillarHit();
    hit.hit = false;
    hit.distance = max_range;
    hit.point = Vec3{origin.x + dx * max_range, origin.y + dy * max_range,
                     origin.z};
    return hit;
}

} // namespace ref

namespace {

const char *const kWorlds[] = {"tunnel", "s-shape", "zigzag"};

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** A world with a few pillars scattered along the centerline. */
std::unique_ptr<env::World>
worldWithPillars(const std::string &name, Rng &rng)
{
    std::unique_ptr<env::World> w = env::makeWorld(name);
    for (int i = 0; i < 4; ++i) {
        double x = rng.uniform(3.0, w->length() - 3.0);
        double y = w->centerY(x) + rng.uniform(-0.8, 0.8);
        w->addObstacle({x, y, rng.uniform(0.2, 0.5)});
    }
    return w;
}

/** Compare the production estimator against the reference. */
void
expectPoseMatchesReference(const env::Image &img,
                           const EstimatorConfig &cfg,
                           PoseScratch &scratch, const std::string &what)
{
    SCOPED_TRACE(what);
    ref::Pose want = ref::estimatePose(img, cfg);
    PoseEstimate got = estimatePose(img, cfg, scratch);
    ASSERT_EQ(scratch.rayDist.size(), want.rayDist.size());
    for (size_t c = 0; c < want.rayDist.size(); ++c) {
        EXPECT_TRUE(sameBits(scratch.rayDist[c], want.rayDist[c]))
            << "rayDist col " << c << ": " << scratch.rayDist[c]
            << " vs " << want.rayDist[c];
        EXPECT_EQ(scratch.open[c], want.open[c]) << "open col " << c;
    }
    EXPECT_EQ(got.valid, want.est.valid);
    EXPECT_TRUE(sameBits(got.headingRad, want.est.headingRad));
    EXPECT_TRUE(sameBits(got.offsetM, want.est.offsetM));
}

} // namespace

TEST(HotpathOracle, PoseMatchesSequentialSsdReference)
{
    // 500 seeded poses across the three worlds (with pillars), each
    // image checked column by column against the sequential-SSD
    // reference. Zigzag gets fewer: its centerline is integrated per
    // call, which makes one render ~100x a tunnel render.
    const int kImagesPerWorld[] = {220, 220, 60};
    EstimatorConfig cfg;
    PoseScratch scratch;
    int images = 0;
    for (int wi = 0; wi < 3; ++wi) {
        const char *name = kWorlds[wi];
        Rng rng(0x0c1e + images);
        std::unique_ptr<env::World> world = worldWithPillars(name, rng);
        env::Camera cam(env::CameraConfig{}, Rng(rng.next()));
        for (int i = 0; i < kImagesPerWorld[wi]; ++i, ++images) {
            double x = rng.uniform(0.5, world->length() - 0.5);
            double y = world->centerY(x) +
                       rng.uniform(-0.9, 0.9) * world->halfWidth(x);
            double yaw =
                world->tangentAngle(x) + rng.uniform(-0.7, 0.7);
            env::Image img = cam.render(
                *world, Vec3{x, y, rng.uniform(0.8, 2.5)},
                Quat::fromEuler(0, 0, yaw));
            expectPoseMatchesReference(
                img, cfg, scratch,
                std::string(name) + " image " + std::to_string(i));
            if (HasFailure())
                return;
        }
    }
    EXPECT_GE(images, 500);
}

TEST(HotpathOracle, PoseMatchesReferenceOnSyntheticImages)
{
    EstimatorConfig cfg;
    PoseScratch scratch;
    Rng rng(0x5eed);

    // All black: each real candidate's SSD is positive, so this also
    // catches a kernel that lets zero-padding lanes win the minimum.
    env::Image black(64, 48);
    expectPoseMatchesReference(black, cfg, scratch, "black");

    env::Image flat(64, 48);
    flat.pixels.assign(flat.pixels.size(), 0.5f);
    expectPoseMatchesReference(flat, cfg, scratch, "flat");

    for (int i = 0; i < 8; ++i) {
        env::Image noise(64, 48);
        for (float &v : noise.pixels)
            v = float(rng.uniform());
        expectPoseMatchesReference(noise, cfg, scratch,
                                   "noise " + std::to_string(i));
    }

    // A smaller camera re-keys the bank (different width and height).
    env::Camera small(env::CameraConfig{40, 30}, Rng(9));
    env::TunnelWorld tunnel;
    env::Image img = small.render(tunnel, Vec3{10, 0.3, 1.5},
                                  Quat::fromEuler(0, 0, 0.2));
    expectPoseMatchesReference(img, cfg, scratch, "40x30");
}

TEST(HotpathOracle, PoseTieKeepsFirstCandidate)
{
    // An image built from the template bank: every column is
    // candidate k's template exactly, except one column set to the
    // per-row midpoint of candidates k and k+1. Where the midpoint is
    // exact in float, both candidates score the same SSD term by term,
    // and the first strict minimum (k) must win.
    EstimatorConfig cfg;
    const int W = 64, H = 48;
    env::Image probe(W, H);
    ref::Bank bank = ref::buildBank(W, H, cfg, ref::focalFor(probe, cfg));

    bool found = false;
    for (size_t k = 0; k + 1 < bank.candidates.size() && !found; ++k) {
        for (int tc = 0; tc < W && !found; ++tc) {
            const float *a = bank.profile(k, tc);
            const float *b = bank.profile(k + 1, tc);
            env::Image img(W, H);
            bool exact = true;
            for (int r = 0; r < H && exact; ++r) {
                double m = 0.5 * (double(a[r]) + double(b[r]));
                float mf = float(m);
                exact = double(mf) == m;
                img.at(r, tc) = mf;
            }
            if (!exact)
                continue;
            for (int c = 0; c < W; ++c) {
                if (c == tc)
                    continue;
                const float *p = bank.profile(k, c);
                for (int r = 0; r < H; ++r)
                    img.at(r, c) = p[r];
            }
            ref::Pose want = ref::estimatePose(img, cfg);
            const size_t nc = bank.candidates.size();
            const double *col_ssd = &want.ssds[size_t(tc) * nc];
            double lo = *std::min_element(col_ssd, col_ssd + nc);
            if (col_ssd[k] != col_ssd[k + 1] || col_ssd[k] != lo ||
                want.open[size_t(tc)])
                continue;
            found = true;
            double alpha = bank.alpha[size_t(tc)];
            EXPECT_TRUE(sameBits(
                want.rayDist[size_t(tc)],
                bank.candidates[k] / std::max(0.2, std::cos(alpha))));
            PoseScratch scratch;
            expectPoseMatchesReference(
                img, cfg, scratch,
                "tie k=" + std::to_string(k) + " col " +
                    std::to_string(tc));
        }
    }
    EXPECT_TRUE(found) << "no exact SSD tie constructible";
}

TEST(HotpathOracle, RaycastMatchesVirtualMarchReference)
{
    int rays = 0;
    int starts_in_wall = 0, misses = 0, pillar_hits = 0;
    for (const char *name : kWorlds) {
        SCOPED_TRACE(name);
        Rng rng(0x7a1 + rays);
        std::unique_ptr<env::World> plain = env::makeWorld(name);
        std::unique_ptr<env::World> pillars = worldWithPillars(name, rng);
        for (const env::World *w : {plain.get(), pillars.get()}) {
            for (int i = 0; i < 400; ++i, ++rays) {
                double x = rng.uniform(-1.0, w->length() + 1.0);
                // |lateral| up to 1.3 half-widths: some origins start
                // inside a wall.
                double y = w->centerY(x) +
                           rng.uniform(-1.3, 1.3) * w->halfWidth(x);
                Vec3 origin{x, y, rng.uniform(0.5, 3.0)};
                double az = rng.uniform(-kPi, kPi);
                // Mostly the default range; some short ranges force
                // max-range misses.
                double range =
                    rng.bernoulli(0.3) ? rng.uniform(0.05, 3.0) : 60.0;
                env::RayHit want = ref::raycast(*w, origin, az, range);
                env::RayHit got = w->raycast(origin, az, range);
                SCOPED_TRACE("ray " + std::to_string(i));
                starts_in_wall += want.hit && want.distance == 0.0;
                misses += !want.hit;
                // A hit strictly inside the corridor struck a pillar.
                pillar_hits +=
                    want.hit && want.distance > 0.0 &&
                    std::abs(w->lateralOffset(want.point)) <
                        w->halfWidth(want.point.x) - 1e-6;
                EXPECT_EQ(got.hit, want.hit);
                EXPECT_EQ(got.side, want.side);
                EXPECT_TRUE(sameBits(got.distance, want.distance))
                    << got.distance << " vs " << want.distance;
                EXPECT_TRUE(sameBits(got.point.x, want.point.x));
                EXPECT_TRUE(sameBits(got.point.y, want.point.y));
                EXPECT_TRUE(sameBits(got.point.z, want.point.z));
                if (HasFailure())
                    return;
            }
            // Straight down the corridor from the centerline: the
            // tunnel never reaches a wall within the default range.
            Vec3 start{1.0, w->centerY(1.0), 1.5};
            double along = w->tangentAngle(1.0);
            env::RayHit want = ref::raycast(*w, start, along);
            env::RayHit got = w->raycast(start, along);
            EXPECT_EQ(got.hit, want.hit);
            EXPECT_TRUE(sameBits(got.distance, want.distance));
            EXPECT_TRUE(sameBits(got.point.y, want.point.y));
        }
    }
    // The seeded rays reach every branch of the march.
    EXPECT_GT(starts_in_wall, 0);
    EXPECT_GT(misses, 0);
    EXPECT_GT(pillar_hits, 0);
}
