/**
 * @file
 * Tests for the caches and kernels a mission frame runs through:
 * bit-identity and zero steady-state allocation of the render and the
 * cached pose estimator, and the memoized weights and inference
 * schedules. The oracle tests at the end hold the pose scorer, the
 * raycaster and the camera render to frozen reference copies, bit for
 * bit, in every world; the detmath tests check the error bounds and
 * bracket decisions the render's fast transcendental path rests on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "dnn/classifier.hh"
#include "dnn/engine.hh"
#include "dnn/forward.hh"
#include "env/sensors.hh"
#include "env/world.hh"
#include "util/detmath.hh"
#include "util/geometry.hh"
#include "util/rng.hh"
#include "util/serde.hh"

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

// ----------------------------------------------------- pose-scratch path

TEST(HotpathPose, ScratchOverloadBitIdentical)
{
    env::TunnelWorld world;
    env::Camera cam(env::CameraConfig{}, Rng(21));
    env::Drone drone;
    Rng rng(23);
    EstimatorConfig cfg;
    PoseScratch scratch;
    env::Image img;
    for (int frame = 0; frame < 8; ++frame) {
        drone.setPose({rng.uniform(5, 45), rng.uniform(-1, 1), 1.5},
                      Quat::fromEuler(0, 0, rng.uniform(-0.3, 0.3)));
        cam.renderInto(world, drone.position(), drone.attitude(), img);
        PoseScratch freshScratch;
        PoseEstimate fresh = estimatePose(img, cfg, freshScratch);
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
    // The render and the pose estimate of a steady-state frame.
    uint64_t before = g_allocCount.load();
    for (int i = 0; i < 5; ++i) {
        cam.renderInto(world, drone.position(), drone.attitude(), img);
        estimatePose(img, cfg, scratch);
    }
    EXPECT_EQ(g_allocCount.load() - before, 0u);
}

TEST(HotpathPose, ScratchRebuildsOnConfigChange)
{
    env::TunnelWorld world;
    env::Camera cam(env::CameraConfig{}, Rng(41));
    env::Drone drone;
    drone.setPose({12, -0.4, 1.5}, Quat::fromEuler(0, 0, -0.15));
    env::Image img;
    cam.renderInto(world, drone.position(), drone.attitude(), img);

    PoseScratch scratch;
    EstimatorConfig cfg;
    PoseEstimate a = estimatePose(img, cfg, scratch);
    EstimatorConfig other = cfg;
    other.maxDepth *= 0.5;
    PoseEstimate b = estimatePose(img, other, scratch);
    PoseScratch freshScratch;
    PoseEstimate bFresh = estimatePose(img, other, freshScratch);
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
            env::Image img;
            cam.renderInto(*world, Vec3{x, y, rng.uniform(0.8, 2.5)},
                           Quat::fromEuler(0, 0, yaw), img);
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
    env::Image img;
    small.renderInto(tunnel, Vec3{10, 0.3, 1.5},
                     Quat::fromEuler(0, 0, 0.2), img);
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

// --------------------------------------------------- render oracle
//
// A verbatim frozen copy of the camera render as it was while every
// transcendental in it was a libm call: the column-major fused
// raycast/shade/noise loop, the std::sin texture hash and the scalar
// Box-Muller Gaussian with its spare carried across columns and
// frames. The noise stream is a copy of xoshiro256** that loads and
// stores the camera's serialized state, so the production camera must
// match it in every float pixel and in every checkpointed state byte
// (the stale Box-Muller spare included).

namespace ref {

struct NoiseRng
{
    uint64_t s[4] = {};
    bool haveSpare = false;
    double spare = 0.0;

    static uint64_t
    rotl(uint64_t v, int k)
    {
        return (v << k) | (v >> (64 - k));
    }

    uint64_t
    next()
    {
        uint64_t result = rotl(s[1] * 5, 7) * 9;
        uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    double
    uniform()
    {
        return (next() >> 11) * (1.0 / 9007199254740992.0);
    }

    double
    gaussian()
    {
        if (haveSpare) {
            haveSpare = false;
            return spare;
        }
        double u1 = 0.0;
        do {
            u1 = uniform();
        } while (u1 <= 1e-300);
        double u2 = uniform();
        double r = std::sqrt(-2.0 * std::log(u1));
        double theta = 2.0 * 3.14159265358979323846 * u2;
        spare = r * std::sin(theta);
        haveSpare = true;
        return r * std::cos(theta);
    }

    double
    gaussian(double mean, double stddev)
    {
        return mean + stddev * gaussian();
    }

    void
    save(StateWriter &w) const
    {
        for (uint64_t v : s)
            w.u64(v);
        w.boolean(haveSpare);
        w.f64(spare);
    }

    void
    restore(StateReader &r)
    {
        for (uint64_t &v : s)
            v = r.u64();
        haveSpare = r.boolean();
        spare = r.f64();
    }
};

double
textureAt(double x, double z, int side)
{
    double u = x * 2.7 + z * 1.3 + side * 17.0;
    double v = std::sin(u) * 43758.5453;
    return v - std::floor(v); // [0,1)
}

struct Camera
{
    env::CameraConfig cfg;
    NoiseRng rng;

    void
    renderInto(const env::World &world, const Vec3 &position,
               const Quat &attitude, env::Image &img)
    {
        img.width = cfg.width;
        img.height = cfg.height;
        img.pixels.resize(size_t(cfg.width) * cfg.height);
        double yaw = attitude.yaw();
        double hfov = deg2rad(cfg.horizontalFovDeg);
        double focal = (cfg.width / 2.0) / std::tan(hfov / 2.0);
        std::vector<double> colAlpha(size_t(cfg.width));
        for (int c = 0; c < cfg.width; ++c) {
            double u = (cfg.width / 2.0 - 0.5 - c);
            colAlpha[size_t(c)] = std::atan2(u, focal);
        }
        double cam_z = position.z;
        double wall_h = world.wallHeight();
        const int H = cfg.height;
        const double mid = H / 2.0 - 0.5;

        std::vector<float> floorShade(static_cast<size_t>(H));
        for (int r = 0; r < H; ++r) {
            double floor_d =
                focal * cam_z / std::max(0.5, double(r) - mid);
            floorShade[size_t(r)] =
                float(0.10 + 0.25 / (1.0 + 0.2 * floor_d));
        }
        const int horizon = std::clamp(int(std::ceil(mid)), 0, H);
        std::vector<float> colShade(static_cast<size_t>(H));

        for (int c = 0; c < cfg.width; ++c) {
            double az = yaw + colAlpha[size_t(c)];
            env::RayHit hit = world.raycast(position, az);
            double d = std::max(0.05, hit.distance * std::cos(az - yaw));
            double top_row = mid - focal * (wall_h - cam_z) / d;
            double bot_row = mid + focal * cam_z / d;

            float *shade = colShade.data();
            if (!hit.hit) {
                for (int r = 0; r < horizon; ++r)
                    shade[r] = 0.85f;
                for (int r = horizon; r < H; ++r)
                    shade[r] = 0.15f;
            } else {
                int sky_end =
                    int(std::clamp(std::ceil(top_row), 0.0, double(H)));
                int floor_begin = std::max(
                    sky_end,
                    int(std::clamp(std::floor(bot_row) + 1.0, 0.0,
                                   double(H))));
                double shade_base =
                    0.25 + 0.6 / (1.0 + 0.12 * hit.distance);
                double span = std::max(1.0, bot_row - top_row);
                double tex_u = hit.point.x + hit.point.y;
                for (int r = 0; r < sky_end; ++r)
                    shade[r] = 0.85f;
                for (int r = sky_end; r < floor_begin; ++r) {
                    double frac = (bot_row - r) / span;
                    double tex =
                        textureAt(tex_u, frac * wall_h, hit.side);
                    shade[r] = float(
                        shade_base *
                        (1.0 + cfg.textureAmplitude * (tex - 0.5)));
                }
                for (int r = floor_begin; r < H; ++r)
                    shade[r] = floorShade[size_t(r)];
            }

            for (int r = 0; r < H; ++r) {
                float v =
                    shade[r] + float(rng.gaussian(0.0, cfg.noiseStd));
                img.at(r, c) = float(clampd(v, 0.0, 1.0));
            }
        }
    }
};

} // namespace ref

namespace {

std::vector<uint8_t>
cameraState(const env::Camera &cam)
{
    StateWriter w;
    cam.saveState(w);
    return w.data();
}

/**
 * Render seeded in-corridor poses in every world, split evenly over
 * four camera configurations, with the production camera and the
 * frozen reference, requiring bit-identical float pixels and
 * serialized camera state after every frame. @p scale multiplies the
 * per-world frame counts (~5.6k frames at scale 1). Zigzag gets few
 * frames: its centerline is integrated per call, which makes one of
 * its renders ~40x a tunnel render.
 */
void
expectRenderMatchesReference(int scale)
{
    const int kFramesPerWorld[] = {3200, 2400, 40};
    const env::CameraConfig cfgs[] = {
        {64, 48, 90.0, 0.01, 0.15}, // the mission camera
        {63, 47, 90.0, 0.01, 0.15}, // odd pixel count: spare carried
        {64, 48, 90.0, 0.0, 0.15},  // noise off, draws still made
        {63, 47, 90.0, 0.05, 0.15},
    };
    uint64_t seed = 0x0a11ce;
    for (int wi = 0; wi < 3; ++wi) {
        const char *name = kWorlds[wi];
        const int n = kFramesPerWorld[wi] * scale;
        for (const env::CameraConfig &cfg : cfgs) {
            SCOPED_TRACE(std::string(name) + " " +
                         std::to_string(cfg.width) + "x" +
                         std::to_string(cfg.height) + " std " +
                         std::to_string(cfg.noiseStd));
            Rng rng(++seed);
            std::unique_ptr<env::World> world =
                worldWithPillars(name, rng);
            env::Camera cam(cfg, Rng(rng.next()));
            ref::Camera want{cfg, {}};
            std::vector<uint8_t> state = cameraState(cam);
            StateReader in(state);
            want.rng.restore(in);

            env::Image got, expect;
            const float *buffer = nullptr;
            for (int i = 0; i < n / int(std::size(cfgs)); ++i) {
                double x = rng.uniform(0.5, world->length() - 0.5);
                double y = world->centerY(x) +
                           rng.uniform(-0.9, 0.9) * world->halfWidth(x);
                double yaw =
                    world->tangentAngle(x) + rng.uniform(-0.7, 0.7);
                Vec3 pos{x, y, rng.uniform(0.8, 2.5)};
                Quat att = Quat::fromEuler(0, 0, yaw);
                cam.renderInto(*world, pos, att, got);
                want.renderInto(*world, pos, att, expect);
                ASSERT_EQ(got.width, cfg.width);
                ASSERT_EQ(got.height, cfg.height);
                ASSERT_TRUE(bitIdentical(got.pixels, expect.pixels))
                    << "frame " << i;
                if (i == 0)
                    buffer = got.pixels.data();
                ASSERT_EQ(got.pixels.data(), buffer)
                    << "image buffer was reallocated";
                StateWriter w;
                want.rng.save(w);
                ASSERT_EQ(cameraState(cam), w.data()) << "frame " << i;
            }
        }
    }
}

} // namespace

TEST(HotpathOracle, RenderMatchesLibmReference)
{
    expectRenderMatchesReference(1);
}

// The long differential run, ~1.1x10^5 frames (run it with
// --gtest_also_run_disabled_tests; about a minute).
TEST(HotpathOracle, DISABLED_RenderMatchesLibmReferenceLong)
{
    expectRenderMatchesReference(20);
}

// ------------------------------------------------ detmath and brackets
//
// The render keeps a fast transcendental value only when a bracket
// around it decides the pixel (DESIGN.md §5e). That is sound while the
// libm value lies inside the bracket: the property tests measure the
// fast kernels against libm over 10^7 seeded inputs in the render's
// ranges and require 64x headroom. The bracket tests construct the
// values where the decision is close, the rounding boundaries of the
// pixel chains and the floor crossings of the texture hash, and
// require the exact path there.

TEST(Detmath, BoxMullerWithinBracketOverSeededDraws)
{
    // 5x10^6 uniform pairs drawn as the camera draws them, so 10^7
    // Gaussian values, plus the extremes of u1 and the quadrant edges
    // of u2.
    auto worstError = [](double u1, double u2) {
        double r = std::sqrt(-2.0 * detmath::log(u1));
        double s, c;
        detmath::sincos2pi(u2, s, c);
        double sinPart;
        double cosPart = Rng::boxMuller(u1, u2, sinPart);
        return std::max(std::abs(r * c - cosPart),
                        std::abs(r * s - sinPart));
    };
    double worst = 0.0;
    Rng rng(0xde7);
    for (int i = 0; i < 5000000; ++i) {
        double u1, u2;
        rng.boxMullerUniforms(u1, u2);
        worst = std::max(worst, worstError(u1, u2));
    }
    const double ulp = 0x1p-53; // the uniform grid
    for (double u1 : {ulp, 2 * ulp, 0.5, 1.0 - ulp}) {
        for (double u2 : {0.0, ulp, 0.125, 0.25 - ulp, 0.25, 0.375, 0.5,
                          0.625, 0.75, 0.875 + ulp, 1.0 - ulp}) {
            worst = std::max(worst, worstError(u1, u2));
        }
    }
    EXPECT_LE(worst, env::pixel::kGaussianBracket / 64) << worst;
}

TEST(Detmath, SinWithinBracketOverTextureArguments)
{
    // Texture arguments stay within |u| < 300 in every corridor; draw
    // 10^7 from [-512, 512], then a sparser sweep of the whole domain
    // and the multiples of pi/2 where the reduction cancels most.
    double worst = 0.0;
    auto check = [&](double u) {
        worst = std::max(worst, std::abs(detmath::sin(u) - std::sin(u)));
    };
    Rng rng(0x51e);
    for (int i = 0; i < 10000000; ++i)
        check(rng.uniform(-512.0, 512.0));
    for (int i = 0; i < 100000; ++i)
        check(rng.uniform(-detmath::kSinDomain, detmath::kSinDomain));
    for (int k = -2000; k <= 2000; ++k) {
        double u = k * (kPi / 2);
        check(std::nextafter(u, -1e300));
        check(u);
        check(std::nextafter(u, 1e300));
    }
    EXPECT_LE(worst, env::pixel::kSinBracket / 64) << worst;
}

namespace {

/**
 * Adjacent doubles a < b in [lo, hi] where the monotone chain f
 * changes value: f(a) == f(lo) != f(b). Needs f(lo) != f(hi).
 */
template <typename F>
std::pair<double, double>
changePoint(F f, double lo, double hi)
{
    const float at = f(lo);
    while (std::nextafter(lo, hi) != hi) {
        double mid = lo + 0.5 * (hi - lo);
        (f(mid) == at ? lo : hi) = mid;
    }
    return {lo, hi};
}

} // namespace

TEST(RenderBracket, NoiseTakesExactPathAtRoundingBoundaries)
{
    using env::pixel::kGaussianBracket;
    for (double sd : {0.01, 0.05, 0.5}) {
        auto noise = [sd](double g) { return env::pixel::noise(g, sd); };
        Rng rng(0xb0 + uint64_t(sd * 100));
        for (int i = 0; i < 500; ++i) {
            double g = rng.uniform(-5.0, 5.0);
            // The next float's preimage lies past the next boundary.
            float f = noise(g);
            double hi = double(std::nextafter(f, g < 0 ? -1.f : 1.f)) / sd;
            ASSERT_NE(noise(hi), f);
            auto [a, b] = changePoint(noise, g, hi);
            SCOPED_TRACE("sd " + std::to_string(sd) + " g " +
                         std::to_string(g));
            float out;
            for (double x : {a, b, a - kGaussianBracket / 2,
                             b + kGaussianBracket / 2})
                EXPECT_FALSE(env::pixel::noiseIfBracketed(x, sd, out));
            // Far from any boundary the fast value decides the float.
            double centre = double(f) / sd;
            if (noise(centre) == f) {
                ASSERT_TRUE(env::pixel::noiseIfBracketed(centre, sd, out));
                EXPECT_EQ(out, f);
            }
        }
    }
}

TEST(RenderBracket, WallShadeTakesExactPathAtFloorCrossings)
{
    using env::pixel::kSinBracket;
    const double base = 0.6, amp = 0.15;
    auto cell = [](double s) { return float(std::floor(s * 43758.5453)); };
    for (double k : {-43758.0, -20000.0, -1.0, 0.0, 1.0, 777.0, 43758.0}) {
        SCOPED_TRACE("crossing " + std::to_string(k));
        double s = k / 43758.5453;
        auto [a, b] = changePoint(cell, s - 1e-9, s + 1e-9);
        ASSERT_NE(cell(a), cell(b));
        float out;
        for (double x : {a, b, a - kSinBracket / 2, b + kSinBracket / 2})
            EXPECT_FALSE(env::pixel::wallIfBracketed(x, base, amp, out));
        // With no texture the shade is flat across the crossing, but
        // the floor check alone still sends it down the exact path.
        EXPECT_EQ(env::pixel::wall(a, base, 0.0),
                  env::pixel::wall(b, base, 0.0));
        EXPECT_FALSE(env::pixel::wallIfBracketed(a, base, 0.0, out));
    }
}

TEST(RenderBracket, WallShadeTakesExactPathAtRoundingBoundaries)
{
    using env::pixel::kSinBracket;
    Rng rng(0x7e);
    int decided = 0;
    for (int i = 0; i < 500; ++i) {
        double base = rng.uniform(0.25, 0.85);
        double amp = rng.bernoulli(0.5) ? 0.15 : -0.3;
        auto wall = [&](double s) {
            return env::pixel::wall(s, base, amp);
        };
        double s = rng.uniform(-1.0, 1.0);
        // ~1e-10 spans several float steps of the shade but almost
        // never a floor crossing (one per 2.3e-5).
        double hi = s + 1e-10;
        if (std::floor(s * 43758.5453) != std::floor(hi * 43758.5453))
            continue;
        ASSERT_NE(wall(s), wall(hi));
        auto [a, b] = changePoint(wall, s, hi);
        SCOPED_TRACE("s " + std::to_string(s));
        float out;
        for (double x : {a, b, a - kSinBracket / 2, b + kSinBracket / 2})
            EXPECT_FALSE(env::pixel::wallIfBracketed(x, base, amp, out));
        // Midway between two boundaries the fast value decides.
        double c = changePoint(wall, b, hi).first;
        double mid = b + 0.5 * (c - b);
        if (c - b > 4 * kSinBracket) {
            ASSERT_TRUE(env::pixel::wallIfBracketed(mid, base, amp, out));
            EXPECT_EQ(out, wall(mid));
            ++decided;
        }
    }
    EXPECT_GT(decided, 100);
}
