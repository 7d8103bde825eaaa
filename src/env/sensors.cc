#include "sensors.hh"

#include <algorithm>
#include <cmath>

#include "util/detmath.hh"
#include "util/serde.hh"

namespace rose::env {

Imu::Imu(const ImuConfig &cfg, Rng rng) : cfg_(cfg), rng_(rng)
{
    accelBias_ = Vec3{rng_.gaussian(0, cfg_.accelBiasStd),
                      rng_.gaussian(0, cfg_.accelBiasStd),
                      rng_.gaussian(0, cfg_.accelBiasStd)};
    gyroBias_ = Vec3{rng_.gaussian(0, cfg_.gyroBiasStd),
                     rng_.gaussian(0, cfg_.gyroBiasStd),
                     rng_.gaussian(0, cfg_.gyroBiasStd)};
}

ImuSample
Imu::sample(const SensorFrame &frame, double time_s)
{
    // Specific force: the accelerometer measures kinematic acceleration
    // minus gravity, expressed in the body frame.
    Vec3 f_world = frame.accelWorld + Vec3{0.0, 0.0, cfg_.gravity};
    Vec3 f_body = frame.attitude.rotateInverse(f_world);

    ImuSample s;
    s.accel = f_body + accelBias_ +
              Vec3{rng_.gaussian(0, cfg_.accelNoiseStd),
                   rng_.gaussian(0, cfg_.accelNoiseStd),
                   rng_.gaussian(0, cfg_.accelNoiseStd)};
    s.gyro = frame.bodyRates + gyroBias_ +
             Vec3{rng_.gaussian(0, cfg_.gyroNoiseStd),
                  rng_.gaussian(0, cfg_.gyroNoiseStd),
                  rng_.gaussian(0, cfg_.gyroNoiseStd)};
    s.timestamp = time_s;
    return s;
}

ImuSample
Imu::sample(const Drone &drone, double time_s)
{
    return sample(SensorFrame{drone.position(), drone.attitude(),
                              drone.bodyRates(), drone.lastAccel()},
                  time_s);
}

namespace pixel {

float
noise(double g, double stddev)
{
    return float(0.0 + stddev * g);
}

bool
noiseIfBracketed(double g, double stddev, float &out)
{
    out = noise(g - kGaussianBracket, stddev);
    return out == noise(g + kGaussianBracket, stddev);
}

float
wall(double s, double base, double amp)
{
    double v = s * 43758.5453;
    double tex = v - std::floor(v); // [0,1)
    return float(base * (1.0 + amp * (tex - 0.5)));
}

bool
wallIfBracketed(double s, double base, double amp, float &out)
{
    // frac() is monotone only between integers: both ends must share
    // the floor as well as the float.
    double lo = s - kSinBracket;
    double hi = s + kSinBracket;
    out = wall(lo, base, amp);
    return std::floor(lo * 43758.5453) == std::floor(hi * 43758.5453) &&
           out == wall(hi, base, amp);
}

} // namespace pixel

namespace {

/** Deterministic texture hash argument: the wall shade jitters with
 *  sin() of it (pixel::wall), keyed on the wall-hit position, standing
 *  in for Unreal's randomized textures. */
double
textureArg(double x, double z, int side)
{
    return x * 2.7 + z * 1.3 + side * 17.0;
}

/** Box-Muller pairs transformed per batch: 256 bytes of stack per
 *  array. */
constexpr int kNoisePairs = 32;
/** Wall-band rows per texture batch. */
constexpr int kWallRows = 16;

} // namespace

Camera::Camera(const CameraConfig &cfg, Rng rng) : cfg_(cfg), rng_(rng)
{
}

void
Camera::ensureDirections(double focal)
{
    if (colAlpha_.size() == size_t(cfg_.width) && dirFocal_ == focal)
        return;
    colAlpha_.resize(size_t(cfg_.width));
    for (int c = 0; c < cfg_.width; ++c) {
        // Column azimuth: leftmost column looks left of the heading.
        double u = (cfg_.width / 2.0 - 0.5 - c);
        colAlpha_[size_t(c)] = std::atan2(u, focal);
    }
    dirFocal_ = focal;
}

void
Camera::drawNoise(float *px)
{
    const int H = cfg_.height;
    const size_t W = size_t(cfg_.width);
    const double sd = cfg_.noiseStd;
    // Draw i lands in column i / H, row i % H.
    int row = 0;
    size_t col = 0;
    auto put = [&](float v) {
        px[size_t(row) * W + col] = v;
        if (++row == H) {
            row = 0;
            ++col;
        }
    };

    int left = int(W) * H;
    if (left > 0 && rng_.hasSpare()) {
        put(pixel::noise(rng_.gaussian(), sd));
        --left;
    }
    // Every pair but the frame's last goes through the fast kernels.
    const int fastPairs = std::max(0, (left + 1) / 2 - 1);
    for (int p = 0; p < fastPairs; p += kNoisePairs) {
        const int n = std::min(kNoisePairs, fastPairs - p);
        double u1[kNoisePairs], u2[kNoisePairs];
        double gc[kNoisePairs], gs[kNoisePairs];
        for (int k = 0; k < n; ++k)
            rng_.boxMullerUniforms(u1[k], u2[k]);
        for (int k = n; k < kNoisePairs; ++k) {
            u1[k] = 0.5; // padding lanes, never read back
            u2[k] = 0.0;
        }
        // Fixed-count loops without calls, so GCC runs them two lanes
        // wide at the baseline ISA. The sqrt sits in its own scalar
        // loop: its errno branch would keep a loop scalar.
        double r[kNoisePairs];
        for (int k = 0; k < kNoisePairs; ++k)
            r[k] = -2.0 * detmath::log(u1[k]);
        for (int k = 0; k < kNoisePairs; ++k)
            r[k] = std::sqrt(r[k]);
        for (int k = 0; k < kNoisePairs; ++k) {
            double s, c;
            detmath::sincos2pi(u2[k], s, c);
            gc[k] = r[k] * c;
            gs[k] = r[k] * s;
        }
        for (int k = 0; k < n; ++k) {
            float a, b;
            if (!pixel::noiseIfBracketed(gc[k], sd, a) ||
                !pixel::noiseIfBracketed(gs[k], sd, b)) {
                double sinPart;
                a = pixel::noise(Rng::boxMuller(u1[k], u2[k], sinPart),
                                 sd);
                b = pixel::noise(sinPart, sd);
            }
            put(a);
            put(b);
        }
    }
    left -= 2 * fastPairs;
    // The last pair goes through gaussian() itself: its sine part stays
    // behind as the spare that checkpoints serialize (live when one
    // draw is left, stale when two are), so it must be the libm value.
    if (left > 0)
        put(pixel::noise(rng_.gaussian(), sd));
    if (left > 1)
        put(pixel::noise(rng_.gaussian(), sd));
}

void
Camera::renderInto(const World &world, const Vec3 &position,
                   const Quat &attitude, Image &img)
{
    img.width = cfg_.width;
    img.height = cfg_.height;
    img.pixels.resize(size_t(cfg_.width) * cfg_.height);
    // Noise first, into the image itself; the shade pass adds to it.
    drawNoise(img.pixels.data());
    double yaw = attitude.yaw();
    double hfov = deg2rad(cfg_.horizontalFovDeg);
    // Pinhole focal length in pixels (same for both axes).
    double focal = (cfg_.width / 2.0) / std::tan(hfov / 2.0);
    ensureDirections(focal);
    double cam_z = position.z;
    double wall_h = world.wallHeight();
    const int H = cfg_.height;
    const double mid = H / 2.0 - 0.5;

    // The floor brightness at row r is column-independent: hoist the
    // divide chain out of the pixel loop into one per-frame table,
    // using the exact expression the per-pixel code evaluated.
    floorShade_.resize(size_t(H));
    for (int r = 0; r < H; ++r) {
        double floor_d =
            focal * cam_z / std::max(0.5, double(r) - mid);
        floorShade_[size_t(r)] = float(0.10 + 0.25 / (1.0 + 0.2 * floor_d));
    }
    // Horizon split of the open-corridor view: r < mid for integer r.
    const int horizon = std::clamp(int(std::ceil(mid)), 0, H);
    colShade_.resize(size_t(H));

    for (int c = 0; c < cfg_.width; ++c) {
        double az = yaw + colAlpha_[size_t(c)];
        RayHit hit = world.raycast(position, az);

        // Perpendicular distance for projection (avoids fisheye).
        double d = std::max(0.05, hit.distance * std::cos(az - yaw));

        // Rows of the wall's top and bottom edges.
        double top_row = mid - focal * (wall_h - cam_z) / d;
        double bot_row = mid + focal * cam_z / d;

        // The per-row branch ladder resolves to three contiguous bands
        // (sky / wall / floor): for integer r, r < top_row iff
        // r < ceil(top_row) and r > bot_row iff r >= floor(bot_row)+1.
        // The floor test is subordinate to the sky test, so the floor
        // band cannot start above the sky band's end.
        float *shade = colShade_.data();
        if (!hit.hit) {
            // Open end of the corridor: horizon split.
            for (int r = 0; r < horizon; ++r)
                shade[r] = 0.85f;
            for (int r = horizon; r < H; ++r)
                shade[r] = 0.15f;
        } else {
            // Clamp in double before the int conversion: row edges can
            // be far outside [0, H) for extreme poses.
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
            const double amp = cfg_.textureAmplitude;

            for (int r = 0; r < sky_end; ++r)
                shade[r] = 0.85f; // sky above the wall
            // Wall: distance shading plus texture jitter keyed on the
            // hit position and row height, one batch of sines per
            // column.
            for (int r0 = sky_end; r0 < floor_begin; r0 += kWallRows) {
                const int n = std::min(kWallRows, floor_begin - r0);
                // Whole batches (rows past the band are computed and
                // dropped), so the loops vectorize at -O2.
                double u[kWallRows], sn[kWallRows];
                for (int k = 0; k < kWallRows; ++k) {
                    double frac = (bot_row - (r0 + k)) / span;
                    u[k] = textureArg(tex_u, frac * wall_h, hit.side);
                }
                for (int k = 0; k < kWallRows; ++k)
                    sn[k] = detmath::sin(u[k]);
                for (int k = 0; k < n; ++k) {
                    float v;
                    if (!(std::abs(u[k]) <= detmath::kSinDomain) ||
                        !pixel::wallIfBracketed(sn[k], shade_base, amp,
                                                v))
                        v = pixel::wall(std::sin(u[k]), shade_base, amp);
                    shade[r0 + k] = v;
                }
            }
            for (int r = floor_begin; r < H; ++r)
                shade[r] = floorShade_[size_t(r)];
        }

        for (int r = 0; r < H; ++r) {
            float &px = img.at(r, c);
            px = float(clampd(shade[r] + px, 0.0, 1.0));
        }
    }
}

double
DepthSensor::sample(const World &world, const Vec3 &position,
                    double heading_rad)
{
    RayHit hit = world.raycast(position, heading_rad, maxRange_);
    double d = hit.hit ? hit.distance : maxRange_;
    d += rng_.gaussian(0.0, noiseStd_);
    return clampd(d, 0.0, maxRange_);
}

double
DepthSensor::sample(const World &world, const Drone &drone)
{
    return sample(world, drone.position(), drone.attitude().yaw());
}

void
Imu::saveState(StateWriter &w) const
{
    rng_.saveState(w);
    w.f64(accelBias_.x);
    w.f64(accelBias_.y);
    w.f64(accelBias_.z);
    w.f64(gyroBias_.x);
    w.f64(gyroBias_.y);
    w.f64(gyroBias_.z);
}

void
Imu::restoreState(StateReader &r)
{
    rng_.restoreState(r);
    accelBias_.x = r.f64();
    accelBias_.y = r.f64();
    accelBias_.z = r.f64();
    gyroBias_.x = r.f64();
    gyroBias_.y = r.f64();
    gyroBias_.z = r.f64();
}

} // namespace rose::env
