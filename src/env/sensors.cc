#include "sensors.hh"

#include <algorithm>
#include <cmath>

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

namespace pixel {

float
noise(double g, double stddev)
{
    return float(0.0 + stddev * g);
}

float
wall(double s, double base, double amp)
{
    double v = s * 43758.5453;
    double tex = v - std::floor(v); // [0,1)
    return float(base * (1.0 + amp * (tex - 0.5)));
}

uint8_t
byte(float shade, float noise)
{
    return static_cast<uint8_t>(
        clampd(double(shade + noise), 0.0, 1.0) * 255.0 + 0.5);
}

// The margins bound |t' - t|, where t = v·255 + 0.5 is the exact
// chain's value (v the clamped float pixel) and t' the binary32
// estimate byteIfDecided() forms. In pixel units, before the ×255:
// the noise floats differ by |σ|·(the Gaussian's bracket) plus five
// binary32 roundings of a term up to |σ|·9 (|g| < 8.6), under
// 2^-18·|σ|; the two shade + noise sums round by 2^-24 of a value up
// to 1 + 9|σ| each, folded into the same terms; t' itself rounds twice
// by at most 2^-24·256. kByteSlack covers the constant part (~2^-14)
// with 2x to spare.
float
noiseMargin(double stddev)
{
    constexpr double kByteSlack = 0x1p-13;
    return float(kByteSlack +
                 255.0 * std::abs(stddev) * (kGaussianBracket + 0x1p-18));
}

float
wallMargin(double base, double amp)
{
    // |Δshade| <= |base·amp|·|Δtex| while the hash keeps its floor,
    // plus one float rounding of each shade (and the double
    // roundings before it): 2^-22 of the largest shade.
    return float(255.0 * (std::abs(base * amp) * kHashBracket +
                          0x1p-22 * std::abs(base) * (1.0 + std::abs(amp))));
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

/** Box-Muller pairs per noise batch: one column of the 64x48 mission
 *  camera, whose pairs never straddle columns. */
constexpr int kNoisePairs = 24;
/** Noise values per batch. */
constexpr int kNoiseLanes = 2 * kNoisePairs;
/** Wall-band rows per texture batch. */
constexpr int kWallRows = 16;
/** A margin no estimate meets: the row takes the exact path. */
constexpr float kExactOnly = 2.f;

/**
 * A frame's Gaussian draws, in gaussian()'s order, handed out one
 * column chunk at a time as binary32 lanes. The incoming spare comes
 * first, then uniform pairs drawn as gaussian() draws them (u1 with
 * its rejection, then u2) and transformed by detmath's binary32
 * kernels, then the frame's last pair through gaussian() itself: its
 * sine part stays behind as the spare that checkpoints serialize
 * (live when one draw is left, stale when two are), so it must be the
 * libm value. exact() gives any lane's libm value. A column with an
 * odd number of draws leaves its last pair's sine half to the next
 * chunk, in lane 1.
 */
class FrameNoise
{
  public:
    FrameNoise(Rng &rng, int draws) : rng_(rng)
    {
        if (draws > 0 && rng_.hasSpare()) {
            // The spare stands as the sine half of a previous draw's
            // last pair, a gaussian() one in no slot.
            carry_ = 1;
            lastSin_ = rng_.gaussian();
            --draws;
        }
        fastLeft_ = std::max(0, (draws + 1) / 2 - 1);
        lastUsesBoth_ = draws > 0 && draws % 2 == 0;
    }

    /** Lane of the next draw: 1 when a pair's sine half carries. */
    int offset() const { return carry_; }

    /** Draw the next @p n values into lanes [offset(), offset() + n);
     *  offset() + n <= kNoiseLanes. */
    void draw(int n);

    const float *lanes() const { return g_; }

    /** The libm value of lane @p j of the last draw(). */
    double
    exact(int j) const
    {
        const int slot = j >> 1;
        const bool sinHalf = j & 1;
        if (slot == 0 && carryExact_)
            return carrySin_;
        if (slot == lastSlot_)
            return sinHalf ? lastSin_ : lastCos_;
        double s;
        double c = Rng::boxMuller(u1_[slot], u2_[slot], s);
        return sinHalf ? s : c;
    }

  private:
    Rng &rng_;
    int fastLeft_ = 0;          ///< pairs left for the fast kernels
    bool lastUsesBoth_ = false; ///< the last pair feeds two pixels
    int carry_ = 0;
    int pairs_ = 0; ///< slots the last draw() used
    // This draw's gaussian() values: the carried one, in slot 0...
    bool carryExact_ = false;
    double carrySin_ = 0.0;
    // ...and the frame's last pair, in slot lastSlot_ (or none, -1).
    int lastSlot_ = -1;
    double lastCos_ = 0.0, lastSin_ = 0.0;
    double u1_[kNoisePairs], u2_[kNoisePairs];
    /** One lane past kNoiseLanes, so a chunk starting at lane 1 still
     *  reads whole batches. */
    float g_[kNoiseLanes + 1] = {};
};

void
FrameNoise::draw(int n)
{
    carryExact_ = false;
    if (carry_) {
        // The previous draw's last slot moves to slot 0.
        const int from = pairs_ - 1;
        u1_[0] = from >= 0 ? u1_[from] : 0.5;
        u2_[0] = from >= 0 ? u2_[from] : 0.0;
        carryExact_ = from == lastSlot_;
        carrySin_ = lastSin_;
    }
    const int pairs = (carry_ + n + 1) / 2;
    lastSlot_ = -1;
    for (int k = carry_; k < pairs; ++k) {
        if (fastLeft_ > 0) {
            rng_.boxMullerUniforms(u1_[k], u2_[k]);
            --fastLeft_;
            continue;
        }
        lastSlot_ = k;
        lastCos_ = rng_.gaussian();
        lastSin_ = lastUsesBoth_ ? rng_.gaussian() : 0.0;
        u1_[k] = 0.5; // placeholder lanes, overwritten below
        u2_[k] = 0.0;
    }
    for (int k = pairs; k < kNoisePairs; ++k) {
        u1_[k] = 0.5; // padding lanes, never read back
        u2_[k] = 0.0;
    }
    // Fixed-count loops without calls, so GCC runs them lane-parallel
    // at the baseline ISA. The sqrt sits in its own scalar loop: its
    // errno branch would keep a loop scalar.
    float r[kNoisePairs], s[kNoisePairs], c[kNoisePairs];
    for (int k = 0; k < kNoisePairs; ++k)
        r[k] = -2.0f * detmath::log32(u1_[k]);
    for (int k = 0; k < kNoisePairs; ++k)
        r[k] = std::sqrt(r[k]);
    for (int k = 0; k < kNoisePairs; ++k)
        detmath::sincos2pi32(u2_[k], s[k], c[k]);
    for (int k = 0; k < kNoisePairs; ++k) {
        g_[2 * k] = r[k] * c[k];
        g_[2 * k + 1] = r[k] * s[k];
    }
    if (carryExact_)
        g_[1] = float(carrySin_);
    if (lastSlot_ >= 0) {
        g_[2 * lastSlot_] = float(lastCos_);
        g_[2 * lastSlot_ + 1] = float(lastSin_);
    }
    carry_ = (carry_ + n) & 1;
    pairs_ = pairs;
}

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
Camera::renderInto(const World &world, const Vec3 &position,
                   const Quat &attitude, uint8_t *out)
{
    double yaw = attitude.yaw();
    double hfov = deg2rad(cfg_.horizontalFovDeg);
    // Pinhole focal length in pixels (same for both axes).
    double focal = (cfg_.width / 2.0) / std::tan(hfov / 2.0);
    ensureDirections(focal);
    double cam_z = position.z;
    double wall_h = world.wallHeight();
    const int W = cfg_.width;
    const int H = cfg_.height;
    const double mid = H / 2.0 - 0.5;
    const double sd = cfg_.noiseStd;
    const float sdf = float(sd);
    const float noiseMargin = pixel::noiseMargin(sd);

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
    // Padded so the byte loop reads whole noise batches, and so a wall
    // batch may run past the band (its extra rows are overwritten by
    // the floor or never read back).
    colShade_.resize(size_t(H) + kNoiseLanes);
    colMargin_.resize(size_t(H) + kNoiseLanes);
    float *shade = colShade_.data();
    float *margin = colMargin_.data();

    FrameNoise noise(rng_, W * H);
    for (int c = 0; c < W; ++c) {
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
        int wall_begin = 0, wall_end = 0;
        double shade_base = 0.0, span = 1.0, tex_u = 0.0;
        const double amp = cfg_.textureAmplitude;
        // The texture argument of wall row r.
        auto wallArg = [&](int r) {
            double frac = (bot_row - r) / span;
            return textureArg(tex_u, frac * wall_h, hit.side);
        };
        if (!hit.hit) {
            // Open end of the corridor: horizon split.
            for (int r = 0; r < horizon; ++r)
                shade[r] = 0.85f;
            for (int r = horizon; r < H; ++r)
                shade[r] = 0.15f;
            for (int r = 0; r < H; ++r)
                margin[r] = noiseMargin;
        } else {
            // Clamp in double before the int conversion: row edges can
            // be far outside [0, H) for extreme poses.
            wall_begin =
                int(std::clamp(std::ceil(top_row), 0.0, double(H)));
            wall_end = std::max(
                wall_begin,
                int(std::clamp(std::floor(bot_row) + 1.0, 0.0,
                               double(H))));

            shade_base = 0.25 + 0.6 / (1.0 + 0.12 * hit.distance);
            span = std::max(1.0, bot_row - top_row);
            tex_u = hit.point.x + hit.point.y;
            const float wallMargin =
                noiseMargin + pixel::wallMargin(shade_base, amp);

            for (int r = 0; r < wall_begin; ++r) {
                shade[r] = 0.85f; // sky above the wall
                margin[r] = noiseMargin;
            }
            // Wall: distance shading plus texture jitter keyed on the
            // hit position and row height, from detmath's sine, one
            // batch per 16 rows. Whole batches (rows past the band are
            // computed and overwritten), so the loops vectorize at -O2.
            // A row the fast sine cannot decide takes the exact path.
            for (int r0 = wall_begin; r0 < wall_end; r0 += kWallRows) {
                double u[kWallRows], sn[kWallRows];
                // Staged on the stack: stores through two float
                // pointers would need an alias check the -O2
                // vectorizer does not make.
                float sh[kWallRows], mg[kWallRows];
                for (int k = 0; k < kWallRows; ++k)
                    u[k] = wallArg(r0 + k);
                for (int k = 0; k < kWallRows; ++k)
                    sn[k] = detmath::sin(u[k]);
                for (int k = 0; k < kWallRows; ++k) {
                    bool fast = pixel::wallIfFast(u[k], sn[k], shade_base,
                                                  amp, sh[k]);
                    mg[k] = fast ? wallMargin : kExactOnly;
                }
                std::copy(sh, sh + kWallRows, shade + r0);
                std::copy(mg, mg + kWallRows, margin + r0);
            }
            for (int r = wall_end; r < H; ++r) {
                shade[r] = floorShade_[size_t(r)];
                margin[r] = noiseMargin;
            }
        }

        // Noise and bytes, one batch of draws per chunk of rows.
        for (int r0 = 0; r0 < H;) {
            const int lane0 = noise.offset();
            const int n = std::min(H - r0, kNoiseLanes - lane0);
            noise.draw(n);
            const float *g = noise.lanes() + lane0;
            int32_t b[kNoiseLanes];
            for (int k = 0; k < kNoiseLanes; ++k)
                b[k] = pixel::byteIfDecided(shade[r0 + k], sdf, g[k],
                                            margin[r0 + k]);
            for (int k = 0; k < n; ++k) {
                const int r = r0 + k;
                uint8_t px = uint8_t(b[k]);
                if (b[k] < 0) {
                    float exactShade =
                        r >= wall_begin && r < wall_end
                            ? pixel::wall(std::sin(wallArg(r)),
                                          shade_base, amp)
                            : shade[r];
                    px = pixel::byte(
                        exactShade,
                        pixel::noise(noise.exact(lane0 + k), sd));
                }
                out[size_t(r) * W + c] = px;
            }
            r0 += n;
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
