/**
 * @file
 * Sensor models: IMU (accelerometer + gyroscope with bias and noise),
 * forward-facing depth sensor, and a first-person-view camera that
 * renders synthetic luminance rasters of the corridor.
 *
 * These substitute for AirSim's inertial sensor models and Unreal's
 * camera rendering. The camera image is a real raster (ray-cast walls
 * with distance shading, per-wall texture jitter, floor and sky bands),
 * carrying exactly the pose-relative-to-corridor information the
 * TrailNet-style classifiers consume. Sensors sample from a
 * SensorFrame (or a position and heading) so any vehicle model
 * (quadrotor, rover) can carry them.
 */

#ifndef ROSE_ENV_SENSORS_HH
#define ROSE_ENV_SENSORS_HH

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "env/vehicle.hh"
#include "env/world.hh"
#include "util/detmath.hh"
#include "util/geometry.hh"
#include "util/rng.hh"

namespace rose::env {

/** One IMU reading in the body frame. */
struct ImuSample
{
    /** Specific force [m/s^2] (gravity-reactive, as a real IMU reads). */
    Vec3 accel;
    /** Angular rate [rad/s]. */
    Vec3 gyro;
    /** Environment time of sampling [s]. */
    double timestamp = 0.0;
};

/**
 * Grayscale float image, row-major, values in [0, 1]: the form the
 * control app decodes the camera's 8-bit wire frame into.
 */
struct Image
{
    int width = 0;
    int height = 0;
    std::vector<float> pixels;

    Image() = default;
    Image(int w, int h) : width(w), height(h), pixels(size_t(w) * h, 0.f) {}

    float &at(int row, int col)
    { return pixels[size_t(row) * width + col]; }
    float at(int row, int col) const
    { return pixels[size_t(row) * width + col]; }
};

/** Noise/bias configuration for the IMU model. */
struct ImuConfig
{
    double accelNoiseStd = 0.05;  // [m/s^2]
    double gyroNoiseStd = 0.005;  // [rad/s]
    double accelBiasStd = 0.02;   // per-run constant bias draw
    double gyroBiasStd = 0.002;
    double gravity = 9.81;
};

/** IMU model; biases are drawn once per construction from the RNG. */
class Imu
{
  public:
    Imu(const ImuConfig &cfg, Rng rng);

    /** Sample the IMU from a vehicle sensor frame. */
    ImuSample sample(const SensorFrame &frame, double time_s);

    /** Serialize noise stream + per-run bias draws. */
    void saveState(StateWriter &w) const;
    void restoreState(StateReader &r);

  private:
    ImuConfig cfg_;
    Rng rng_;
    Vec3 accelBias_;
    Vec3 gyroBias_;
};

/** Camera intrinsics; the paper's FPV camera has a 90 degree FOV. */
struct CameraConfig
{
    int width = 64;
    int height = 48;
    double horizontalFovDeg = 90.0;
    /** Pixel noise standard deviation. */
    double noiseStd = 0.01;
    /** Amplitude of per-wall-position texture variation. */
    double textureAmplitude = 0.15;
};

/**
 * The camera's per-pixel chains (DESIGN.md §5e). A wire byte is
 * byte(shade, noise(g, σ)): the float shade (sky, floor, or the wall's
 * texture-jittered shade at a sine s), plus the noise float of a
 * Gaussian g, clamped to [0, 1] and quantized as
 * uint8(v·255 + 0.5). The byte is a monotone function of g, and of s
 * while ⌊s·43758.5453⌋ stays fixed, so a fast g or s within a known
 * distance of libm's decides the byte whenever the binary32 estimate
 * byteIfDecided() forms lies farther than a margin from a byte
 * boundary. The render recomputes every other pixel with libm.
 */
namespace pixel {

/** Bound on |fast Box-Muller g - libm g| (detmath's binary32
 *  kernels): ~76x its measured worst case. */
inline constexpr double kGaussianBracket = 0x1p-14;
/** Bound on |detmath::sin - std::sin| over the texture arguments:
 *  ~67x its measured worst case. */
inline constexpr double kSinBracket = 0x1p-31;
/** Bound on how far a fast texture hash v = s·43758.5453 lies from
 *  libm's: the sine's bracket scaled, plus v's own rounding. */
inline constexpr double kHashBracket = 43758.5453 * kSinBracket + 0x1p-36;

/** The noise float a Gaussian draw @p g adds to a pixel. */
float noise(double g, double stddev);

/** The wall shade at texture sine @p s: the distance shade @p base
 *  jittered by frac(s * 43758.5453), with amplitude @p amp. */
float wall(double s, double base, double amp);

/** The wire byte of a pixel with float @p shade and @p noise. */
uint8_t byte(float shade, float noise);

/**
 * Margin, in byte steps, a pixel needs when its noise comes from a
 * fast Gaussian of standard deviation @p stddev: the Gaussian's bracket
 * scaled by 255·|σ|, plus the rounding of both float chains.
 */
float noiseMargin(double stddev);

/**
 * Margin a wall pixel adds when its shade comes from a fast texture
 * sine: the hash's bracket scaled by 255·|base·amp|, plus the shade's
 * float rounding.
 */
float wallMargin(double base, double amp);

/**
 * The wall shade from a fast texture sine @p s of argument @p u, or
 * false when it cannot stand in for libm's sine there: u is outside
 * detmath's domain, or the hash v = s·43758.5453 lies within
 * kHashBracket of an integer, where ⌊v⌋ may differ from libm's. Then
 * @p shade is meaningless (NaN for a NaN sine). Branch-free, so a loop
 * over it runs lane-parallel.
 */
inline bool
wallIfFast(double u, double s, double base, double amp, float &shade)
{
    // v - floor(v), bit for bit for |v| < 2^51 (out-of-domain garbage
    // fails the domain test anyway), from v's nearest integer: no int
    // conversion, and no select the compiler would turn into a branch.
    double v = s * 43758.5453;
    double r = (v + 0x1.8p52) - 0x1.8p52;
    double tex = v - r + double(r > v); // [0,1]
    shade = float(base * (1.0 + amp * (tex - 0.5)));
    return (std::abs(u) <= detmath::kSinDomain) & (tex >= kHashBracket) &
           (tex <= 1.0 - kHashBracket);
}

/**
 * The byte of shade + sd·g estimated in binary32, or -1 when the
 * estimate lies within @p margin of a byte boundary (or is NaN): then
 * only the exact chain can decide it. Branch-free, so a loop over it
 * runs lane-parallel.
 */
inline int32_t
byteIfDecided(float shade, float sd, float g, float margin)
{
    float x = shade + sd * g;
    // Clamp to [0, 1] on the bits, where the compiler keeps no branch:
    // a set sign bit gives +0, and every pattern above 1.0 (+NaN
    // included) gives 1.0, so t stays finite.
    uint32_t b = std::bit_cast<uint32_t>(x);
    b &= ~uint32_t(int32_t(b) >> 31);
    b = b < 0x3f800000u ? b : 0x3f800000u;
    float t = std::bit_cast<float>(b) * 255.f + 0.5f;
    int32_t i = int32_t(t);
    float f = t - float(i);
    return (f >= margin) & (1.f - f >= margin) & (x == x) ? i : -1;
}

} // namespace pixel

/**
 * FPV camera. Renders the corridor by casting one ray per image column
 * (the walls are vertical, so a column shares one wall hit), then fills
 * each column with sky / wall / floor bands using a pinhole projection
 * of the wall's top and bottom edges, plus one Gaussian noise draw per
 * pixel in column-major order. Its output is the bridge's 8-bit frame.
 */
class Camera
{
  public:
    Camera(const CameraConfig &cfg, Rng rng);

    /**
     * Render the view from a pose as width x height row-major 8-bit
     * pixels into @p pixels (the ImageResp payload): each byte is
     * pixel::byte() of the libm-rendered float pixel. No steady-state
     * allocation.
     */
    void renderInto(const World &world, const Vec3 &position,
                    const Quat &attitude, uint8_t *pixels);

    const CameraConfig &config() const { return cfg_; }

    /** Serialize the pixel-noise stream. */
    void saveState(StateWriter &w) const { rng_.saveState(w); }
    void restoreState(StateReader &r) { rng_.restoreState(r); }

  private:
    /** Rebuild the per-column direction table when the key changes. */
    void ensureDirections(double focal);

    CameraConfig cfg_;
    Rng rng_;
    /**
     * Cached per-column azimuth offsets atan2(u, focal): pure camera
     * geometry, so they are hoisted out of the per-frame loop and
     * invalidated only when width/FOV change. Only the atan2 value is
     * cached — the render still forms az = yaw + alpha and cos(az -
     * yaw) exactly as before, because (yaw + alpha) - yaw != alpha in
     * floating point and bit-identical frames are the contract.
     */
    std::vector<double> colAlpha_;
    double dirFocal_ = 0.0; ///< focal the table was built for
    /**
     * Per-frame floor-shade table: the floor brightness at row r
     * depends only on (focal, cam_z, r), not on the column, so it is
     * computed once per frame with the exact per-pixel expression and
     * looked up per column (one divide per row instead of per floor
     * pixel).
     */
    std::vector<float> floorShade_;
    /** Per-column staging: each row's shade (fast on the wall) and
     *  the margin its byte needs, padded past the last row so the
     *  byte loop runs whole noise batches. */
    std::vector<float> colShade_;
    std::vector<float> colMargin_;
};

/**
 * Forward depth sensor used by the dynamic runtime (Section 5.3:
 * "we determine the deadline by measuring forward-facing depth-sensor
 * readings"). Returns the distance to the nearest obstacle in the
 * current heading.
 */
class DepthSensor
{
  public:
    DepthSensor(double max_range, double noise_std, Rng rng)
        : maxRange_(max_range), noiseStd_(noise_std), rng_(rng) {}

    double sample(const World &world, const Vec3 &position,
                  double heading_rad);

    /** Serialize the range-noise stream. */
    void saveState(StateWriter &w) const { rng_.saveState(w); }
    void restoreState(StateReader &r) { rng_.restoreState(r); }

  private:
    double maxRange_;
    double noiseStd_;
    Rng rng_;
};

} // namespace rose::env

#endif // ROSE_ENV_SENSORS_HH
