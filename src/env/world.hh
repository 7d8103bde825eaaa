/**
 * @file
 * Corridor world geometry for the UAV navigation task.
 *
 * The paper evaluates two Unreal Engine maps (Figure 9): "tunnel", a
 * straight 50 m path 3.2 m wide, and "s-shape", an S-shaped 80 m
 * trajectory with more lateral room. We model both as channel worlds: a
 * centerline y = f(x) with half-width w(x), walls at y = f(x) +- w(x),
 * floor at z = 0 and walls of finite height (used by the camera model).
 * The mission is completed upon reaching x = length() (as in Figure 11:
 * "the mission is completed upon reaching an x-coordinate of 80").
 */

#ifndef ROSE_ENV_WORLD_HH
#define ROSE_ENV_WORLD_HH

#include <memory>
#include <string>
#include <vector>

#include "util/geometry.hh"

namespace rose::env {

/** Result of a horizontal-plane raycast against the corridor walls. */
struct RayHit
{
    /** Distance to the nearest wall along the ray [m]; range-clamped. */
    double distance = 0.0;
    /** True if the ray hit a wall within the max range. */
    bool hit = false;
    /** World position of the hit point (valid when hit). */
    Vec3 point;
    /** +1 if the left wall (y > center) was hit, -1 for the right wall. */
    int side = 0;
};

/** A cylindrical pillar obstacle standing on the corridor floor. */
struct Obstacle
{
    double x = 0.0;
    double y = 0.0;
    double radius = 0.4;
};

/**
 * Abstract corridor world. Coordinates: x is mission progress, y is
 * lateral, z is altitude. Worlds may additionally carry pillar
 * obstacles (full-height cylinders): they block rays (so the camera
 * renders them and the depth sensor sees them) and collide like walls.
 */
class World
{
  public:
    virtual ~World() = default;

    /** Human-readable map name ("tunnel", "s-shape"). */
    virtual std::string name() const = 0;

    /** Mission length along x [m]. */
    virtual double length() const = 0;

    /** Centerline lateral position at progress x. */
    virtual double centerY(double x) const = 0;

    /** Corridor half-width at progress x. */
    virtual double halfWidth(double x) const = 0;

    /** Wall height used by the camera model [m]. */
    virtual double wallHeight() const { return 4.0; }

    /** Slope dCenterY/dx, default via central difference. */
    virtual double centerSlope(double x) const;

    /** Heading of the corridor tangent at x [rad]. */
    double tangentAngle(double x) const;

    /** Signed lateral offset of a point from the centerline (+ = left). */
    double lateralOffset(const Vec3 &pos) const;

    /**
     * Check whether a sphere of the given radius at pos penetrates a
     * wall, the floor, or the entry plane.
     */
    bool collides(const Vec3 &pos, double radius) const;

    /** True once the mission end plane has been crossed. */
    bool missionComplete(const Vec3 &pos) const
    { return pos.x >= length(); }

    /**
     * March a ray from origin along the horizontal direction given by
     * azimuth (world yaw) until it exits the corridor through a wall
     * or strikes a pillar obstacle, whichever is closer.
     *
     * Every world implements this with the same march over its own
     * concrete type, so the ~80 centerY/halfWidth evaluations of one
     * ray are direct, inlinable calls behind a single virtual one.
     *
     * @param origin ray start; only x/y are used for wall intersection.
     * @param azimuth world-frame heading of the ray [rad].
     * @param max_range give up after this distance [m].
     */
    virtual RayHit raycast(const Vec3 &origin, double azimuth,
                           double max_range = 60.0) const = 0;

    /** Add a pillar obstacle. */
    void addObstacle(const Obstacle &o) { obstacles_.push_back(o); }

    const std::vector<Obstacle> &obstacles() const
    { return obstacles_; }

  private:
    std::vector<Obstacle> obstacles_;
};

/** Straight 50 m corridor, 3.2 m wide (walls at y = +-1.6 m). */
class TunnelWorld final : public World
{
  public:
    std::string name() const override { return "tunnel"; }
    double length() const override { return 50.0; }
    double centerY(double) const override { return 0.0; }
    double halfWidth(double) const override { return 1.6; }
    double centerSlope(double) const override { return 0.0; }
    RayHit raycast(const Vec3 &origin, double azimuth,
                   double max_range = 60.0) const override;

    /** Bound on |d centerY/dx| (the raycast's clearance skip). */
    static constexpr double kSlopeBound = 0.0;
};

/**
 * S-shaped 80 m corridor: centerline swings one full S (half sine
 * period each way), wider than the tunnel so there is room for error
 * but constant correction is required.
 */
class SShapeWorld final : public World
{
  public:
    std::string name() const override { return "s-shape"; }
    double length() const override { return kLength; }

    double
    centerY(double x) const override
    {
        return kAmplitude * std::sin(2.0 * kPi * x / length());
    }

    double halfWidth(double) const override { return 2.0; }

    double
    centerSlope(double x) const override
    {
        return kAmplitude * (2.0 * kPi / length()) *
               std::cos(2.0 * kPi * x / length());
    }

    RayHit raycast(const Vec3 &origin, double azimuth,
                   double max_range = 60.0) const override;

  private:
    static constexpr double kLength = 80.0;
    static constexpr double kAmplitude = 8.0;

  public:
    /** Bound on |d centerY/dx| = 2 pi A / L (the raycast's clearance
     *  skip). */
    static constexpr double kSlopeBound = 2.0 * kPi * kAmplitude / kLength;
};

/**
 * Zigzag corridor: piecewise-linear centerline alternating heading by
 * +-zigzag angle every segment — sharper direction reversals than the
 * s-shape's smooth sine, stressing the controller's correction rate
 * (smoothed corners keep the slope continuous for the raycaster).
 */
class ZigzagWorld final : public World
{
  public:
    std::string name() const override { return "zigzag"; }
    double length() const override { return 60.0; }
    double halfWidth(double) const override { return 2.2; }
    double centerY(double x) const override;
    double centerSlope(double x) const override;
    RayHit raycast(const Vec3 &origin, double azimuth,
                   double max_range = 60.0) const override;

  private:
    static constexpr double kSegment = 15.0; ///< segment length [m]
    static constexpr double kSlope = 0.35;   ///< tan of zig angle
    static constexpr double kRound = 2.0;    ///< corner rounding [m]
    static constexpr double kStep = 0.25;    ///< centerY's trapezoid step

  public:
    /**
     * Bound on |d centerY/dx| (the raycast's clearance skip). centerY
     * is the trapezoid rule over centerSlope s, so inside one step
     * [t, t + h] its slope is (s(t) + s(x)) / 2 + s'(x) (x − t) / 2.
     * |s| <= kSlope, and a corner blend's smoothstep moves s by at most
     * 2 kSlope at a rate of at most 1.5 / (2 kRound), so
     * |s'| <= 1.5 kSlope / kRound and the slope stays within
     * kSlope (1 + 0.75 h / kRound) ≈ 0.383.
     */
    static constexpr double kSlopeBound =
        kSlope * (1.0 + 0.75 * kStep / kRound);
};

/** Construct a world by map name; fatal on unknown names. */
std::unique_ptr<World> makeWorld(const std::string &name);

/**
 * Process-wide shared immutable world geometry, built once per map name
 * and handed out read-only to every mission (thread-safe; used by
 * parallel mission batches). Missions that place obstacles get a
 * private mutable copy from makeWorld() instead.
 */
std::shared_ptr<const World> sharedWorld(const std::string &name);

} // namespace rose::env

#endif // ROSE_ENV_WORLD_HH
