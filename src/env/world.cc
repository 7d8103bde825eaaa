#include "world.hh"

#include <cmath>
#include <stdexcept>

#include "util/logging.hh"
#include "util/memo.hh"

namespace rose::env {

double
World::centerSlope(double x) const
{
    const double h = 1e-4;
    return (centerY(x + h) - centerY(x - h)) / (2.0 * h);
}

double
World::tangentAngle(double x) const
{
    return std::atan2(centerSlope(x), 1.0);
}

double
World::lateralOffset(const Vec3 &pos) const
{
    return pos.y - centerY(pos.x);
}

bool
World::collides(const Vec3 &pos, double radius) const
{
    if (pos.z < 0.0)
        return true; // below the floor
    if (pos.x < -2.0)
        return true; // flew backwards out of the start area
    for (const Obstacle &o : obstacles_) {
        double dx = pos.x - o.x, dy = pos.y - o.y;
        if (dx * dx + dy * dy <= (o.radius + radius) * (o.radius + radius))
            return true;
    }
    double off = lateralOffset(pos);
    return std::abs(off) + radius >= halfWidth(pos.x);
}

namespace {

/** Nearest ray-circle intersection distance, or a negative value. */
double
rayCircle(double ox, double oy, double dx, double dy,
          const Obstacle &o)
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

/**
 * The raycast march over a concrete (final) world type, so centerY and
 * halfWidth resolve statically and inline. The walls are smooth
 * analytic curves; fixed-step marching with a bisection refinement is
 * robust and plenty fast for sensor rates.
 */
template <typename W>
RayHit
marchRay(const W &world, const Vec3 &origin, double azimuth,
         double max_range)
{
    const double coarse = 0.10;
    double dx = std::cos(azimuth);
    double dy = std::sin(azimuth);

    // Nearest pillar strike bounds the wall search.
    double pillar_t = max_range + 1.0;
    for (const Obstacle &o : world.obstacles()) {
        double t = rayCircle(origin.x, origin.y, dx, dy, o);
        if (t >= 0.0 && t < pillar_t)
            pillar_t = t;
    }

    auto outside = [&](double t) {
        double x = origin.x + dx * t;
        double y = origin.y + dy * t;
        return std::abs(y - world.centerY(x)) >= world.halfWidth(x);
    };

    RayHit hit;
    if (outside(0.0)) {
        // Ray starts inside a wall; report an immediate hit.
        hit.hit = true;
        hit.distance = 0.0;
        hit.point = origin;
        hit.side = world.lateralOffset(origin) > 0.0 ? 1 : -1;
        return hit;
    }

    auto pillarHit = [&]() {
        RayHit h;
        h.hit = true;
        h.distance = pillar_t;
        h.point = Vec3{origin.x + dx * pillar_t,
                       origin.y + dy * pillar_t, origin.z};
        h.side = world.lateralOffset(h.point) > 0.0 ? 1 : -1;
        return h;
    };

    double t_prev = 0.0;
    for (double t = coarse; t <= max_range; t += coarse) {
        if (t > pillar_t && pillar_t <= max_range)
            return pillarHit();
        if (outside(t)) {
            // Bisect [t_prev, t] to localize the crossing.
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
                (hit.point.y - world.centerY(hit.point.x)) > 0.0 ? 1 : -1;
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

} // namespace

RayHit
TunnelWorld::raycast(const Vec3 &origin, double azimuth,
                     double max_range) const
{
    return marchRay(*this, origin, azimuth, max_range);
}

RayHit
SShapeWorld::raycast(const Vec3 &origin, double azimuth,
                     double max_range) const
{
    return marchRay(*this, origin, azimuth, max_range);
}

RayHit
ZigzagWorld::raycast(const Vec3 &origin, double azimuth,
                     double max_range) const
{
    return marchRay(*this, origin, azimuth, max_range);
}

namespace {

/** Smoothstep blend used to round zigzag corners. */
double
smoothstep(double e0, double e1, double x)
{
    double t = clampd((x - e0) / (e1 - e0), 0.0, 1.0);
    return t * t * (3.0 - 2.0 * t);
}

} // namespace

double
ZigzagWorld::centerSlope(double x) const
{
    // Segment k has slope +kSlope for even k, -kSlope for odd k.
    // Corners blend symmetrically over [corner - kRound,
    // corner + kRound]; at most one blend is active at a time since
    // kRound < kSegment / 2.
    int k = int(std::floor(x / kSegment));
    double sign = (k % 2 == 0) ? 1.0 : -1.0;
    double here = sign * kSlope;
    double prev = k == 0 ? 0.0 : -here;
    double next = -here;
    double corner_prev = double(k) * kSegment;
    double corner_next = double(k + 1) * kSegment;

    if (x < corner_prev + kRound) {
        return lerp(prev, here,
                    smoothstep(corner_prev - kRound,
                               corner_prev + kRound, x));
    }
    if (x > corner_next - kRound) {
        return lerp(here, next,
                    smoothstep(corner_next - kRound,
                               corner_next + kRound, x));
    }
    return here;
}

double
ZigzagWorld::centerY(double x) const
{
    // Integrate the slope numerically; the step is fine enough for
    // sensor rates and the result is cached nowhere (cheap anyway).
    const double h = 0.25;
    double y = 0.0;
    double t = 0.0;
    while (t + h <= x) {
        y += 0.5 * (centerSlope(t) + centerSlope(t + h)) * h;
        t += h;
    }
    if (x > t)
        y += 0.5 * (centerSlope(t) + centerSlope(x)) * (x - t);
    return y;
}

std::unique_ptr<World>
makeWorld(const std::string &name)
{
    if (name == "tunnel")
        return std::make_unique<TunnelWorld>();
    if (name == "s-shape" || name == "sshape")
        return std::make_unique<SShapeWorld>();
    if (name == "zigzag")
        return std::make_unique<ZigzagWorld>();
    // Throw instead of aborting so one bad world name in a batch spec
    // fails its mission slot, not the whole process.
    throw std::invalid_argument("unknown world: " + name);
}

std::shared_ptr<const World>
sharedWorld(const std::string &name)
{
    static MemoCache<std::string, World> cache;
    return cache.getOrBuild(
        name, [&name]() -> std::shared_ptr<World> {
            return makeWorld(name);
        });
}

} // namespace rose::env
