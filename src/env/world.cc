#include "world.hh"

#include <array>
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

/** The march's fixed step [m]. */
constexpr double kCoarse = 0.10;

/** Table length: steps up to ~102 m, past the camera's 60 m rays. */
constexpr size_t kMarchSteps = 1024;

/**
 * The march's step distances: t_0 = 0 and t_k = fl(t_{k-1} + 0.1),
 * the exact values a `t += 0.1` loop visits (not k / 10). Every ray
 * shares them, so a ray can jump to step k without adding its way
 * there.
 */
const std::array<double, kMarchSteps> &
marchSteps()
{
    static const std::array<double, kMarchSteps> steps = [] {
        std::array<double, kMarchSteps> t{};
        for (size_t k = 1; k < kMarchSteps; ++k)
            t[k] = t[k - 1] + kCoarse;
        return t;
    }();
    return steps;
}

/**
 * The first step index k >= @p from with t_k >= @p t, or the table's
 * last index if there is none. A NaN @p t gives @p from.
 */
size_t
firstStepFrom(size_t from, double t)
{
    const std::array<double, kMarchSteps> &steps = marchSteps();
    constexpr size_t last = kMarchSteps - 1;
    // t_k is within a few ulps of k / 10, so the guess is off by at
    // most one step; the two walks make the answer exact regardless.
    double guess = std::floor(t / kCoarse);
    size_t k = from;
    if (guess > double(from))
        k = guess < double(last) ? size_t(guess) : last;
    while (k > from && steps[k - 1] >= t)
        --k;
    while (k < last && steps[k] < t)
        ++k;
    return k;
}

/**
 * The raycast march over a concrete (final) world type, so centerY and
 * halfWidth resolve statically and inline. The walls are smooth
 * analytic curves; fixed-step marching with a bisection refinement is
 * robust and plenty fast for sensor rates.
 *
 * A step is only evaluated when it may be outside. Moving the point by
 * s along the ray changes |y − centerY(x)| by at most
 * s (|dy| + |dx| W::kSlopeBound), and halfWidth is constant, so every
 * step closer than (clearance − margin) / that rate to the last
 * evaluated one is inside and is passed over. The margin, 1e-8 of the
 * coordinate scale, is far above the rounding of x, y and centerY.
 * A skip may pass the first step beyond pillar_t: the march reports a
 * pillar from pillar_t alone, at whichever visited step first lies
 * beyond it (or at the end of the range), and the steps passed over
 * are inside, so the result is still the full march's. t_prev is
 * always the step before the evaluated one, so the bisection brackets
 * the same [t_prev, t] (DESIGN.md §5e).
 */
template <typename W>
RayHit
marchRay(const W &world, const Vec3 &origin, double azimuth,
         double max_range)
{
    double dx = std::cos(azimuth);
    double dy = std::sin(azimuth);

    // Nearest pillar strike bounds the wall search.
    double pillar_t = max_range + 1.0;
    for (const Obstacle &o : world.obstacles()) {
        double t = rayCircle(origin.x, origin.y, dx, dy, o);
        if (t >= 0.0 && t < pillar_t)
            pillar_t = t;
    }

    // |y − centerY(x)| and halfWidth(x) at distance t along the ray.
    struct Probe
    {
        double off;
        double halfWidth;
    };
    auto probe = [&](double t) {
        double x = origin.x + dx * t;
        double y = origin.y + dy * t;
        return Probe{std::abs(y - world.centerY(x)), world.halfWidth(x)};
    };
    auto outside = [&](double t) {
        Probe p = probe(t);
        return p.off >= p.halfWidth;
    };

    RayHit hit;
    const Probe start = probe(0.0);
    if (start.off >= start.halfWidth) {
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

    const double rate = std::abs(dy) + std::abs(dx) * W::kSlopeBound;
    const double margin =
        1e-8 * (1.0 + std::abs(origin.x) + std::abs(origin.y) + max_range);
    // The first step that may be outside (NaN: every step).
    auto skipTo = [&](double t, const Probe &p) {
        return t + (p.halfWidth - p.off - margin) / rate;
    };

    const std::array<double, kMarchSteps> &steps = marchSteps();
    double t_skip = skipTo(0.0, start);
    size_t k = 1;
    double t_prev = 0.0;
    double t = steps[1];
    while (t <= max_range) {
        if (t > pillar_t && pillar_t <= max_range)
            return pillarHit();
        if (!(t < t_skip)) {
            Probe p = probe(t);
            if (p.off >= p.halfWidth) {
                // Bisect [t_prev, t] to localize the crossing. Both
                // updates are selects of values already computed, which
                // compile to compare masks instead of a branch that
                // mispredicts every other step.
                double lo = t_prev, hi = t;
                for (int i = 0; i < 20; ++i) {
                    double mid = 0.5 * (lo + hi);
                    bool out = outside(mid);
                    hi = out ? mid : hi;
                    lo = out ? lo : mid;
                }
                if (pillar_t < hi && pillar_t <= max_range)
                    return pillarHit();
                hit.hit = true;
                hit.distance = hi;
                hit.point = Vec3{origin.x + dx * hi, origin.y + dy * hi,
                                 origin.z};
                hit.side =
                    (hit.point.y - world.centerY(hit.point.x)) > 0.0 ? 1
                                                                     : -1;
                return hit;
            }
            t_skip = skipTo(t, p);
        }
        // Jump within the table; past its end, add steps as before.
        if (k + 1 < kMarchSteps) {
            k = firstStepFrom(k + 1, t_skip);
            t_prev = steps[k - 1];
            t = steps[k];
        } else {
            t_prev = t;
            t += kCoarse;
        }
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
    const double h = kStep;
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
