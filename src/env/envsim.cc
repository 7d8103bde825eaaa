#include "envsim.hh"

#include <cmath>
#include <sstream>

#include "util/logging.hh"
#include "util/serde.hh"

namespace rose::env {

namespace {

bool
finiteVec(const Vec3 &v)
{
    return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

} // namespace

EnvSim::EnvSim(const EnvConfig &cfg)
    : cfg_(cfg),
      vehicle_(makeVehicle(cfg.vehicleName, cfg.drone, cfg.controller,
                           cfg.cruiseAltitude, cfg.rover)),
      rng_(cfg.seed)
{
    rose_assert(cfg.frameHz > 0.0, "frame rate must be positive");
    rose_assert(cfg.physicsSubsteps > 0, "need at least one substep");

    if (cfg_.obstacles.empty()) {
        // No per-mission mutation: share the immutable geometry with
        // every other mission running in this process.
        world_ = sharedWorld(cfg.worldName);
    } else {
        std::shared_ptr<World> own = makeWorld(cfg.worldName);
        for (const Obstacle &o : cfg_.obstacles)
            own->addObstacle(o);
        world_ = std::move(own);
    }

    imu_ = std::make_unique<Imu>(cfg.imu, rng_.split());
    camera_ = std::make_unique<Camera>(cfg.camera, rng_.split());
    depth_ = std::make_unique<DepthSensor>(cfg.depthMaxRange,
                                           cfg.depthNoiseStd, rng_.split());

    vehicle_->reset(cfg.initialPosition, deg2rad(cfg.initialYawDeg));
}

void
EnvSim::stepFrames(Frames n)
{
    double dt = frameSeconds() / cfg_.physicsSubsteps;
    for (Frames f = 0; f < n; ++f) {
        for (int s = 0; s < cfg_.physicsSubsteps; ++s)
            substep(dt);
        ++frames_;
        time_ = frames_ * frameSeconds();
    }
}

void
EnvSim::substep(double dt)
{
    // Turbulence: zero-mean disturbance force, resampled each substep.
    Vec3 disturbance;
    if (cfg_.turbulenceForceStd > 0.0) {
        disturbance = Vec3{rng_.gaussian(0, cfg_.turbulenceForceStd),
                           rng_.gaussian(0, cfg_.turbulenceForceStd),
                           rng_.gaussian(0, cfg_.turbulenceForceStd)};
    }

    vehicle_->step(dt, disturbance);
    checkDivergence();

    // Wall/obstacle collision: clamp back outside and log the impact.
    Vec3 pos = vehicle_->state().position;
    double radius = vehicle_->bodyRadius();
    if (world_->collides(pos, radius) && pos.z > 0.0) {
        // Pillar strikes resolve radially away from the pillar axis.
        for (const Obstacle &o : world_->obstacles()) {
            double dx = pos.x - o.x, dy = pos.y - o.y;
            double d2 = dx * dx + dy * dy;
            double rr = o.radius + radius;
            if (d2 <= rr * rr) {
                double d = std::sqrt(std::max(d2, 1e-6));
                Vec3 n{dx / d, dy / d, 0.0};
                Vec3 clamped = Vec3{o.x, o.y, pos.z} +
                               n * (rr + 0.01);
                double impact =
                    vehicle_->resolveWallCollision(clamped, n);
                collision_.hasCollided = true;
                ++collision_.count;
                collision_.lastTime = time_;
                collision_.lastImpactSpeed = impact;
                collision_.lastPosition = vehicle_->state().position;
                return;
            }
        }
        double off = world_->lateralOffset(pos);
        double hw = world_->halfWidth(pos.x);
        double slope = world_->centerSlope(pos.x);
        // Inward wall normal: offset gradient is (-f'(x), 1, 0)/|.|;
        // on the left wall (off > 0) the inward direction is -gradient.
        Vec3 grad = Vec3{-slope, 1.0, 0.0}.normalized();
        Vec3 normal = off > 0.0 ? -grad : grad;

        double target_off = (hw - radius - 0.01) * (off > 0.0 ? 1.0 : -1.0);
        Vec3 clamped = pos + grad * (target_off - off);

        double impact =
            vehicle_->resolveWallCollision(clamped, normal);
        collision_.hasCollided = true;
        ++collision_.count;
        collision_.lastTime = time_;
        collision_.lastImpactSpeed = impact;
        collision_.lastPosition = vehicle_->state().position;
    }
}

ImuSample
EnvSim::getImu()
{
    return imu_->sample(vehicle_->sensorFrame(), time_);
}

void
EnvSim::renderImage(uint8_t *pixels)
{
    SensorFrame f = vehicle_->sensorFrame();
    camera_->renderInto(*world_, f.position, f.attitude, pixels);
}

double
EnvSim::getDepth()
{
    SensorFrame f = vehicle_->sensorFrame();
    return depth_->sample(*world_, f.position, f.attitude.yaw());
}

void
EnvSim::commandVelocity(double forward, double lateral, double yaw_rate)
{
    flight::VelocityCommand cmd;
    cmd.forward = forward;
    cmd.lateral = lateral;
    cmd.yawRate = yaw_rate;
    cmd.altitude = cfg_.cruiseAltitude;
    vehicle_->command(cmd);
}

double
EnvSim::lateralOffset() const
{
    return world_->lateralOffset(vehicle_->state().position);
}

double
EnvSim::headingError() const
{
    flight::VehicleState s = vehicle_->state();
    double tangent = world_->tangentAngle(s.position.x);
    return wrapAngle(s.attitude.yaw() - tangent);
}

bool
EnvSim::missionComplete() const
{
    return world_->missionComplete(vehicle_->state().position);
}

void
EnvSim::checkDivergence() const
{
    flight::VehicleState s = vehicle_->state();
    if (finiteVec(s.position) && finiteVec(s.velocity) &&
        finiteVec(s.bodyRates) && std::isfinite(s.attitude.w) &&
        std::isfinite(s.attitude.x) && std::isfinite(s.attitude.y) &&
        std::isfinite(s.attitude.z))
        return;

    std::ostringstream os;
    os << "physics divergence: non-finite vehicle state at frame "
       << frames_ << " (t=" << time_ << "s): pos=(" << s.position.x
       << "," << s.position.y << "," << s.position.z << ") vel=("
       << s.velocity.x << "," << s.velocity.y << "," << s.velocity.z
       << ") att=(" << s.attitude.w << "," << s.attitude.x << ","
       << s.attitude.y << "," << s.attitude.z << ") omega=("
       << s.bodyRates.x << "," << s.bodyRates.y << ","
       << s.bodyRates.z << ")";
    throw DivergenceError(os.str());
}

void
EnvSim::saveState(StateWriter &w) const
{
    w.f64(time_);
    w.u64(frames_);
    w.boolean(collision_.hasCollided);
    w.u64(collision_.count);
    w.f64(collision_.lastTime);
    w.f64(collision_.lastImpactSpeed);
    w.f64(collision_.lastPosition.x);
    w.f64(collision_.lastPosition.y);
    w.f64(collision_.lastPosition.z);
    rng_.saveState(w);
    vehicle_->saveState(w);
    imu_->saveState(w);
    camera_->saveState(w);
    depth_->saveState(w);
}

void
EnvSim::restoreState(StateReader &r)
{
    time_ = r.f64();
    frames_ = r.u64();
    collision_.hasCollided = r.boolean();
    collision_.count = r.u64();
    collision_.lastTime = r.f64();
    collision_.lastImpactSpeed = r.f64();
    collision_.lastPosition.x = r.f64();
    collision_.lastPosition.y = r.f64();
    collision_.lastPosition.z = r.f64();
    rng_.restoreState(r);
    vehicle_->restoreState(r);
    imu_->restoreState(r);
    camera_->restoreState(r);
    depth_->restoreState(r);
}

} // namespace rose::env
