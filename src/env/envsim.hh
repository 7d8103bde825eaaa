/**
 * @file
 * The AirSim-equivalent environment simulator facade.
 *
 * EnvSim owns the world, the quadrotor dynamics, the software-in-the-loop
 * flight controller (the paper's "SimpleFlight" partitioning, Figure 7),
 * and the sensor models. It exposes exactly the API surface the
 * synchronizer consumes over RPC in the paper (Section 3.1): discrete
 * frame stepping, sensor reads, actuation commands, and collision info.
 * Per the simulation-abstraction rule (Section 3.4.2), the simulated SoC
 * never touches this class directly — only serialized packets routed
 * through the synchronizer do.
 */

#ifndef ROSE_ENV_ENVSIM_HH
#define ROSE_ENV_ENVSIM_HH

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "env/drone.hh"
#include "env/sensors.hh"
#include "env/vehicle.hh"
#include "env/world.hh"
#include "flight/controller.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace rose::env {

/**
 * Thrown when the physics integrator produces a non-finite vehicle
 * state. The message carries a diagnostic dump (full state vector,
 * frame index, sim time) so divergence is attributable — and the
 * mission supervisor can catch it and restore a checkpoint instead of
 * the process dying silently on NaN-poisoned trajectories.
 */
class DivergenceError : public std::runtime_error
{
  public:
    explicit DivergenceError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Collision bookkeeping exposed through the API. */
struct CollisionInfo
{
    bool hasCollided = false;
    uint64_t count = 0;
    double lastTime = 0.0;
    double lastImpactSpeed = 0.0;
    Vec3 lastPosition;
};

/** Full environment configuration. */
struct EnvConfig
{
    std::string worldName = "tunnel";
    /** Vehicle morphology: "quadrotor" (the paper's UAV) or "rover"
     *  (the artifact's car option, Appendix A.8.3). */
    std::string vehicleName = "quadrotor";
    double frameHz = 60.0;
    /** Physics substeps per frame. */
    int physicsSubsteps = 10;
    uint64_t seed = 1;

    /** Spawn pose: x/y position, takeoff altitude, heading. */
    Vec3 initialPosition{1.0, 0.0, 0.4};
    double initialYawDeg = 0.0;
    /** Altitude setpoint held by the flight controller [m]. */
    double cruiseAltitude = 1.5;

    /** Pillar obstacles placed into the world at construction. */
    std::vector<Obstacle> obstacles;

    DroneParams drone;
    RoverParams rover;
    flight::ControllerConfig controller;
    ImuConfig imu;
    CameraConfig camera;
    double depthMaxRange = 30.0;
    double depthNoiseStd = 0.05;

    /**
     * Std-dev of the random world-frame disturbance force [N]; stands
     * in for the Unreal-side randomness the artifact appendix warns
     * about ("noise in the AirSim physics models").
     */
    double turbulenceForceStd = 0.08;
};

/** Environment simulator with frame-granular discrete stepping. */
class EnvSim
{
  public:
    explicit EnvSim(const EnvConfig &cfg);

    // --- Simulation control API ------------------------------------
    /** Advance the world by n frames (physics + sensors + control). */
    void stepFrames(Frames n);

    double simTime() const { return time_; }
    Frames frameCount() const { return frames_; }
    double frameSeconds() const { return 1.0 / cfg_.frameHz; }

    // --- Sensor API --------------------------------------------------
    ImuSample getImu();
    /** Render the camera frame as 8-bit row-major pixels (the
     *  ImageResp payload; see Camera::renderInto). */
    void renderImage(uint8_t *pixels);
    const CameraConfig &cameraConfig() const { return camera_->config(); }
    double getDepth();
    const CollisionInfo &collisionInfo() const { return collision_; }

    // --- Actuation API ------------------------------------------------
    /**
     * Set the flight controller's tracked target (forward velocity,
     * lateral velocity, yaw rate). Altitude is managed internally.
     */
    void commandVelocity(double forward, double lateral, double yaw_rate);

    // --- Ground-truth / logging helpers --------------------------------
    flight::VehicleState kinematics() const
    { return vehicle_->state(); }
    const World &world() const { return *world_; }
    const VehicleModel &vehicle() const { return *vehicle_; }
    /** Mutable vehicle access, for fault-injection experiments and
     *  tests (e.g. teleporting or corrupting state via restoreState
     *  to exercise the divergence guards). */
    VehicleModel &mutableVehicle() { return *vehicle_; }

    /** Signed lateral offset from the corridor centerline [m]. */
    double lateralOffset() const;
    /** Heading error relative to the corridor tangent [rad]. */
    double headingError() const;
    bool missionComplete() const;

    // --- Checkpointing -------------------------------------------------
    /**
     * Serialize all mutable simulation state: clock, collision log,
     * turbulence RNG, vehicle dynamics, sensor noise streams. The
     * world and config are immutable and are reconstructed from the
     * same EnvConfig on restore.
     */
    void saveState(StateWriter &w) const;
    void restoreState(StateReader &r);

  private:
    void substep(double dt);
    void checkDivergence() const;

    EnvConfig cfg_;
    /** Immutable world geometry; shared across concurrent missions
     *  (env::sharedWorld) unless this mission placed obstacles, in
     *  which case it is a private copy. */
    std::shared_ptr<const World> world_;
    std::unique_ptr<VehicleModel> vehicle_;
    Rng rng_;
    std::unique_ptr<Imu> imu_;
    std::unique_ptr<Camera> camera_;
    std::unique_ptr<DepthSensor> depth_;

    double time_ = 0.0;
    Frames frames_ = 0;
    CollisionInfo collision_;
};

} // namespace rose::env

#endif // ROSE_ENV_ENVSIM_HH
