/**
 * @file
 * Tests for the vehicle abstraction: quadrotor wrapper parity and the
 * Ackermann rover's kinematics, plus EnvSim running the rover.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "bridge/packet.hh"
#include "env/envsim.hh"
#include "env/vehicle.hh"

using namespace rose;
using namespace rose::env;

namespace {

void
runVehicle(VehicleModel &v, double seconds, double dt = 1.0 / 600.0)
{
    int steps = int(seconds / dt);
    for (int i = 0; i < steps; ++i)
        v.step(dt, Vec3{});
}

} // namespace

// ------------------------------------------------------------- factory

TEST(Vehicle, FactoryNames)
{
    DroneParams dp;
    flight::ControllerConfig cc;
    EXPECT_EQ(makeVehicle("quadrotor", dp, cc, 1.5)->vehicleName(),
              "quadrotor");
    EXPECT_EQ(makeVehicle("drone", dp, cc, 1.5)->vehicleName(),
              "quadrotor");
    EXPECT_EQ(makeVehicle("rover", dp, cc, 1.5)->vehicleName(),
              "rover");
    EXPECT_EQ(makeVehicle("car", dp, cc, 1.5)->vehicleName(), "rover");
}

TEST(Vehicle, UnknownVehicleThrows)
{
    DroneParams dp;
    flight::ControllerConfig cc;
    EXPECT_THROW(makeVehicle("submarine", dp, cc, 1.5),
                 std::invalid_argument);
}

// ------------------------------------------------------------ quadrotor

TEST(QuadrotorVehicle, HoversAndTracksLikeRawLoop)
{
    QuadrotorVehicle q(DroneParams{}, flight::ControllerConfig{}, 1.5);
    q.reset({0, 0, 1.5}, 0.0);
    flight::VelocityCommand cmd;
    cmd.forward = 3.0;
    q.command(cmd);
    runVehicle(q, 6.0);
    flight::VehicleState s = q.state();
    EXPECT_NEAR(s.velocity.x, 3.0, 0.3);
    EXPECT_NEAR(s.position.z, 1.5, 0.15);
}

TEST(QuadrotorVehicle, SensorFrameMatchesState)
{
    QuadrotorVehicle q(DroneParams{}, flight::ControllerConfig{}, 1.5);
    q.reset({2, 1, 1.5}, 0.3);
    SensorFrame f = q.sensorFrame();
    flight::VehicleState s = q.state();
    EXPECT_DOUBLE_EQ(f.position.x, s.position.x);
    EXPECT_NEAR(f.attitude.yaw(), 0.3, 1e-9);
}

// ---------------------------------------------------------------- rover

TEST(Rover, AcceleratesToSpeedTarget)
{
    AckermannRover r;
    r.reset({0, 0, 0}, 0.0);
    flight::VelocityCommand cmd;
    cmd.forward = 5.0;
    r.command(cmd);
    runVehicle(r, 3.0);
    EXPECT_NEAR(r.speed(), 5.0, 0.05);
    EXPECT_GT(r.state().position.x, 10.0);
    EXPECT_NEAR(r.state().position.y, 0.0, 1e-6);
}

TEST(Rover, AccelerationLimited)
{
    RoverParams p;
    p.maxAccel = 2.0;
    AckermannRover r(p);
    r.reset({0, 0, 0}, 0.0);
    flight::VelocityCommand cmd;
    cmd.forward = 10.0;
    r.command(cmd);
    runVehicle(r, 1.0);
    EXPECT_NEAR(r.speed(), 2.0, 0.1); // 2 m/s^2 for 1 s
}

TEST(Rover, YawRateCommandCurves)
{
    AckermannRover r;
    r.reset({0, 0, 0}, 0.0);
    flight::VelocityCommand cmd;
    cmd.forward = 3.0;
    cmd.yawRate = 0.5; // CCW
    r.command(cmd);
    runVehicle(r, 4.0);
    flight::VehicleState s = r.state();
    // Heading advanced CCW; the trajectory curved left (+y).
    EXPECT_GT(s.attitude.yaw(), 0.8);
    EXPECT_GT(s.position.y, 1.0);
    // Steady-state yaw rate approximates the command.
    EXPECT_NEAR(s.bodyRates.z, 0.5, 0.1);
}

TEST(Rover, NonHolonomic)
{
    // A pure lateral command cannot translate the rover sideways; it
    // only biases steering, so motion stays along the heading.
    AckermannRover r;
    r.reset({0, 0, 0}, 0.0);
    flight::VelocityCommand cmd;
    cmd.forward = 0.0;
    cmd.lateral = 2.0;
    r.command(cmd);
    runVehicle(r, 2.0);
    EXPECT_NEAR(r.state().position.y, 0.0, 0.05);
    EXPECT_NEAR(r.speed(), 0.0, 0.05);
}

TEST(Rover, SteeringClamped)
{
    RoverParams p;
    p.maxSteer = 0.3;
    AckermannRover r(p);
    r.reset({0, 0, 0}, 0.0);
    flight::VelocityCommand cmd;
    cmd.forward = 2.0;
    cmd.yawRate = 10.0; // absurd
    r.command(cmd);
    runVehicle(r, 2.0);
    EXPECT_LE(std::abs(r.steerAngle()), 0.3 + 1e-9);
}

TEST(Rover, CollisionScrubsSpeed)
{
    AckermannRover r;
    r.reset({5, 0, 0}, 0.0);
    flight::VelocityCommand cmd;
    cmd.forward = 8.0;
    r.command(cmd);
    runVehicle(r, 2.0);
    double before = r.speed();
    // Head-on impact: wall ahead, inward normal facing back at us.
    double impact =
        r.resolveWallCollision({5.0, 1.2, 0.8}, {-1, 0, 0});
    EXPECT_NEAR(impact, before, 0.1);
    EXPECT_LT(r.speed(), 0.3 * before);
    EXPECT_DOUBLE_EQ(r.state().position.y, 1.2);
}

TEST(Rover, SensorMastHeight)
{
    RoverParams p;
    p.sensorHeight = 0.8;
    AckermannRover r(p);
    r.reset({0, 0, 0}, 0.0);
    EXPECT_DOUBLE_EQ(r.sensorFrame().position.z, 0.8);
}

// ------------------------------------------------------- EnvSim + rover

TEST(EnvSimRover, DrivesTheTunnel)
{
    EnvConfig cfg;
    cfg.vehicleName = "rover";
    cfg.turbulenceForceStd = 0.0;
    EnvSim sim(cfg);
    sim.commandVelocity(4.0, 0.0, 0.0);
    sim.stepFrames(5 * 60);
    EXPECT_GT(sim.kinematics().position.x, 15.0);
    EXPECT_FALSE(sim.collisionInfo().hasCollided);
}

TEST(EnvSimRover, SteersIntoWallAndCollides)
{
    EnvConfig cfg;
    cfg.vehicleName = "rover";
    cfg.turbulenceForceStd = 0.0;
    EnvSim sim(cfg);
    sim.commandVelocity(4.0, 0.0, 1.0); // hard left
    sim.stepFrames(4 * 60);
    EXPECT_TRUE(sim.collisionInfo().hasCollided);
}

TEST(EnvSimRover, SensorsSampleFromMastHeight)
{
    EnvConfig cfg;
    cfg.vehicleName = "rover";
    cfg.turbulenceForceStd = 0.0;
    EnvSim sim(cfg);
    bridge::Packet p =
        bridge::encodeImageResp(cfg.camera.width, cfg.camera.height);
    sim.renderImage(bridge::imageRespPixels(p));
    Image img;
    bridge::decodeImageRespInto(p, img);
    EXPECT_EQ(img.width, cfg.camera.width);
    // IMU at rest on the ground reads +g.
    ImuSample s = sim.getImu();
    EXPECT_NEAR(s.accel.z, 9.81, 0.5);
    // Depth straight down the corridor: max range.
    EXPECT_NEAR(sim.getDepth(), cfg.depthMaxRange, 0.5);
}
