/**
 * @file
 * Unit tests for the environment substrate: world geometry, raycasting,
 * quadrotor dynamics, sensors, and the EnvSim facade.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "bridge/packet.hh"
#include "env/envsim.hh"
#include "env/sensors.hh"
#include "env/world.hh"

using namespace rose;
using namespace rose::env;

namespace {

/** The camera's frame as the control app sees it: the bridge's 8-bit
 *  image, decoded. */
Image
render(Camera &cam, const World &w, const Drone &d)
{
    Image img;
    bridge::decodeImageRespInto(
        bridge::renderImageResp(cam, w, d.position(), d.attitude()), img);
    return img;
}

/** What a quadrotor's sensors read: its pose, rates and acceleration. */
SensorFrame
frameOf(const Drone &d)
{
    return {d.position(), d.attitude(), d.bodyRates(), d.lastAccel()};
}

} // namespace

// ----------------------------------------------------------------- World

TEST(World, TunnelDimensionsMatchPaper)
{
    // "a straight path 50 meters in length and 3.2 meters wide";
    // Figure 10: "boundaries are at y = +-1.6m".
    TunnelWorld t;
    EXPECT_DOUBLE_EQ(t.length(), 50.0);
    EXPECT_DOUBLE_EQ(t.halfWidth(25.0), 1.6);
    EXPECT_DOUBLE_EQ(t.centerY(10.0), 0.0);
}

TEST(World, SShapeDimensionsMatchPaper)
{
    // "an 'S' shaped trajectory of 80 meters in length", wider than
    // the tunnel; mission completes at x = 80.
    SShapeWorld s;
    EXPECT_DOUBLE_EQ(s.length(), 80.0);
    EXPECT_GT(s.halfWidth(0.0), 1.6);
    EXPECT_NEAR(s.centerY(0.0), 0.0, 1e-12);
    EXPECT_NEAR(s.centerY(80.0), 0.0, 1e-9);
    // The S swings both ways.
    EXPECT_GT(s.centerY(20.0), 2.0);
    EXPECT_LT(s.centerY(60.0), -2.0);
}

TEST(World, LateralOffsetSigned)
{
    TunnelWorld t;
    EXPECT_GT(t.lateralOffset({5, 0.5, 1}), 0.0);
    EXPECT_LT(t.lateralOffset({5, -0.5, 1}), 0.0);
}

TEST(World, CollisionDetection)
{
    TunnelWorld t;
    EXPECT_FALSE(t.collides({5, 0, 1.5}, 0.25));
    EXPECT_TRUE(t.collides({5, 1.5, 1.5}, 0.25));  // wall graze
    EXPECT_TRUE(t.collides({5, -1.6, 1.5}, 0.25)); // in the wall
    EXPECT_TRUE(t.collides({5, 0, -0.1}, 0.25));   // under the floor
    EXPECT_TRUE(t.collides({-3, 0, 1.5}, 0.25));   // behind the start
}

TEST(World, MissionCompletion)
{
    TunnelWorld t;
    EXPECT_FALSE(t.missionComplete({49.9, 0, 1.5}));
    EXPECT_TRUE(t.missionComplete({50.0, 0, 1.5}));
}

TEST(World, SlopeMatchesNumericalDerivative)
{
    SShapeWorld s;
    for (double x : {1.0, 13.0, 37.0, 61.0, 79.0}) {
        double h = 1e-5;
        double num = (s.centerY(x + h) - s.centerY(x - h)) / (2 * h);
        EXPECT_NEAR(s.centerSlope(x), num, 1e-6);
    }
}

TEST(World, FactoryNames)
{
    EXPECT_EQ(makeWorld("tunnel")->name(), "tunnel");
    EXPECT_EQ(makeWorld("s-shape")->name(), "s-shape");
    EXPECT_EQ(makeWorld("sshape")->name(), "s-shape");
}

// --------------------------------------------------------------- Raycast

TEST(Raycast, PerpendicularWallDistance)
{
    TunnelWorld t;
    // Looking straight left (+y) from the centerline: wall at 1.6 m.
    RayHit hit = t.raycast({10, 0, 1.5}, kPi / 2);
    ASSERT_TRUE(hit.hit);
    EXPECT_NEAR(hit.distance, 1.6, 0.01);
    EXPECT_EQ(hit.side, 1);
    // Looking right (-y): also 1.6 m away but the other wall.
    hit = t.raycast({10, 0, 1.5}, -kPi / 2);
    ASSERT_TRUE(hit.hit);
    EXPECT_NEAR(hit.distance, 1.6, 0.01);
    EXPECT_EQ(hit.side, -1);
}

TEST(Raycast, AngledDistanceGeometry)
{
    TunnelWorld t;
    // At 30 degrees off-axis, the wall distance is halfWidth/sin(30).
    RayHit hit = t.raycast({10, 0, 1.5}, deg2rad(30.0));
    ASSERT_TRUE(hit.hit);
    EXPECT_NEAR(hit.distance, 1.6 / std::sin(deg2rad(30.0)), 0.02);
}

TEST(Raycast, DownCorridorNoHitWithinRange)
{
    TunnelWorld t;
    RayHit hit = t.raycast({10, 0, 1.5}, 0.0, 30.0);
    EXPECT_FALSE(hit.hit);
    EXPECT_DOUBLE_EQ(hit.distance, 30.0);
}

TEST(Raycast, StartInsideWallReportsImmediateHit)
{
    TunnelWorld t;
    RayHit hit = t.raycast({10, 1.7, 1.5}, 0.0);
    EXPECT_TRUE(hit.hit);
    EXPECT_DOUBLE_EQ(hit.distance, 0.0);
}

TEST(Raycast, SShapeCurvedWall)
{
    SShapeWorld s;
    // Looking straight down +x from the start, the curving right wall
    // must intercept the ray eventually.
    RayHit hit = s.raycast({0, 0, 1.5}, 0.0, 60.0);
    EXPECT_TRUE(hit.hit);
    EXPECT_GT(hit.distance, 1.5);
    EXPECT_LT(hit.distance, 50.0);
}

// ----------------------------------------------------------------- Drone

TEST(Drone, FreeFallWithoutThrust)
{
    Drone d;
    d.setPose({0, 0, 10}, Quat{});
    for (int i = 0; i < 600; ++i)
        d.step(1.0 / 600.0);
    // ~1 s of free fall: z drops by ~4.9 m (slightly less with drag).
    EXPECT_LT(d.position().z, 6.0);
    EXPECT_GT(d.position().z, 4.5);
    EXPECT_LT(d.velocity().z, -7.5);
}

TEST(Drone, HoverThrustBalancesGravity)
{
    Drone d;
    DroneParams p;
    d.setPose({0, 0, 5}, Quat{});
    double hover = p.massKg * p.gravity / 4.0;
    d.setMotorCommand({hover, hover, hover, hover});
    for (int i = 0; i < 1200; ++i)
        d.step(1.0 / 600.0);
    // Open-loop hover: the spin-up lag costs some altitude, but there
    // must be no sustained acceleration once thrust settles.
    EXPECT_NEAR(d.position().z, 5.0, 0.5);
    EXPECT_GT(d.velocity().z, -0.5);
}

TEST(Drone, DifferentialThrustRolls)
{
    Drone d;
    d.setPose({0, 0, 5}, Quat{});
    double hover = 9.81 / 4.0;
    // Raise the left-side motors (0 FL, 3 RL at +y): positive torque
    // about +x, i.e. positive roll (tips the body toward -y).
    d.setMotorCommand({hover + 0.2, hover - 0.2, hover - 0.2,
                       hover + 0.2});
    for (int i = 0; i < 120; ++i)
        d.step(1.0 / 600.0);
    EXPECT_GT(d.bodyRates().x, 0.05);
    EXPECT_GT(d.attitude().roll(), 0.0);
}

TEST(Drone, YawFromCounterTorque)
{
    Drone d;
    d.setPose({0, 0, 5}, Quat{});
    double hover = 9.81 / 4.0;
    // CCW motors (0, 2) produce +z torque.
    d.setMotorCommand({hover + 0.3, hover - 0.3, hover + 0.3,
                       hover - 0.3});
    for (int i = 0; i < 300; ++i)
        d.step(1.0 / 600.0);
    EXPECT_GT(d.bodyRates().z, 0.05);
}

TEST(Drone, GroundClampsDescent)
{
    Drone d;
    d.setPose({0, 0, 0.05}, Quat{});
    for (int i = 0; i < 600; ++i)
        d.step(1.0 / 600.0);
    EXPECT_DOUBLE_EQ(d.position().z, 0.0);
    EXPECT_GE(d.velocity().z, 0.0);
}

TEST(Drone, MotorLagSmoothsStep)
{
    Drone d;
    d.setPose({0, 0, 5}, Quat{});
    d.setMotorCommand({5, 5, 5, 5});
    d.step(1.0 / 600.0);
    // After one substep the lagged thrust is well below the command.
    EXPECT_LT(d.motorThrust()[0], 1.0);
    for (int i = 0; i < 600; ++i)
        d.step(1.0 / 600.0);
    EXPECT_NEAR(d.motorThrust()[0], 5.0, 0.05);
}

TEST(Drone, WallCollisionResolution)
{
    Drone d;
    d.setPose({5, 1.5, 1.5}, Quat{});
    // Moving into the left wall (positive y).
    d.setMotorCommand({9.81 / 4, 9.81 / 4, 9.81 / 4, 9.81 / 4});
    d.step(1.0 / 600.0);
    Vec3 before_pos{5, 1.3, 1.5};
    double impact =
        d.resolveWallCollision(before_pos, Vec3{0, -1, 0});
    EXPECT_DOUBLE_EQ(d.position().y, 1.3);
    EXPECT_GE(impact, 0.0);
}

// --------------------------------------------------------------- Sensors

TEST(Imu, GravityAtRest)
{
    Drone d;
    d.setPose({0, 0, 1.5}, Quat{});
    double hover = 9.81 / 4.0;
    d.setMotorCommand({hover, hover, hover, hover});
    for (int i = 0; i < 1200; ++i)
        d.step(1.0 / 600.0);
    Imu imu(ImuConfig{}, Rng(3));
    ImuSample s = imu.sample(frameOf(d), 2.0);
    // At hover the specific force reads +g on body z.
    EXPECT_NEAR(s.accel.z, 9.81, 0.5);
    EXPECT_NEAR(s.accel.x, 0.0, 0.3);
    EXPECT_NEAR(s.gyro.norm(), 0.0, 0.1);
    EXPECT_DOUBLE_EQ(s.timestamp, 2.0);
}

TEST(Imu, GyroTracksBodyRates)
{
    Drone d;
    d.setPose({0, 0, 5}, Quat{});
    double hover = 9.81 / 4.0;
    d.setMotorCommand({hover + 0.3, hover - 0.3, hover + 0.3,
                       hover - 0.3});
    for (int i = 0; i < 300; ++i)
        d.step(1.0 / 600.0);
    Imu imu(ImuConfig{}, Rng(5));
    ImuSample s = imu.sample(frameOf(d), 0.5);
    EXPECT_NEAR(s.gyro.z, d.bodyRates().z, 0.05);
}

TEST(Camera, ImageDimensionsAndRange)
{
    TunnelWorld w;
    Drone d;
    d.setPose({5, 0, 1.5}, Quat{});
    Camera cam(CameraConfig{}, Rng(7));
    bridge::Packet p =
        bridge::renderImageResp(cam, w, d.position(), d.attitude());
    EXPECT_EQ(p.payload.size(), 4 + size_t(64) * 48);
    Image img;
    bridge::decodeImageRespInto(p, img);
    EXPECT_EQ(img.width, 64);
    EXPECT_EQ(img.height, 48);
    ASSERT_EQ(img.pixels.size(), size_t(64) * 48);
    for (float v : img.pixels) {
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
    }
}

TEST(Camera, OffsetSkewsBrightness)
{
    // Near the left wall, left-side columns see a much closer (brighter)
    // wall than right-side columns; the classifier features rely on
    // this asymmetry carrying pose information.
    TunnelWorld w;
    Camera cam(CameraConfig{}, Rng(9));

    Drone d;
    d.setPose({5, 1.0, 1.5}, Quat{}); // near left wall
    Image img = render(cam, w, d);

    auto col_mean = [&](int c) {
        double s = 0;
        for (int r = 0; r < img.height; ++r)
            s += img.at(r, c);
        return s / img.height;
    };
    double left = (col_mean(2) + col_mean(6) + col_mean(10)) / 3;
    double right = (col_mean(img.width - 3) + col_mean(img.width - 7) +
                    col_mean(img.width - 11)) / 3;
    EXPECT_GT(left, right + 0.02);
}

TEST(Camera, DeterministicGivenSeed)
{
    TunnelWorld w;
    Drone d;
    d.setPose({5, 0.3, 1.5}, Quat::fromEuler(0, 0, 0.1));
    Camera a(CameraConfig{}, Rng(11));
    Camera b(CameraConfig{}, Rng(11));
    EXPECT_EQ(
        bridge::renderImageResp(a, w, d.position(), d.attitude()).payload,
        bridge::renderImageResp(b, w, d.position(), d.attitude()).payload);
}

TEST(Depth, ReadsForwardDistance)
{
    TunnelWorld w;
    Drone d;
    // Heading 90 degrees left: wall 1.6 m away.
    d.setPose({10, 0, 1.5}, Quat::fromEuler(0, 0, kPi / 2));
    DepthSensor ds(30.0, 0.0, Rng(13));
    EXPECT_NEAR(ds.sample(w, d.position(), d.attitude().yaw()), 1.6, 0.02);
    // Heading down the corridor: max range.
    d.setPose({10, 0, 1.5}, Quat{});
    EXPECT_NEAR(ds.sample(w, d.position(), d.attitude().yaw()), 30.0, 0.01);
}

// ---------------------------------------------------------------- EnvSim

TEST(EnvSim, FrameSteppingAdvancesTime)
{
    EnvConfig cfg;
    cfg.turbulenceForceStd = 0.0;
    EnvSim sim(cfg);
    sim.stepFrames(60);
    EXPECT_EQ(sim.frameCount(), 60u);
    EXPECT_NEAR(sim.simTime(), 1.0, 1e-9);
}

TEST(EnvSim, TakesOffAndHolds)
{
    EnvConfig cfg;
    cfg.turbulenceForceStd = 0.0;
    EnvSim sim(cfg);
    sim.stepFrames(6 * 60);
    EXPECT_NEAR(sim.kinematics().position.z, cfg.cruiseAltitude, 0.1);
    EXPECT_FALSE(sim.collisionInfo().hasCollided);
}

TEST(EnvSim, CommandedForwardFlightProgresses)
{
    EnvConfig cfg;
    cfg.turbulenceForceStd = 0.0;
    EnvSim sim(cfg);
    sim.stepFrames(3 * 60); // take off
    sim.commandVelocity(3.0, 0.0, 0.0);
    sim.stepFrames(5 * 60);
    EXPECT_GT(sim.kinematics().position.x, 10.0);
    EXPECT_FALSE(sim.collisionInfo().hasCollided);
    EXPECT_NEAR(sim.lateralOffset(), 0.0, 0.4);
}

TEST(EnvSim, DriftIntoWallCollides)
{
    EnvConfig cfg;
    cfg.turbulenceForceStd = 0.0;
    EnvSim sim(cfg);
    sim.stepFrames(3 * 60);
    sim.commandVelocity(0.0, 2.0, 0.0); // fly left into the wall
    sim.stepFrames(4 * 60);
    EXPECT_TRUE(sim.collisionInfo().hasCollided);
    EXPECT_GE(sim.collisionInfo().count, 1u);
    // Collision resolution keeps the drone inside the corridor.
    EXPECT_LT(std::abs(sim.lateralOffset()), 1.6);
}

TEST(EnvSim, AngledStartHeadsTowardWall)
{
    // Figure 10 setup: starting at 20 degrees, an uncorrected drone
    // reaches the wall in ~1.6/sin(20) = 4.7 m of travel.
    EnvConfig cfg;
    cfg.turbulenceForceStd = 0.0;
    cfg.initialYawDeg = 20.0;
    EnvSim sim(cfg);
    sim.stepFrames(3 * 60);
    sim.commandVelocity(3.0, 0.0, 0.0);
    sim.stepFrames(4 * 60);
    EXPECT_TRUE(sim.collisionInfo().hasCollided);
}

TEST(EnvSim, MissionCompletion)
{
    EnvConfig cfg;
    cfg.turbulenceForceStd = 0.0;
    cfg.initialPosition = {48.0, 0.0, 0.4};
    EnvSim sim(cfg);
    sim.stepFrames(3 * 60);
    sim.commandVelocity(3.0, 0.0, 0.0);
    sim.stepFrames(3 * 60);
    EXPECT_TRUE(sim.missionComplete());
}

TEST(EnvSim, DeterministicWithSameSeed)
{
    EnvConfig cfg;
    cfg.seed = 77;
    auto run = [&]() {
        EnvSim sim(cfg);
        sim.stepFrames(60);
        sim.commandVelocity(2.0, 0.0, 0.1);
        sim.stepFrames(120);
        return sim.kinematics().position;
    };
    Vec3 a = run();
    Vec3 b = run();
    EXPECT_DOUBLE_EQ(a.x, b.x);
    EXPECT_DOUBLE_EQ(a.y, b.y);
    EXPECT_DOUBLE_EQ(a.z, b.z);
}

TEST(EnvSim, SeedsChangeTurbulence)
{
    EnvConfig cfg;
    cfg.turbulenceForceStd = 0.3;
    cfg.seed = 1;
    EnvSim a(cfg);
    cfg.seed = 2;
    EnvSim b(cfg);
    a.stepFrames(300);
    b.stepFrames(300);
    EXPECT_NE(a.kinematics().position.y, b.kinematics().position.y);
}

TEST(EnvSim, HeadingErrorTracksYaw)
{
    EnvConfig cfg;
    cfg.turbulenceForceStd = 0.0;
    cfg.initialYawDeg = 15.0;
    EnvSim sim(cfg);
    EXPECT_NEAR(sim.headingError(), deg2rad(15.0), 1e-6);
}

// -------------------------------------------------------------- obstacles

TEST(Obstacles, RaycastHitsPillar)
{
    TunnelWorld t;
    t.addObstacle({15.0, 0.0, 0.5});
    // Looking straight down the corridor from x=10: pillar face at
    // 15 - 0.5 - 10 = 4.5 m.
    RayHit hit = t.raycast({10, 0, 1.5}, 0.0, 30.0);
    ASSERT_TRUE(hit.hit);
    EXPECT_NEAR(hit.distance, 4.5, 0.01);
    // A ray aimed well past the pillar still reaches the max range.
    RayHit miss = t.raycast({10, 1.2, 1.5}, 0.0, 30.0);
    EXPECT_NEAR(miss.distance, 30.0, 0.01);
}

TEST(Obstacles, PillarNearerThanWallWins)
{
    TunnelWorld t;
    t.addObstacle({10.0, 0.8, 0.3});
    // Looking left from the center at x=10: pillar face at 0.5 m,
    // wall at 1.6 m.
    RayHit hit = t.raycast({10, 0, 1.5}, kPi / 2);
    ASSERT_TRUE(hit.hit);
    EXPECT_NEAR(hit.distance, 0.5, 0.01);
}

TEST(Obstacles, CollisionDetection)
{
    TunnelWorld t;
    t.addObstacle({20.0, 0.0, 0.5});
    EXPECT_TRUE(t.collides({20.5, 0.0, 1.5}, 0.25));  // overlapping
    EXPECT_FALSE(t.collides({21.5, 0.0, 1.5}, 0.25)); // clear
}

TEST(Obstacles, DepthSensorSeesPillar)
{
    TunnelWorld t;
    t.addObstacle({15.0, 0.0, 0.5});
    Drone d;
    d.setPose({10, 0, 1.5}, Quat{});
    DepthSensor ds(30.0, 0.0, Rng(71));
    EXPECT_NEAR(ds.sample(t, d.position(), d.attitude().yaw()), 4.5, 0.05);
}

TEST(Obstacles, CameraRendersPillar)
{
    // Center columns see the nearby pillar (bright, close); edge
    // columns see the distant corridor. The wall band from a close
    // hit is much taller, so center columns carry more wall shading.
    TunnelWorld clear_world;
    TunnelWorld blocked;
    blocked.addObstacle({12.0, 0.0, 0.5});
    Drone d;
    d.setPose({10, 0, 1.5}, Quat{});
    Camera cam_a(CameraConfig{}, Rng(73));
    Camera cam_b(CameraConfig{}, Rng(73));
    Image a = render(cam_a, clear_world, d);
    Image b = render(cam_b, blocked, d);
    int mid = a.width / 2;
    double diff = 0.0;
    for (int r = 0; r < a.height; ++r)
        diff += std::abs(a.at(r, mid) - b.at(r, mid));
    EXPECT_GT(diff, 1.0); // the pillar visibly changes the image
}

TEST(Obstacles, EnvSimResolvesPillarCollision)
{
    EnvConfig cfg;
    cfg.turbulenceForceStd = 0.0;
    cfg.obstacles.push_back({8.0, 0.0, 0.5});
    EnvSim sim(cfg);
    sim.stepFrames(3 * 60);
    sim.commandVelocity(3.0, 0.0, 0.0); // straight into the pillar
    sim.stepFrames(4 * 60);
    EXPECT_TRUE(sim.collisionInfo().hasCollided);
    // Resolution pushed the vehicle back outside the pillar.
    Vec3 p = sim.kinematics().position;
    double dx = p.x - 8.0, dy = p.y - 0.0;
    EXPECT_GE(std::sqrt(dx * dx + dy * dy), 0.5 + 0.25 - 0.02);
}

// ------------------------------------------ cross-world property sweep

/** Invariants every corridor world must satisfy. */
class WorldProperty : public ::testing::TestWithParam<const char *>
{
};

TEST_P(WorldProperty, GeometryInvariants)
{
    auto world = makeWorld(GetParam());
    EXPECT_GT(world->length(), 10.0);

    for (double x = 0.5; x < world->length(); x += 1.7) {
        // Positive width everywhere.
        EXPECT_GT(world->halfWidth(x), 0.5) << x;
        // Slope consistent with the centerline derivative.
        double h = 1e-4;
        double num =
            (world->centerY(x + h) - world->centerY(x - h)) / (2 * h);
        EXPECT_NEAR(world->centerSlope(x), num, 0.02) << x;
        // The centerline itself never collides.
        Vec3 center{x, world->centerY(x), 1.5};
        EXPECT_FALSE(world->collides(center, 0.25)) << x;
        // A point beyond the wall does.
        Vec3 outside{x, world->centerY(x) + world->halfWidth(x) + 0.3,
                     1.5};
        EXPECT_TRUE(world->collides(outside, 0.25)) << x;
        // Raycasts from the centerline hit the walls symmetrically
        // (within the tangent correction).
        double tangent = world->tangentAngle(x);
        RayHit left = world->raycast(center, tangent + kPi / 2);
        RayHit right = world->raycast(center, tangent - kPi / 2);
        ASSERT_TRUE(left.hit) << x;
        ASSERT_TRUE(right.hit) << x;
        EXPECT_NEAR(left.distance, right.distance,
                    0.35 * world->halfWidth(x)) << x;
    }
}

INSTANTIATE_TEST_SUITE_P(Worlds, WorldProperty,
                         ::testing::Values("tunnel", "s-shape",
                                           "zigzag"));

TEST(ZigzagWorld, AlternatesDirection)
{
    ZigzagWorld z;
    // First segment climbs, second descends.
    EXPECT_GT(z.centerSlope(7.0), 0.2);
    EXPECT_LT(z.centerSlope(22.0), -0.2);
    EXPECT_GT(z.centerSlope(37.0), 0.2);
    // Continuous at the corners (rounded).
    double before = z.centerSlope(14.9);
    double after = z.centerSlope(15.1);
    EXPECT_LT(std::abs(before - after), 0.1);
}
