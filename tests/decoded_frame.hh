/**
 * @file
 * The camera frame as the control app sees it: rendered to the
 * bridge's 8-bit ImageResp and decoded, for tests that feed frames to
 * the pose estimator and classifiers.
 */

#ifndef ROSE_TESTS_DECODED_FRAME_HH
#define ROSE_TESTS_DECODED_FRAME_HH

#include "bridge/packet.hh"
#include "env/sensors.hh"
#include "env/world.hh"
#include "util/geometry.hh"

namespace rose::test {

/** Render @p cam's view from a pose and decode it into @p img. */
inline void
renderDecoded(env::Camera &cam, const env::World &world,
              const Vec3 &position, const Quat &attitude, env::Image &img)
{
    bridge::decodeImageRespInto(
        bridge::renderImageResp(cam, world, position, attitude), img);
}

} // namespace rose::test

#endif // ROSE_TESTS_DECODED_FRAME_HH
