/**
 * @file
 * Table 3: latency and accuracy of trained DNN controllers.
 *
 * Paper rows (ms / percent):
 *   Model                 R6    R11   R14   R18   R34
 *   Latency (BOOM+Gem)    77    83    85    130   225
 *   Latency (Rocket+Gem)  101   108   125   185   300
 *   Validation accuracy   72%   78%   82%   83%   86%
 *
 * Latency is produced by the execution engine lowering each model onto
 * the modeled SoCs; accuracy is measured by classifying rendered
 * validation images at uniformly sampled poses in the tunnel (the
 * paper's 1200-image held-out set).
 */

#include <cstdio>

#include "bridge/packet.hh"
#include "dnn/classifier.hh"
#include "dnn/engine.hh"
#include "env/sensors.hh"
#include "env/world.hh"

namespace {

/** Validation accuracy over rendered images at random poses. */
double
validationAccuracy(const rose::dnn::Model &model, int samples)
{
    using namespace rose;
    env::TunnelWorld world;
    env::Camera cam(env::CameraConfig{}, Rng(501));
    env::Drone drone;
    dnn::Classifier cls(model, Rng(977));
    dnn::EstimatorConfig ec;
    Rng rng(31);

    int correct = 0;
    env::Image img;
    for (int i = 0; i < samples; ++i) {
        double y = rng.uniform(-1.2, 1.2);
        double psi = rng.uniform(-0.35, 0.35);
        double x = rng.uniform(5.0, 45.0);
        drone.setPose({x, y, 1.5}, Quat::fromEuler(0, 0, psi));
        bridge::decodeImageRespInto(
            bridge::renderImageResp(cam, world, drone.position(),
                                    drone.attitude()),
            img);
        dnn::ClassifierOutput out = cls.infer(img);

        int true_ang = psi > ec.headingClassRad
                           ? 0
                           : (psi < -ec.headingClassRad ? 2 : 1);
        int true_lat =
            y > ec.offsetClassM ? 0 : (y < -ec.offsetClassM ? 2 : 1);
        correct += (out.angular.argmax() == true_ang);
        correct += (out.lateral.argmax() == true_lat);
    }
    return double(correct) / double(2 * samples);
}

} // namespace

int
main()
{
    using namespace rose;

    dnn::ExecutionEngine boom(soc::configA());
    dnn::ExecutionEngine rocket(soc::configB());
    dnn::ExecutionEngine cpu_only(soc::configC());

    std::printf("Table 3: latency and accuracy of trained DNN "
                "controllers\n\n");
    std::printf("%-26s", "Model");
    for (int d : dnn::resnetZoo())
        std::printf(" ResNet%-4d", d);
    std::printf("\n%-26s", "Latency (BOOM+Gemmini)");
    for (int d : dnn::resnetZoo()) {
        std::printf(" %6.0fms  ",
                    boom.latencySeconds(dnn::makeResNet(d)) * 1e3);
    }
    std::printf("\n%-26s", "Latency (Rocket+Gemmini)");
    for (int d : dnn::resnetZoo()) {
        std::printf(" %6.0fms  ",
                    rocket.latencySeconds(dnn::makeResNet(d)) * 1e3);
    }
    std::printf("\n%-26s", "Validation accuracy");
    for (int d : dnn::resnetZoo()) {
        double acc = validationAccuracy(dnn::makeResNet(d), 600);
        std::printf(" %6.0f%%  ", acc * 100.0);
    }
    std::printf("\n%-26s", "Paper accuracy");
    for (int d : dnn::resnetZoo()) {
        std::printf(" %6.0f%%  ",
                    dnn::makeResNet(d).calib.paperAccuracy * 100.0);
    }

    // Section 5.1 observation backing Figure 10 config C: CPU-only
    // latency is in whole seconds.
    std::printf("\n\nCPU-only (config C, no accelerator) latency:\n");
    for (int d : dnn::resnetZoo()) {
        dnn::Model m = dnn::makeResNet(d);
        std::printf("  %-10s %6.2f s\n", m.name.c_str(),
                    cpu_only.latencySeconds(m));
    }

    std::printf("\nModel inventory:\n");
    for (int d : dnn::resnetZoo()) {
        dnn::Model m = dnn::makeResNet(d);
        std::printf("  %-10s %4d weighted layers, %7.1f MMACs, %6.2f "
                    "MB weights\n",
                    m.name.c_str(), m.weightedLayers(),
                    m.totalMacs() / 1e6,
                    m.totalWeights() * 4.0 / 1e6);
    }
    return 0;
}
