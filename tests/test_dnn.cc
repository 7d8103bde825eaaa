/**
 * @file
 * Tests for the DNN stack: tensors, functional layer kernels, the
 * ResNet zoo, the execution engine's latency model (Table 3
 * properties), and the calibrated classifier (accuracy and
 * confidence-vs-capacity properties).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "decoded_frame.hh"
#include "dnn/classifier.hh"
#include "dnn/engine.hh"
#include "dnn/layers.hh"
#include "dnn/resnet.hh"
#include "dnn/tensor.hh"
#include "env/sensors.hh"
#include "env/world.hh"

using namespace rose;
using namespace rose::dnn;

// ---------------------------------------------------------------- Tensor

TEST(Tensor, ShapeAndAccess)
{
    Tensor t(2, 3, 4);
    EXPECT_EQ(t.size(), 24u);
    t.at(1, 2, 3) = 5.0f;
    EXPECT_FLOAT_EQ(t.at(1, 2, 3), 5.0f);
    EXPECT_FLOAT_EQ(t.atPadded(1, 2, 3), 5.0f);
    EXPECT_FLOAT_EQ(t.atPadded(0, -1, 0), 0.0f);
    EXPECT_FLOAT_EQ(t.atPadded(0, 0, 4), 0.0f);
    EXPECT_EQ(t.shapeString(), "(2,3,4)");
}

// ---------------------------------------------------------------- layers

TEST(Layers, ConvShapeAndMacs)
{
    LayerSpec c = makeConv("c", {3, 32, 32}, 16, 3, 1, 1);
    Shape o = c.outShape();
    EXPECT_EQ(o.c, 16);
    EXPECT_EQ(o.h, 32);
    EXPECT_EQ(o.w, 32);
    EXPECT_EQ(c.macs(), uint64_t(16) * 32 * 32 * 3 * 3 * 3);
    EXPECT_EQ(c.weightCount(), uint64_t(16) * 3 * 9 + 16);

    LayerSpec s2 = makeConv("s", {3, 32, 32}, 16, 3, 2, 1);
    EXPECT_EQ(s2.outShape().h, 16);
}

TEST(Layers, GemmDimsMatchIm2col)
{
    LayerSpec c = makeConv("c", {8, 10, 10}, 4, 3, 1, 1);
    int m, k, n;
    c.gemmDims(m, k, n);
    EXPECT_EQ(m, 100);    // output pixels
    EXPECT_EQ(k, 8 * 9);  // inC * k * k
    EXPECT_EQ(n, 4);      // out channels
    EXPECT_EQ(c.im2colBytes(), uint64_t(100) * 72 * 4);
}

TEST(Layers, ConvIdentityKernel)
{
    // A 1x1 identity kernel must reproduce the input (ReLU'd).
    LayerSpec spec = makeConv("id", {1, 4, 4}, 1, 1, 1, 0);
    Tensor in(1, 4, 4);
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
            in.at(0, y, x) = float(y * 4 + x) - 6.0f;
    std::vector<float> w{1.0f};
    Tensor out = conv2d(spec, in, w, {}, /*relu=*/true);
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
            EXPECT_FLOAT_EQ(out.at(0, y, x),
                            std::max(0.0f, in.at(0, y, x)));
}

TEST(Layers, ConvAveragingKernel)
{
    // 3x3 box kernel over a constant image returns the constant
    // (interior) and less at borders (zero padding).
    LayerSpec spec = makeConv("box", {1, 5, 5}, 1, 3, 1, 1);
    Tensor in(1, 5, 5);
    in.fill(1.0f);
    std::vector<float> w(9, 1.0f / 9.0f);
    Tensor out = conv2d(spec, in, w, {}, false);
    EXPECT_NEAR(out.at(0, 2, 2), 1.0f, 1e-6);
    EXPECT_NEAR(out.at(0, 0, 0), 4.0f / 9.0f, 1e-6);
}

TEST(Layers, DenseComputesAffine)
{
    LayerSpec spec = makeDense("d", {1, 1, 3}, 2);
    Tensor in(1, 1, 3);
    in.data() = {1.0f, 2.0f, 3.0f};
    std::vector<float> w{1, 0, 0, 0, 1, 1}; // rows: [1,0,0],[0,1,1]
    std::vector<float> b{0.5f, -0.5f};
    std::vector<float> out = dense(spec, in, w, b);
    EXPECT_FLOAT_EQ(out[0], 1.5f);
    EXPECT_FLOAT_EQ(out[1], 4.5f);
}

TEST(Layers, MaxPoolPicksMax)
{
    LayerSpec spec = makeMaxPool("p", {1, 4, 4}, 2, 2);
    Tensor in(1, 4, 4);
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
            in.at(0, y, x) = float(y * 4 + x);
    Tensor out = maxPool(spec, in);
    EXPECT_EQ(out.height(), 2);
    EXPECT_FLOAT_EQ(out.at(0, 0, 0), 5.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1, 1), 15.0f);
}

TEST(Layers, GlobalAvgPool)
{
    Tensor in(2, 2, 2);
    in.data() = {1, 2, 3, 4, 10, 10, 10, 10};
    Tensor out = globalAvgPool(in);
    EXPECT_FLOAT_EQ(out.at(0, 0, 0), 2.5f);
    EXPECT_FLOAT_EQ(out.at(1, 0, 0), 10.0f);
}

TEST(Layers, ResidualAddRelu)
{
    Tensor a(1, 1, 2), b(1, 1, 2);
    a.data() = {1.0f, -3.0f};
    b.data() = {2.0f, 1.0f};
    Tensor out = residualAdd(a, b);
    EXPECT_FLOAT_EQ(out.data()[0], 3.0f);
    EXPECT_FLOAT_EQ(out.data()[1], 0.0f); // relu(-2)
}

TEST(Layers, SoftmaxNormalizedAndStable)
{
    std::vector<float> p = softmax({1000.0f, 1001.0f, 1002.0f});
    double sum = p[0] + p[1] + p[2];
    EXPECT_NEAR(sum, 1.0, 1e-6);
    EXPECT_GT(p[2], p[1]);
    EXPECT_GT(p[1], p[0]);
}

// ------------------------------------------------------------------- zoo

TEST(Zoo, AllDepthsBuild)
{
    for (int d : resnetZoo()) {
        Model m = makeResNet(d);
        EXPECT_EQ(m.depth, d);
        EXPECT_GT(m.weightedLayers(), 0);
        EXPECT_GT(m.totalMacs(), 0u);
        // Dual heads present.
        int dense_heads = 0;
        for (const LayerSpec &l : m.layers)
            dense_heads += l.kind == LayerKind::Dense;
        EXPECT_EQ(dense_heads, 2) << m.name;
    }
}

TEST(Zoo, CapacityMonotone)
{
    uint64_t prev = 0;
    for (int d : resnetZoo()) {
        uint64_t macs = makeResNet(d).totalMacs();
        EXPECT_GT(macs, prev) << "depth " << d;
        prev = macs;
    }
}

TEST(Zoo, CalibrationTrendsMatchPaper)
{
    // Bigger nets: less estimate noise, lower temperature (sharper),
    // higher paper accuracy.
    double prev_sigma = 1e9, prev_temp = 1e9, prev_acc = 0.0;
    for (int d : resnetZoo()) {
        ClassifierCalib c = makeResNet(d).calib;
        EXPECT_LT(c.sigmaHeading, prev_sigma);
        EXPECT_LT(c.temperature, prev_temp);
        EXPECT_GT(c.paperAccuracy, prev_acc - 1e-9);
        prev_sigma = c.sigmaHeading;
        prev_temp = c.temperature;
        prev_acc = c.paperAccuracy;
    }
}

TEST(Zoo, ShapesChainCorrectly)
{
    // Every layer's input shape equals the previous producing layer's
    // output shape along the main path (residual adds keep shape).
    for (int d : resnetZoo()) {
        Model m = makeResNet(d);
        Shape cur{1, kDnnInputH, kDnnInputW};
        for (const LayerSpec &l : m.layers) {
            if (l.kind == LayerKind::Conv && l.kernel == 1)
                continue; // projection shortcut taps an earlier shape
            if (l.kind == LayerKind::Dense || l.kind == LayerKind::Softmax)
                continue; // heads fan out from the pooled vector
            EXPECT_EQ(l.in, cur) << m.name << " layer " << l.name;
            cur = l.outShape();
        }
    }
}

// ---------------------------------------------------------------- engine

TEST(Engine, Table3LatencyOrdering)
{
    ExecutionEngine boom(soc::configA());
    ExecutionEngine rocket(soc::configB());
    double prev_b = 0.0, prev_r = 0.0;
    for (int d : resnetZoo()) {
        Model m = makeResNet(d);
        double lb = boom.latencySeconds(m);
        double lr = rocket.latencySeconds(m);
        // Monotone in depth, Rocket strictly slower than BOOM.
        EXPECT_GT(lb, prev_b);
        EXPECT_GT(lr, prev_r);
        EXPECT_GT(lr, lb);
        prev_b = lb;
        prev_r = lr;
    }
}

TEST(Engine, Table3Magnitudes)
{
    // Shape targets from Table 3 (generous +-35% tolerance: we match
    // orderings and gaps, not the authors' testbed exactly).
    struct Row { int depth; double boom_ms; double rocket_ms; };
    const Row rows[] = {{6, 77, 101}, {11, 83, 108}, {14, 85, 125},
                        {18, 130, 185}, {34, 225, 300}};
    ExecutionEngine boom(soc::configA());
    ExecutionEngine rocket(soc::configB());
    for (const Row &r : rows) {
        Model m = makeResNet(r.depth);
        EXPECT_NEAR(boom.latencySeconds(m) * 1e3, r.boom_ms,
                    0.35 * r.boom_ms) << m.name;
        EXPECT_NEAR(rocket.latencySeconds(m) * 1e3, r.rocket_ms,
                    0.35 * r.rocket_ms) << m.name;
    }
}

TEST(Engine, CpuOnlyIsSecondsNotMilliseconds)
{
    // Section 5.1: the CPU-only config takes whole seconds per
    // inference (the paper observes ~6 s request-to-update latency).
    ExecutionEngine cpu(soc::configC());
    double lat = cpu.latencySeconds(makeResNet(14));
    EXPECT_GT(lat, 2.0);
    EXPECT_LT(lat, 12.0);
}

TEST(Engine, AccelCarriesMostComputeCycles)
{
    ExecutionEngine boom(soc::configA());
    InferenceSchedule s = boom.schedule(makeResNet(34));
    EXPECT_GT(s.accelCycles, 0u);
    EXPECT_EQ(s.totalCycles, s.accelCycles + s.hostCycles);
    // Actions replay to the same totals.
    Cycles sum = 0;
    for (const soc::Action &a : s.actions)
        sum += a.cycles;
    EXPECT_EQ(sum, s.totalCycles);
}

TEST(Engine, NoAccelScheduleHasNoAccelActions)
{
    ExecutionEngine cpu(soc::configC());
    InferenceSchedule s = cpu.schedule(makeResNet(6));
    EXPECT_EQ(s.accelCycles, 0u);
    for (const soc::Action &a : s.actions)
        EXPECT_NE(a.unit, soc::Unit::Accel);
}

// ------------------------------------------------------------ classifier

namespace {

struct AccuracyResult
{
    double angular;
    double lateral;
    double mean;
};

AccuracyResult
measureAccuracy(int depth, int samples)
{
    env::TunnelWorld world;
    env::Camera cam(env::CameraConfig{}, Rng(41));
    env::Drone drone;
    env::Image img;
    Classifier cls(makeResNet(depth), Rng(43));
    EstimatorConfig ec;
    Rng rng(47);
    int oka = 0, okl = 0;
    for (int i = 0; i < samples; ++i) {
        double y = rng.uniform(-1.2, 1.2);
        double psi = rng.uniform(-0.35, 0.35);
        double x = rng.uniform(5.0, 45.0);
        drone.setPose({x, y, 1.5}, Quat::fromEuler(0, 0, psi));
        test::renderDecoded(cam, world, drone.position(), drone.attitude(),
                            img);
        ClassifierOutput out = cls.infer(img);
        int ta = psi > ec.headingClassRad ? 0
                 : psi < -ec.headingClassRad ? 2 : 1;
        int tl = y > ec.offsetClassM ? 0 : y < -ec.offsetClassM ? 2 : 1;
        oka += out.angular.argmax() == ta;
        okl += out.lateral.argmax() == tl;
    }
    return {double(oka) / samples, double(okl) / samples,
            double(oka + okl) / (2.0 * samples)};
}

} // namespace

TEST(Classifier, PoseEstimateAccurate)
{
    env::TunnelWorld world;
    env::Camera cam(env::CameraConfig{}, Rng(11));
    env::Drone drone;
    env::Image img;
    Rng rng(13);
    PoseScratch scratch;
    double se_h = 0.0, se_o = 0.0;
    const int n = 100;
    for (int i = 0; i < n; ++i) {
        double y = rng.uniform(-1.0, 1.0);
        double psi = rng.uniform(-0.3, 0.3);
        drone.setPose({rng.uniform(5, 45), y, 1.5},
                      Quat::fromEuler(0, 0, psi));
        test::renderDecoded(cam, world, drone.position(), drone.attitude(),
                            img);
        PoseEstimate est = estimatePose(img, {}, scratch);
        ASSERT_TRUE(est.valid);
        se_h += (est.headingRad - psi) * (est.headingRad - psi);
        se_o += (est.offsetM - y) * (est.offsetM - y);
    }
    EXPECT_LT(std::sqrt(se_h / n), 0.05);  // heading RMSE < ~3 deg
    EXPECT_LT(std::sqrt(se_o / n), 0.15);  // offset RMSE < 15 cm
}

TEST(Classifier, ProbabilitiesNormalized)
{
    env::TunnelWorld world;
    env::Camera cam(env::CameraConfig{}, Rng(17));
    env::Drone drone;
    drone.setPose({10, 0.5, 1.5}, Quat::fromEuler(0, 0, 0.1));
    Classifier cls(makeResNet(14), Rng(19));
    env::Image img;
    test::renderDecoded(cam, world, drone.position(), drone.attitude(), img);
    ClassifierOutput out = cls.infer(img);
    ASSERT_TRUE(out.valid);
    double sa = out.angular.probs[0] + out.angular.probs[1] +
                out.angular.probs[2];
    double sl = out.lateral.probs[0] + out.lateral.probs[1] +
                out.lateral.probs[2];
    EXPECT_NEAR(sa, 1.0, 1e-5);
    EXPECT_NEAR(sl, 1.0, 1e-5);
}

TEST(Classifier, CorrectClassOnClearPoses)
{
    env::TunnelWorld world;
    env::Camera cam(env::CameraConfig{}, Rng(23));
    env::Drone drone;
    Classifier cls(makeResNet(34), Rng(29)); // most accurate model

    // Strongly yawed left, centered: angular head must say left.
    drone.setPose({10, 0.0, 1.5}, Quat::fromEuler(0, 0, 0.35));
    env::Image img;
    test::renderDecoded(cam, world, drone.position(), drone.attitude(), img);
    ClassifierOutput out = cls.infer(img);
    EXPECT_EQ(out.angular.argmax(), 0);

    // Strongly offset right, straight: lateral head must say right.
    drone.setPose({10, -1.1, 1.5}, Quat{});
    test::renderDecoded(cam, world, drone.position(), drone.attitude(), img);
    out = cls.infer(img);
    EXPECT_EQ(out.lateral.argmax(), 2);
}

TEST(Classifier, ConfidenceGrowsWithCapacity)
{
    // Section 5.2's mechanism: larger models produce sharper softmax
    // outputs on the same clear input.
    env::TunnelWorld world;
    env::Camera cam(env::CameraConfig{}, Rng(31));
    env::Drone drone;
    drone.setPose({10, 0.0, 1.5}, Quat::fromEuler(0, 0, 0.3));
    env::Image img;
    test::renderDecoded(cam, world, drone.position(), drone.attitude(), img);

    double margin6 = 0.0, margin34 = 0.0;
    const int reps = 50;
    Classifier c6(makeResNet(6), Rng(37));
    Classifier c34(makeResNet(34), Rng(37));
    for (int i = 0; i < reps; ++i) {
        margin6 += std::abs(c6.infer(img).angular.margin());
        margin34 += std::abs(c34.infer(img).angular.margin());
    }
    EXPECT_GT(margin34 / reps, margin6 / reps + 0.2);
}

/** Table 3 accuracy column, parameterized over the zoo. */
class ClassifierAccuracy : public ::testing::TestWithParam<int>
{
};

TEST_P(ClassifierAccuracy, MatchesPaperWithin5Points)
{
    int depth = GetParam();
    Model m = makeResNet(depth);
    AccuracyResult acc = measureAccuracy(depth, 400);
    EXPECT_NEAR(acc.mean, m.calib.paperAccuracy, 0.05)
        << m.name << " angular=" << acc.angular
        << " lateral=" << acc.lateral;
}

INSTANTIATE_TEST_SUITE_P(Zoo, ClassifierAccuracy,
                         ::testing::ValuesIn(resnetZoo()));

TEST(Classifier, AccuracyMonotoneInCapacity)
{
    double prev = 0.0;
    for (int d : resnetZoo()) {
        double acc = measureAccuracy(d, 400).mean;
        EXPECT_GT(acc, prev - 0.02) << "depth " << d;
        prev = std::max(prev, acc);
    }
}

TEST(Classifier, DegenerateImageFallsBackToUniform)
{
    Classifier cls(makeResNet(14), Rng(53));
    env::Image tiny(2, 2);
    ClassifierOutput out = cls.infer(tiny);
    EXPECT_FALSE(out.valid);
    EXPECT_NEAR(out.angular.probs[0], 1.0f / 3, 1e-6);
}

// ---------------------------------------------------------- forward pass

#include "dnn/forward.hh"

TEST(Forward, Im2colMatchesGemmDims)
{
    LayerSpec c = makeConv("c", {2, 6, 6}, 3, 3, 1, 1);
    Tensor in(2, 6, 6);
    for (size_t i = 0; i < in.data().size(); ++i)
        in.data()[i] = float(i) * 0.01f;
    std::vector<float> mat = im2col(c, in);
    int m, k, n;
    c.gemmDims(m, k, n);
    EXPECT_EQ(mat.size(), size_t(m) * k);
    // Spot check: row 0 (output pixel 0,0) column for ic=0,ky=1,kx=1
    // is input(0,0,0) since pad shifts by -1.
    EXPECT_FLOAT_EQ(mat[size_t(0) * k + (0 * 9 + 1 * 3 + 1)],
                    in.at(0, 0, 0));
    // Padded corners read zero.
    EXPECT_FLOAT_EQ(mat[0], 0.0f);
}

TEST(Forward, ConvViaGemmMatchesDirect)
{
    // The accelerator lowering (im2col + GEMM) must agree with the
    // direct convolution loops — the equivalence the latency model's
    // GEMM dimensions rest on.
    gemmini::Gemmini gem;
    LayerSpec spec = makeConv("c", {3, 10, 10}, 5, 3, 2, 1);
    Tensor in(3, 10, 10);
    Rng rng(91);
    for (float &v : in.data())
        v = float(rng.uniform(-1, 1));
    std::vector<float> wv(size_t(5) * 3 * 9);
    for (float &v : wv)
        v = float(rng.uniform(-0.3, 0.3));
    std::vector<float> bv{0.1f, -0.2f, 0.0f, 0.3f, -0.1f};

    Tensor direct = conv2d(spec, in, wv, bv, true);
    Tensor lowered = convViaGemm(spec, in, wv, bv, gem, true);
    ASSERT_EQ(direct.size(), lowered.size());
    for (size_t i = 0; i < direct.size(); ++i)
        EXPECT_NEAR(direct.data()[i], lowered.data()[i], 1e-3);
}

TEST(Forward, FullGraphProducesValidHeads)
{
    Model m = makeResNet(6);
    Weights w = initWeights(m, 7);
    Tensor in(1, kDnnInputH, kDnnInputW);
    Rng rng(11);
    for (float &v : in.data())
        v = float(rng.uniform(0, 1));
    ForwardResult r = runForward(m, w, in);
    double sa = r.angularProbs[0] + r.angularProbs[1] +
                r.angularProbs[2];
    double sl = r.lateralProbs[0] + r.lateralProbs[1] +
                r.lateralProbs[2];
    EXPECT_NEAR(sa, 1.0, 1e-5);
    EXPECT_NEAR(sl, 1.0, 1e-5);
    for (float p : r.angularProbs) {
        EXPECT_TRUE(std::isfinite(p));
        EXPECT_GE(p, 0.0f);
    }
}

TEST(Forward, GemmPathMatchesDirectPathEndToEnd)
{
    Model m = makeResNet(6);
    Weights w = initWeights(m, 21);
    Tensor in(1, kDnnInputH, kDnnInputW);
    Rng rng(23);
    for (float &v : in.data())
        v = float(rng.uniform(0, 1));
    ForwardResult a = runForward(m, w, in, /*use_gemm=*/false);
    ForwardResult b = runForward(m, w, in, /*use_gemm=*/true);
    for (int i = 0; i < 3; ++i) {
        EXPECT_NEAR(a.angularProbs[size_t(i)],
                    b.angularProbs[size_t(i)], 1e-3);
        EXPECT_NEAR(a.lateralProbs[size_t(i)],
                    b.lateralProbs[size_t(i)], 1e-3);
    }
}

TEST(Forward, DeterministicWeights)
{
    Model m = makeResNet(6);
    Weights a = initWeights(m, 5);
    Weights b = initWeights(m, 5);
    EXPECT_EQ(a.weights.at("stem"), b.weights.at("stem"));
    Weights c = initWeights(m, 6);
    EXPECT_NE(a.weights.at("stem"), c.weights.at("stem"));
}

TEST(Forward, ResidualGraphDepths)
{
    // Every zoo depth must execute its graph end to end (projection
    // shortcuts, transitions, dual heads).
    Tensor in(1, kDnnInputH, kDnnInputW);
    in.fill(0.5f);
    for (int d : {6, 11, 14}) {
        Model m = makeResNet(d);
        Weights w = initWeights(m, uint64_t(d));
        ForwardResult r = runForward(m, w, in);
        EXPECT_EQ(r.angularProbs.size(), 3u) << d;
    }
}

// ----------------------------------------- engine property sweep

/** Schedule invariants across the full (SoC x model) matrix. */
class EngineScheduleProperty
    : public ::testing::TestWithParam<std::tuple<char, int>>
{
};

TEST_P(EngineScheduleProperty, ActionInvariants)
{
    auto [soc_name, depth] = GetParam();
    soc::SocConfig sc = soc::configByName(std::string(1, soc_name));
    ExecutionEngine engine(sc);
    Model m = makeResNet(depth);
    InferenceSchedule s = engine.schedule(m);

    // Totals decompose exactly.
    Cycles sum = 0, accel = 0;
    for (const soc::Action &a : s.actions) {
        EXPECT_EQ(a.kind, soc::Action::Kind::Compute);
        EXPECT_GT(a.cycles, 0u);
        sum += a.cycles;
        if (a.unit == soc::Unit::Accel)
            accel += a.cycles;
    }
    EXPECT_EQ(sum, s.totalCycles);
    EXPECT_EQ(accel, s.accelCycles);
    EXPECT_EQ(s.totalCycles - accel, s.hostCycles);

    // Per-layer breakdown covers every weighted layer.
    EXPECT_EQ(int(s.layers.size()), int(m.layers.size()));
    for (const LayerTiming &lt : s.layers) {
        if (lt.onAccel) {
            EXPECT_GT(lt.accelCycles, 0u);
        } else {
            EXPECT_EQ(lt.accelCycles, 0u);
        }
    }

    // Config C never touches the accelerator.
    if (!sc.hasGemmini) {
        EXPECT_EQ(s.accelCycles, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineScheduleProperty,
    ::testing::Combine(::testing::Values('A', 'B', 'C'),
                       ::testing::ValuesIn(resnetZoo())));
