/**
 * @file
 * Tests for the C++ training pipeline: dataset generation, feature
 * extraction, softmax-regression heads, convergence, generalization,
 * and the train/eval domain gap (trained on tunnel, evaluated on
 * s-shape, mirroring the paper's Section 4.2.3 methodology).
 */

#include <gtest/gtest.h>

#include "decoded_frame.hh"
#include "dnn/train.hh"

using namespace rose;
using namespace rose::dnn;

namespace {

Dataset
tunnelSet(int samples, uint64_t seed)
{
    env::TunnelWorld world;
    DatasetConfig cfg;
    cfg.samples = samples;
    cfg.seed = seed;
    return generateDataset(world, cfg);
}

} // namespace

TEST(Dataset, GenerationShapesAndLabels)
{
    Dataset ds = tunnelSet(200, 3);
    ASSERT_EQ(ds.examples.size(), 200u);
    EXPECT_GT(ds.featureDim, 100u);
    int counts_a[3] = {0, 0, 0}, counts_l[3] = {0, 0, 0};
    for (const Example &ex : ds.examples) {
        ASSERT_EQ(ex.features.size(), ds.featureDim);
        ASSERT_GE(ex.angularLabel, 0);
        ASSERT_LE(ex.angularLabel, 2);
        ++counts_a[ex.angularLabel];
        ++counts_l[ex.lateralLabel];
        // Bias feature present and constant.
        EXPECT_FLOAT_EQ(ex.features.back(), 1.0f);
    }
    // All three classes appear in both heads.
    for (int c = 0; c < 3; ++c) {
        EXPECT_GT(counts_a[c], 10) << "angular class " << c;
        EXPECT_GT(counts_l[c], 10) << "lateral class " << c;
    }
}

TEST(Dataset, DeterministicPerSeed)
{
    Dataset a = tunnelSet(50, 7);
    Dataset b = tunnelSet(50, 7);
    for (size_t i = 0; i < a.examples.size(); ++i) {
        EXPECT_EQ(a.examples[i].angularLabel,
                  b.examples[i].angularLabel);
        EXPECT_EQ(a.examples[i].features, b.examples[i].features);
    }
}

TEST(Features, GridPlusColumnsPlusBias)
{
    env::Image img(64, 48);
    for (size_t i = 0; i < img.pixels.size(); ++i)
        img.pixels[i] = 0.5f;
    std::vector<float> f = extractFeatures(img);
    EXPECT_EQ(f.size(), size_t(16 * 12 + 64 + 1));
    // Constant image -> constant pooled features.
    EXPECT_FLOAT_EQ(f[0], 0.5f);
    EXPECT_FLOAT_EQ(f[100], 0.5f);
    EXPECT_FLOAT_EQ(f.back(), 1.0f);
}

TEST(SoftmaxHead, UntrainedIsUniform)
{
    SoftmaxHead head(5);
    std::array<float, 3> p = head.predict({1, 2, 3, 4, 5});
    EXPECT_NEAR(p[0], 1.0f / 3, 1e-6);
    EXPECT_NEAR(p[1], 1.0f / 3, 1e-6);
}

TEST(SoftmaxHead, LearnsSeparableToy)
{
    // Two features; class = sign bucket of feature 0.
    SoftmaxHead head(3);
    Rng rng(11);
    for (int iter = 0; iter < 4000; ++iter) {
        double v = rng.uniform(-1, 1);
        int label = v > 0.3 ? 0 : v < -0.3 ? 2 : 1;
        head.sgdStep({float(v), float(v * v), 1.0f}, label, 0.1, 0.0);
    }
    EXPECT_EQ(head.predictClass({0.8f, 0.64f, 1.0f}), 0);
    EXPECT_EQ(head.predictClass({-0.8f, 0.64f, 1.0f}), 2);
    EXPECT_EQ(head.predictClass({0.0f, 0.0f, 1.0f}), 1);
}

TEST(SoftmaxHead, LossDecreasesOnRepeatedExample)
{
    SoftmaxHead head(3);
    std::vector<float> x{1.0f, -0.5f, 1.0f};
    double first = head.sgdStep(x, 0, 0.1, 0.0);
    double last = 0.0;
    for (int i = 0; i < 50; ++i)
        last = head.sgdStep(x, 0, 0.1, 0.0);
    EXPECT_LT(last, first);
}

TEST(Training, BeatsChanceByWideMargin)
{
    Dataset train = tunnelSet(1500, 21);
    Dataset val = tunnelSet(400, 22);
    TrainConfig tc;
    tc.epochs = 15;
    TrainedClassifier model = trainClassifier(train, tc);
    EvalResult r = evaluate(model, val);
    // Chance is 1/3; the pipeline should land far above it.
    EXPECT_GT(r.angularAccuracy, 0.85);
    EXPECT_GT(r.lateralAccuracy, 0.80);
}

TEST(Training, MoreDataHelps)
{
    Dataset small = tunnelSet(150, 31);
    Dataset big = tunnelSet(1500, 31);
    Dataset val = tunnelSet(400, 32);
    TrainConfig tc;
    tc.epochs = 12;
    double acc_small = evaluate(trainClassifier(small, tc), val).mean();
    double acc_big = evaluate(trainClassifier(big, tc), val).mean();
    EXPECT_GT(acc_big, acc_small - 0.01);
}

TEST(Training, DeterministicGivenSeeds)
{
    Dataset train = tunnelSet(300, 41);
    Dataset val = tunnelSet(100, 42);
    TrainConfig tc;
    tc.epochs = 5;
    double a = evaluate(trainClassifier(train, tc), val).mean();
    double b = evaluate(trainClassifier(train, tc), val).mean();
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(Training, InferOnImagesEndToEnd)
{
    Dataset train = tunnelSet(1500, 51);
    TrainConfig tc;
    tc.epochs = 15;
    TrainedClassifier model = trainClassifier(train, tc);

    // Render a clearly-offset pose and check the lateral head.
    env::TunnelWorld world;
    env::Camera cam(env::CameraConfig{}, Rng(53));
    env::Drone drone;
    drone.setPose({10, 1.0, 1.5}, Quat{});
    env::Image img;
    test::renderDecoded(cam, world, drone.position(), drone.attitude(), img);
    ClassifierOutput out = model.infer(img);
    ASSERT_TRUE(out.valid);
    EXPECT_EQ(out.lateral.argmax(), 0); // offset left
}

TEST(Training, DomainGapTunnelToSShape)
{
    // Paper methodology: trained on tunnel, evaluated on both. The
    // transfer to the unfamiliar (wider, curved) map must still beat
    // chance, but is allowed to be worse than in-domain accuracy.
    Dataset train = tunnelSet(1500, 61);
    TrainConfig tc;
    tc.epochs = 15;
    TrainedClassifier model = trainClassifier(train, tc);

    Dataset val_tunnel = tunnelSet(400, 62);
    env::SShapeWorld sshape;
    DatasetConfig dc;
    dc.samples = 400;
    dc.seed = 63;
    Dataset val_s = generateDataset(sshape, dc);

    double in_domain = evaluate(model, val_tunnel).mean();
    double transfer = evaluate(model, val_s).mean();
    EXPECT_GT(transfer, 0.45);           // far above 1/3 chance
    EXPECT_LE(transfer, in_domain + 0.03); // and no better than in-domain
}
