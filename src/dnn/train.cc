#include "train.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "bridge/packet.hh"
#include "util/logging.hh"

namespace rose::dnn {

std::vector<float>
extractFeatures(const env::Image &img)
{
    rose_assert(img.width >= 16 && img.height >= 12,
                "image too small for feature grid");
    // 16x12 average-pooled grid + per-column means + bias.
    const int gw = 16, gh = 12;
    std::vector<float> f;
    f.reserve(size_t(gw) * gh + img.width + 1);

    for (int gy = 0; gy < gh; ++gy) {
        int y0 = gy * img.height / gh;
        int y1 = (gy + 1) * img.height / gh;
        for (int gx = 0; gx < gw; ++gx) {
            int x0 = gx * img.width / gw;
            int x1 = (gx + 1) * img.width / gw;
            double sum = 0.0;
            for (int y = y0; y < y1; ++y)
                for (int x = x0; x < x1; ++x)
                    sum += img.at(y, x);
            f.push_back(float(sum / double((y1 - y0) * (x1 - x0))));
        }
    }
    for (int x = 0; x < img.width; ++x) {
        double sum = 0.0;
        for (int y = 0; y < img.height; ++y)
            sum += img.at(y, x);
        f.push_back(float(sum / img.height));
    }
    f.push_back(1.0f); // bias
    return f;
}

Dataset
generateDataset(const env::World &world, const DatasetConfig &cfg)
{
    Dataset ds;
    Rng rng(cfg.seed);
    env::Camera cam(env::CameraConfig{}, rng.split());
    env::Drone drone;
    env::Image img;

    const EstimatorConfig &th = cfg.thresholds;
    for (int i = 0; i < cfg.samples; ++i) {
        double y = rng.uniform(-cfg.offsetRange, cfg.offsetRange);
        double psi =
            rng.uniform(-cfg.headingRangeRad, cfg.headingRangeRad);
        double x = rng.uniform(2.0, world.length() - 5.0);
        drone.setPose({x, world.centerY(x) + y, th.camAltitude},
                      Quat::fromEuler(0, 0,
                                      world.tangentAngle(x) + psi));
        // The classifier sees frames as missions deliver them: the
        // bridge's 8-bit image, decoded.
        bridge::decodeImageRespInto(
            bridge::renderImageResp(cam, world, drone.position(),
                                    drone.attitude()),
            img);

        Example ex;
        ex.features = extractFeatures(img);
        ex.angularLabel = psi > th.headingClassRad ? 0
                          : psi < -th.headingClassRad ? 2 : 1;
        ex.lateralLabel =
            y > th.offsetClassM ? 0 : y < -th.offsetClassM ? 2 : 1;
        ds.featureDim = ex.features.size();
        ds.examples.push_back(std::move(ex));
    }
    return ds;
}

// ------------------------------------------------------------ SoftmaxHead

SoftmaxHead::SoftmaxHead(size_t feature_dim)
    : dim_(feature_dim), w_(3 * feature_dim, 0.0f)
{
    rose_assert(feature_dim > 0, "empty feature vector");
}

std::array<float, 3>
SoftmaxHead::predict(const std::vector<float> &x) const
{
    rose_assert(x.size() == dim_, "feature dim mismatch");
    std::array<double, 3> z{};
    for (int c = 0; c < 3; ++c) {
        const float *row = &w_[size_t(c) * dim_];
        double acc = 0.0;
        for (size_t i = 0; i < dim_; ++i)
            acc += double(row[i]) * x[i];
        z[size_t(c)] = acc;
    }
    double mx = std::max({z[0], z[1], z[2]});
    double sum = 0.0;
    std::array<float, 3> p{};
    for (int c = 0; c < 3; ++c) {
        double e = std::exp(z[size_t(c)] - mx);
        p[size_t(c)] = float(e);
        sum += e;
    }
    for (float &v : p)
        v = float(v / sum);
    return p;
}

double
SoftmaxHead::sgdStep(const std::vector<float> &x, int label, double lr,
                     double l2)
{
    rose_assert(label >= 0 && label < 3, "bad label");
    std::array<float, 3> p = predict(x);
    for (int c = 0; c < 3; ++c) {
        double grad_scale =
            double(p[size_t(c)]) - (c == label ? 1.0 : 0.0);
        float *row = &w_[size_t(c) * dim_];
        for (size_t i = 0; i < dim_; ++i) {
            row[i] -= float(lr * (grad_scale * x[i] +
                                  l2 * double(row[i])));
        }
    }
    double pl = std::max(1e-12, double(p[size_t(label)]));
    return -std::log(pl);
}

// ---------------------------------------------------------------- training

TrainedClassifier
trainClassifier(const Dataset &train, const TrainConfig &cfg)
{
    rose_assert(!train.examples.empty(), "empty training set");
    TrainedClassifier model(train.featureDim);

    std::vector<size_t> order(train.examples.size());
    std::iota(order.begin(), order.end(), 0);
    Rng rng(cfg.seed);

    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        // Fisher-Yates shuffle with our deterministic RNG.
        for (size_t i = order.size(); i > 1; --i) {
            size_t j = size_t(rng.uniformInt(i));
            std::swap(order[i - 1], order[j]);
        }
        // Simple 1/sqrt schedule keeps late epochs stable.
        double lr = cfg.learningRate / std::sqrt(1.0 + epoch);
        for (size_t idx : order) {
            const Example &ex = train.examples[idx];
            model.angular.sgdStep(ex.features, ex.angularLabel, lr,
                                  cfg.l2);
            model.lateral.sgdStep(ex.features, ex.lateralLabel, lr,
                                  cfg.l2);
        }
    }
    return model;
}

ClassifierOutput
TrainedClassifier::infer(const env::Image &img) const
{
    std::vector<float> f = extractFeatures(img);
    ClassifierOutput out;
    out.angular.probs = angular.predict(f);
    out.lateral.probs = lateral.predict(f);
    out.valid = true;
    return out;
}

EvalResult
evaluate(const TrainedClassifier &model, const Dataset &ds)
{
    rose_assert(!ds.examples.empty(), "empty evaluation set");
    int oka = 0, okl = 0;
    for (const Example &ex : ds.examples) {
        oka += model.angular.predictClass(ex.features) ==
               ex.angularLabel;
        okl += model.lateral.predictClass(ex.features) ==
               ex.lateralLabel;
    }
    EvalResult r;
    r.angularAccuracy = double(oka) / double(ds.examples.size());
    r.lateralAccuracy = double(okl) / double(ds.examples.size());
    return r;
}

} // namespace rose::dnn
