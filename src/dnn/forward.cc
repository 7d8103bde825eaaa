#include "forward.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "dnn/layers.hh"
#include "util/logging.hh"

namespace rose::dnn {

namespace {

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

} // namespace

Weights
initWeights(const Model &model, uint64_t seed)
{
    Weights w;
    Rng rng(seed);
    for (const LayerSpec &l : model.layers) {
        if (!l.weighted())
            continue;
        size_t fan_in;
        size_t count;
        if (l.kind == LayerKind::Conv) {
            fan_in = size_t(l.in.c) * l.kernel * l.kernel;
            count = size_t(l.outChannels) * fan_in;
        } else {
            fan_in = l.in.elems();
            count = size_t(l.outFeatures) * fan_in;
        }
        double std = std::sqrt(2.0 / double(fan_in));
        std::vector<float> vals(count);
        for (float &v : vals)
            v = float(rng.gaussian(0.0, std));
        w.weights[l.name] = std::move(vals);

        size_t outs = l.kind == LayerKind::Conv
                          ? size_t(l.outChannels)
                          : size_t(l.outFeatures);
        w.biases[l.name] = std::vector<float>(outs, 0.0f);
    }
    return w;
}

std::vector<float>
im2col(const LayerSpec &spec, const Tensor &input)
{
    rose_assert(spec.kind == LayerKind::Conv, "im2col needs a conv");
    int m, k, n;
    spec.gemmDims(m, k, n);
    Shape os = spec.outShape();
    std::vector<float> mat(size_t(m) * k);

    // Each kx run is a contiguous slice of one input row; copy the
    // in-bounds middle with memcpy and zero the padded edges instead of
    // going through atPadded's per-element bounds checks. Values and
    // layout are identical to the per-element formulation.
    const int ih = spec.in.h, iw = spec.in.w, kk = spec.kernel;
    const float *src = input.data().data();
    size_t row = 0;
    for (int oy = 0; oy < os.h; ++oy) {
        for (int ox = 0; ox < os.w; ++ox, ++row) {
            float *dst = mat.data() + row * size_t(k);
            int iy0 = oy * spec.stride - spec.pad;
            int ix0 = ox * spec.stride - spec.pad;
            int x_lo = std::max(0, -ix0);       // first in-bounds kx
            int x_hi = std::min(kk, iw - ix0);  // one past the last
            for (int ic = 0; ic < spec.in.c; ++ic) {
                const float *chan = src + size_t(ic) * ih * iw;
                for (int ky = 0; ky < kk; ++ky, dst += kk) {
                    int iy = iy0 + ky;
                    if (iy < 0 || iy >= ih || x_lo >= x_hi) {
                        std::fill(dst, dst + kk, 0.0f);
                        continue;
                    }
                    if (x_lo > 0)
                        std::fill(dst, dst + x_lo, 0.0f);
                    std::memcpy(dst + x_lo,
                                chan + size_t(iy) * iw + ix0 + x_lo,
                                size_t(x_hi - x_lo) * sizeof(float));
                    if (x_hi < kk)
                        std::fill(dst + x_hi, dst + kk, 0.0f);
                }
            }
        }
    }
    return mat;
}

Tensor
convViaGemm(const LayerSpec &spec, const Tensor &input,
            const std::vector<float> &weights,
            const std::vector<float> &bias, const gemmini::Gemmini &gem,
            bool relu)
{
    int m, k, n;
    spec.gemmDims(m, k, n);
    std::vector<float> a = im2col(spec, input);

    // Weights arrive OIHW = [outC][inC*k*k]; the GEMM needs B as
    // [k][n] = [inC*k*k][outC], i.e. the transpose.
    std::vector<float> b(size_t(k) * n);
    for (int o = 0; o < n; ++o)
        for (int i = 0; i < k; ++i)
            b[size_t(i) * n + o] = weights[size_t(o) * k + i];

    std::vector<float> c;
    gem.matmul(m, k, n, a, b, c);

    Shape os = spec.outShape();
    Tensor out(os.c, os.h, os.w);
    for (int oc = 0; oc < os.c; ++oc) {
        float bias_v = bias.empty() ? 0.0f : bias[size_t(oc)];
        for (int oy = 0; oy < os.h; ++oy) {
            for (int ox = 0; ox < os.w; ++ox) {
                float v = c[size_t(oy * os.w + ox) * n + oc] + bias_v;
                out.at(oc, oy, ox) = relu ? std::max(0.0f, v) : v;
            }
        }
    }
    return out;
}

ForwardResult
runForward(const Model &model, const Weights &w, const Tensor &input,
           bool use_gemm)
{
    rose_assert(input.height() == kDnnInputH &&
                    input.width() == kDnnInputW && input.channels() == 1,
                "input must be (1, ", kDnnInputH, ", ", kDnnInputW, ")");

    gemmini::Gemmini gem;
    Tensor cur = input;
    Tensor block_input;   // shortcut source for the current block
    Tensor proj_output;   // projected shortcut, when present
    bool have_proj = false;
    Tensor pooled;
    ForwardResult result;
    std::vector<float> last_dense;

    auto conv = [&](const LayerSpec &l, const Tensor &x, bool relu) {
        const std::vector<float> &wv = w.weights.at(l.name);
        const std::vector<float> &bv = w.biases.at(l.name);
        return use_gemm ? convViaGemm(l, x, wv, bv, gem, relu)
                        : conv2d(l, x, wv, bv, relu);
    };

    for (const LayerSpec &l : model.layers) {
        switch (l.kind) {
          case LayerKind::Conv: {
            if (endsWith(l.name, ".conv1")) {
                block_input = cur;
                have_proj = false;
                cur = conv(l, cur, /*relu=*/true);
            } else if (endsWith(l.name, ".conv2")) {
                // ReLU is applied after the residual add.
                cur = conv(l, cur, /*relu=*/false);
            } else if (endsWith(l.name, ".proj")) {
                proj_output =
                    conv(l, block_input, /*relu=*/false);
                have_proj = true;
            } else {
                // Stem.
                cur = conv(l, cur, /*relu=*/true);
            }
            break;
          }
          case LayerKind::MaxPool:
            cur = maxPool(l, cur);
            break;
          case LayerKind::Residual:
            cur = residualAdd(cur,
                              have_proj ? proj_output : block_input);
            break;
          case LayerKind::AvgPool:
            pooled = globalAvgPool(cur);
            break;
          case LayerKind::Dense:
            last_dense = dense(l, pooled, w.weights.at(l.name),
                               w.biases.at(l.name));
            break;
          case LayerKind::Softmax: {
            std::vector<float> p = softmax(last_dense);
            if (endsWith(l.name, "angular.softmax"))
                result.angularProbs = p;
            else
                result.lateralProbs = p;
            break;
          }
        }
    }
    rose_assert(result.angularProbs.size() == 3 &&
                    result.lateralProbs.size() == 3,
                "forward pass did not produce both heads");
    return result;
}

namespace {

MemoCache<std::pair<int, uint64_t>, Weights> g_weights_cache;

} // namespace

std::shared_ptr<const Weights>
sharedWeights(int depth, uint64_t seed)
{
    return g_weights_cache.getOrBuild({depth, seed}, [&] {
        std::shared_ptr<const Model> model = sharedResNet(depth);
        return std::make_shared<Weights>(initWeights(*model, seed));
    });
}

} // namespace rose::dnn
