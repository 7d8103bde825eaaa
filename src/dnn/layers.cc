#include "layers.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace rose::dnn {

Shape
LayerSpec::outShape() const
{
    switch (kind) {
      case LayerKind::Conv: {
        int oh = (in.h + 2 * pad - kernel) / stride + 1;
        int ow = (in.w + 2 * pad - kernel) / stride + 1;
        return {outChannels, oh, ow};
      }
      case LayerKind::Dense:
        return {outFeatures, 1, 1};
      case LayerKind::MaxPool: {
        int oh = (in.h - kernel) / stride + 1;
        int ow = (in.w - kernel) / stride + 1;
        return {in.c, oh, ow};
      }
      case LayerKind::AvgPool:
        return {in.c, 1, 1};
      case LayerKind::Residual:
      case LayerKind::Softmax:
        return in;
    }
    return in;
}

uint64_t
LayerSpec::macs() const
{
    Shape out = outShape();
    switch (kind) {
      case LayerKind::Conv:
        return uint64_t(out.c) * out.h * out.w * in.c * kernel * kernel;
      case LayerKind::Dense:
        return uint64_t(outFeatures) * in.elems();
      default:
        return 0;
    }
}

uint64_t
LayerSpec::weightCount() const
{
    switch (kind) {
      case LayerKind::Conv:
        return uint64_t(outChannels) * in.c * kernel * kernel +
               outChannels;
      case LayerKind::Dense:
        return uint64_t(outFeatures) * in.elems() + outFeatures;
      default:
        return 0;
    }
}

void
LayerSpec::gemmDims(int &m, int &k, int &n) const
{
    Shape out = outShape();
    switch (kind) {
      case LayerKind::Conv:
        // im2col lowering: (out pixels) x (k*k*inC) * (k*k*inC) x outC.
        m = out.h * out.w;
        k = in.c * kernel * kernel;
        n = out.c;
        break;
      case LayerKind::Dense:
        m = 1;
        k = int(in.elems());
        n = outFeatures;
        break;
      default:
        m = k = n = 0;
        break;
    }
}

uint64_t
LayerSpec::im2colBytes() const
{
    int m, k, n;
    gemmDims(m, k, n);
    return uint64_t(m) * k * sizeof(float);
}

// ------------------------------------------------------------ builders

LayerSpec
makeConv(const std::string &name, Shape in, int out_ch, int kernel,
         int stride, int pad)
{
    LayerSpec s;
    s.kind = LayerKind::Conv;
    s.name = name;
    s.in = in;
    s.outChannels = out_ch;
    s.kernel = kernel;
    s.stride = stride;
    s.pad = pad;
    return s;
}

LayerSpec
makeDense(const std::string &name, Shape in, int out_features)
{
    LayerSpec s;
    s.kind = LayerKind::Dense;
    s.name = name;
    s.in = in;
    s.outFeatures = out_features;
    return s;
}

LayerSpec
makeMaxPool(const std::string &name, Shape in, int kernel, int stride)
{
    LayerSpec s;
    s.kind = LayerKind::MaxPool;
    s.name = name;
    s.in = in;
    s.kernel = kernel;
    s.stride = stride;
    s.pad = 0;
    return s;
}

LayerSpec
makeGlobalAvgPool(const std::string &name, Shape in)
{
    LayerSpec s;
    s.kind = LayerKind::AvgPool;
    s.name = name;
    s.in = in;
    return s;
}

LayerSpec
makeResidual(const std::string &name, Shape in)
{
    LayerSpec s;
    s.kind = LayerKind::Residual;
    s.name = name;
    s.in = in;
    return s;
}

LayerSpec
makeSoftmax(const std::string &name, Shape in)
{
    LayerSpec s;
    s.kind = LayerKind::Softmax;
    s.name = name;
    s.in = in;
    return s;
}

// -------------------------------------------------- functional kernels

Tensor
conv2d(const LayerSpec &spec, const Tensor &input,
       const std::vector<float> &weights, const std::vector<float> &bias,
       bool relu)
{
    rose_assert(spec.kind == LayerKind::Conv, "not a conv spec");
    rose_assert(input.channels() == spec.in.c &&
                    input.height() == spec.in.h &&
                    input.width() == spec.in.w,
                "conv input shape mismatch");
    rose_assert(weights.size() == size_t(spec.outChannels) * spec.in.c *
                                      spec.kernel * spec.kernel,
                "conv weight count mismatch");

    Shape os = spec.outShape();
    Tensor out(os.c, os.h, os.w);
    int k = spec.kernel;
    for (int oc = 0; oc < os.c; ++oc) {
        float b = bias.empty() ? 0.0f : bias[oc];
        for (int oy = 0; oy < os.h; ++oy) {
            for (int ox = 0; ox < os.w; ++ox) {
                float acc = b;
                int iy0 = oy * spec.stride - spec.pad;
                int ix0 = ox * spec.stride - spec.pad;
                for (int ic = 0; ic < spec.in.c; ++ic) {
                    const float *wbase =
                        &weights[((size_t(oc) * spec.in.c + ic) * k) * k];
                    for (int ky = 0; ky < k; ++ky) {
                        for (int kx = 0; kx < k; ++kx) {
                            acc += wbase[ky * k + kx] *
                                   input.atPadded(ic, iy0 + ky,
                                                  ix0 + kx);
                        }
                    }
                }
                out.at(oc, oy, ox) =
                    relu ? std::max(0.0f, acc) : acc;
            }
        }
    }
    return out;
}

std::vector<float>
dense(const LayerSpec &spec, const Tensor &input,
      const std::vector<float> &weights, const std::vector<float> &bias)
{
    rose_assert(spec.kind == LayerKind::Dense, "not a dense spec");
    size_t in_n = input.size();
    rose_assert(weights.size() == size_t(spec.outFeatures) * in_n,
                "dense weight count mismatch");
    std::vector<float> out(size_t(spec.outFeatures));
    for (int o = 0; o < spec.outFeatures; ++o) {
        float acc = bias.empty() ? 0.0f : bias[o];
        const float *wrow = &weights[size_t(o) * in_n];
        for (size_t i = 0; i < in_n; ++i)
            acc += wrow[i] * input.data()[i];
        out[o] = acc;
    }
    return out;
}

Tensor
maxPool(const LayerSpec &spec, const Tensor &input)
{
    rose_assert(spec.kind == LayerKind::MaxPool, "not a pool spec");
    Shape os = spec.outShape();
    Tensor out(os.c, os.h, os.w);
    for (int c = 0; c < os.c; ++c) {
        for (int oy = 0; oy < os.h; ++oy) {
            for (int ox = 0; ox < os.w; ++ox) {
                float best = -1e30f;
                for (int ky = 0; ky < spec.kernel; ++ky) {
                    for (int kx = 0; kx < spec.kernel; ++kx) {
                        best = std::max(
                            best, input.at(c, oy * spec.stride + ky,
                                           ox * spec.stride + kx));
                    }
                }
                out.at(c, oy, ox) = best;
            }
        }
    }
    return out;
}

Tensor
globalAvgPool(const Tensor &input)
{
    Tensor out(input.channels(), 1, 1);
    double denom = double(input.height()) * input.width();
    for (int c = 0; c < input.channels(); ++c) {
        double sum = 0.0;
        for (int y = 0; y < input.height(); ++y)
            for (int x = 0; x < input.width(); ++x)
                sum += input.at(c, y, x);
        out.at(c, 0, 0) = float(sum / denom);
    }
    return out;
}

Tensor
residualAdd(const Tensor &a, const Tensor &b)
{
    rose_assert(a.channels() == b.channels() &&
                    a.height() == b.height() && a.width() == b.width(),
                "residual shape mismatch");
    Tensor out(a.channels(), a.height(), a.width());
    for (size_t i = 0; i < a.size(); ++i)
        out.data()[i] = std::max(0.0f, a.data()[i] + b.data()[i]);
    return out;
}

std::vector<float>
softmax(const std::vector<float> &logits)
{
    rose_assert(!logits.empty(), "softmax of empty vector");
    float mx = *std::max_element(logits.begin(), logits.end());
    std::vector<float> out(logits.size());
    double sum = 0.0;
    for (size_t i = 0; i < logits.size(); ++i) {
        out[i] = std::exp(logits[i] - mx);
        sum += out[i];
    }
    for (float &v : out)
        v = float(v / sum);
    return out;
}

} // namespace rose::dnn
