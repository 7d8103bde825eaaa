/**
 * @file
 * Layer descriptors and functional reference kernels.
 *
 * Each layer is described by a LayerSpec carrying everything both
 * consumers need:
 *  - the execution engine derives shapes, FLOPs, im2col GEMM dimensions,
 *    and host data-movement volumes for the latency model;
 *  - the functional kernels (conv2d, dense, pooling, relu, residual
 *    add, softmax) compute real values for tests and small end-to-end
 *    runs.
 */

#ifndef ROSE_DNN_LAYERS_HH
#define ROSE_DNN_LAYERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dnn/tensor.hh"

namespace rose::dnn {

/** Layer kinds in the model zoo. */
enum class LayerKind
{
    Conv,      ///< 2D convolution (+ folded batchnorm + ReLU)
    Dense,     ///< fully connected
    MaxPool,   ///< max pooling
    AvgPool,   ///< global average pooling
    Residual,  ///< elementwise add with a skip connection + ReLU
    Softmax,   ///< classifier head activation
};

/** (C, H, W) shape triple. */
struct Shape
{
    int c = 0;
    int h = 0;
    int w = 0;

    size_t elems() const { return size_t(c) * h * w; }
    bool operator==(const Shape &o) const = default;
};

/** One layer of a model. */
struct LayerSpec
{
    LayerKind kind = LayerKind::Conv;
    std::string name;

    Shape in;

    // Conv / pool geometry.
    int outChannels = 0;
    int kernel = 3;
    int stride = 1;
    int pad = 1;

    // Dense geometry.
    int outFeatures = 0;

    /** Whether this layer has learned weights (counts toward depth). */
    bool weighted() const
    { return kind == LayerKind::Conv || kind == LayerKind::Dense; }

    /** Output shape given the input shape. */
    Shape outShape() const;

    /** Multiply-accumulate count of the layer. */
    uint64_t macs() const;

    /** Weight parameter count. */
    uint64_t weightCount() const;

    /** GEMM dimensions after im2col lowering (weighted layers only). */
    void gemmDims(int &m, int &k, int &n) const;

    /** Bytes the host touches lowering this layer (im2col matrix). */
    uint64_t im2colBytes() const;
};

// ------------------------------------------------------------ builders

LayerSpec makeConv(const std::string &name, Shape in, int out_ch,
                   int kernel, int stride, int pad);
LayerSpec makeDense(const std::string &name, Shape in, int out_features);
LayerSpec makeMaxPool(const std::string &name, Shape in, int kernel,
                      int stride);
LayerSpec makeGlobalAvgPool(const std::string &name, Shape in);
LayerSpec makeResidual(const std::string &name, Shape in);
LayerSpec makeSoftmax(const std::string &name, Shape in);

// -------------------------------------------------- functional kernels

/**
 * Reference convolution (+ ReLU when relu is set).
 *
 * @param weights outCh * inCh * k * k values.
 * @param bias per-output-channel bias (may be empty for zero bias).
 */
Tensor conv2d(const LayerSpec &spec, const Tensor &input,
              const std::vector<float> &weights,
              const std::vector<float> &bias, bool relu = true);

/** Fully connected layer over the flattened input. */
std::vector<float> dense(const LayerSpec &spec, const Tensor &input,
                         const std::vector<float> &weights,
                         const std::vector<float> &bias);

Tensor maxPool(const LayerSpec &spec, const Tensor &input);
Tensor globalAvgPool(const Tensor &input);

/** out = relu(a + b); shapes must match. */
Tensor residualAdd(const Tensor &a, const Tensor &b);

/** Numerically-stable softmax. */
std::vector<float> softmax(const std::vector<float> &logits);

} // namespace rose::dnn

#endif // ROSE_DNN_LAYERS_HH
