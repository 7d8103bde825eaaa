/**
 * @file
 * Functional forward execution of zoo models.
 *
 * Executes a Model's layer graph numerically: convolutions (direct or
 * lowered through im2col + the Gemmini functional GEMM — both paths
 * must agree, which the tests check), pooling, residual shortcuts with
 * projections, and the dual softmax heads. Weights come from a
 * deterministic initializer. This is the reference semantics of what
 * the execution engine *times*; it is used by tests and for verifying
 * the im2col lowering the latency model is built on.
 */

#ifndef ROSE_DNN_FORWARD_HH
#define ROSE_DNN_FORWARD_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dnn/resnet.hh"
#include "dnn/tensor.hh"
#include "gemmini/gemmini.hh"
#include "util/rng.hh"

namespace rose::dnn {

/** Per-layer weights for a model. */
struct Weights
{
    /** layer name -> flat weight vector (conv: OIHW; dense: row major). */
    std::map<std::string, std::vector<float>> weights;
    /** layer name -> bias vector. */
    std::map<std::string, std::vector<float>> biases;
};

/**
 * Deterministic He-style initialization for every weighted layer.
 *
 * @param model the zoo model.
 * @param seed RNG seed.
 */
Weights initWeights(const Model &model, uint64_t seed);

/** Lower an input patch volume to the im2col matrix of a conv layer:
 *  rows = output pixels, cols = inC*k*k (matching LayerSpec::gemmDims). */
std::vector<float> im2col(const LayerSpec &spec, const Tensor &input);

/**
 * Convolution through the accelerator path: im2col + functional GEMM
 * (+ bias + ReLU). Must match conv2d() numerically.
 */
Tensor convViaGemm(const LayerSpec &spec, const Tensor &input,
                   const std::vector<float> &weights,
                   const std::vector<float> &bias,
                   const gemmini::Gemmini &gem, bool relu = true);

/** Output of a full forward pass. */
struct ForwardResult
{
    std::vector<float> angularProbs; ///< 3 classes
    std::vector<float> lateralProbs; ///< 3 classes
};

/**
 * Run a full forward pass of the model graph.
 *
 * @param model the zoo model (graph definition).
 * @param w weights from initWeights (or trained elsewhere).
 * @param input (1, H, W) image tensor at the model's input size.
 * @param use_gemm route convs through im2col+GEMM instead of the
 *        direct loops (same numerics, exercises the lowered path).
 */
ForwardResult runForward(const Model &model, const Weights &w,
                         const Tensor &input, bool use_gemm = false);

/**
 * Process-wide shared weights for a zoo model, keyed by (depth, seed):
 * built once, shared read-only across callers. Thread-safe
 * (util/memo.hh).
 */
std::shared_ptr<const Weights> sharedWeights(int depth, uint64_t seed);

} // namespace rose::dnn

#endif // ROSE_DNN_FORWARD_HH
