/**
 * @file
 * Minimal dense CHW float tensor used by the DNN library (the
 * ONNX-Runtime substitute of Section 3.3's build flow).
 */

#ifndef ROSE_DNN_TENSOR_HH
#define ROSE_DNN_TENSOR_HH

#include <cstddef>
#include <string>
#include <vector>

namespace rose::dnn {

/** Channel-major (C, H, W) dense float tensor. */
class Tensor
{
  public:
    Tensor() = default;
    Tensor(int c, int h, int w);

    int channels() const { return c_; }
    int height() const { return h_; }
    int width() const { return w_; }
    size_t size() const { return data_.size(); }

    float &at(int c, int y, int x);
    float at(int c, int y, int x) const;

    /** Zero-padded read: out-of-bounds coordinates return 0. */
    float atPadded(int c, int y, int x) const;

    std::vector<float> &data() { return data_; }
    const std::vector<float> &data() const { return data_; }

    void fill(float v);

    std::string shapeString() const;

  private:
    int c_ = 0;
    int h_ = 0;
    int w_ = 0;
    std::vector<float> data_;
};

} // namespace rose::dnn

#endif // ROSE_DNN_TENSOR_HH
