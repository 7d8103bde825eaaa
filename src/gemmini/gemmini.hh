/**
 * @file
 * Gemmini-class systolic-array DNN accelerator model (Section 4.2.1):
 * a 4x4 FP32 weight-stationary mesh sized to the 128-bit maximum memory
 * bus width, with a 256 KiB scratchpad and a 64 KiB accumulator.
 *
 * The model is used two ways:
 *  - timing: gemmCycles() runs the tiling schedule symbolically and
 *    returns the cycle cost of a GEMM, including scratchpad fill/drain
 *    over the memory bus, weight-load ramp, and accumulator writeback
 *    (compute and data movement overlap double-buffered, so a tile
 *    costs max(compute, memory)).
 *  - functional: matmul() computes the same GEMM numerically, the
 *    reference the im2col lowering and the DNN forward pass are tested
 *    against.
 */

#ifndef ROSE_GEMMINI_GEMMINI_HH
#define ROSE_GEMMINI_GEMMINI_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/units.hh"

namespace rose::gemmini {

/** Static accelerator configuration (defaults match the paper). */
struct GemminiConfig
{
    int meshRows = 4;
    int meshCols = 4;
    /** Bytes of one element (FP32). */
    int elemBytes = 4;
    uint32_t scratchpadBytes = 256 * 1024;
    uint32_t accumulatorBytes = 64 * 1024;
    /** Memory bus width: 128-bit -> 16 bytes/cycle. */
    double busBytesPerCycle = 16.0;
    /** Cycles to load one weight tile into the PEs. */
    Cycles weightLoadCycles = 4;
    /** Fixed cost of issuing one tile command (RoCC dispatch). */
    Cycles tileIssueCycles = 10;

    /** Peak MACs per cycle. */
    int macsPerCycle() const { return meshRows * meshCols; }
};

/** Cost breakdown of one GEMM on the accelerator. */
struct GemmCost
{
    Cycles totalCycles = 0;
    Cycles computeCycles = 0; ///< mesh-busy component
    Cycles memoryCycles = 0;  ///< bus-transfer component (overlapped)
    uint64_t macs = 0;
    uint64_t bytesMoved = 0;
    uint64_t tiles = 0;

    /** Achieved fraction of peak MAC throughput. */
    double
    utilization(const GemminiConfig &cfg) const
    {
        if (!totalCycles)
            return 0.0;
        return double(macs) /
               (double(totalCycles) * cfg.macsPerCycle());
    }
};

/** The accelerator model. */
class Gemmini
{
  public:
    explicit Gemmini(const GemminiConfig &cfg = {});

    const GemminiConfig &config() const { return cfg_; }

    /**
     * Timing of C[M,N] (+)= A[M,K] * B[K,N] under the weight-stationary
     * tiling schedule.
     */
    GemmCost gemmCycles(int m, int k, int n) const;

    /**
     * Functional GEMM: C = A * B (row major, dense). The same arithmetic
     * the mesh performs: each output element accumulates over k in
     * ascending order from +0.0f, skipping exact-zero A terms.
     *
     * @param a M*K values, row major.
     * @param b K*N values, row major.
     * @param c caller-provided output span of M*N values, overwritten.
     */
    void matmul(int m, int k, int n, const float *a, const float *b,
                float *c) const;

    /** Convenience overload: resizes @p c to M*N. */
    void matmul(int m, int k, int n, const std::vector<float> &a,
                const std::vector<float> &b, std::vector<float> &c) const;

    /** Largest tile dimensions that fit the scratchpad/accumulator. */
    void tileShape(int m, int k, int n, int &tm, int &tk, int &tn) const;

  private:
    GemminiConfig cfg_;
};

} // namespace rose::gemmini

#endif // ROSE_GEMMINI_GEMMINI_HH
