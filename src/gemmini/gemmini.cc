#include "gemmini.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rose::gemmini {

Gemmini::Gemmini(const GemminiConfig &cfg) : cfg_(cfg)
{
    rose_assert(cfg_.meshRows > 0 && cfg_.meshCols > 0, "bad mesh");
    rose_assert(cfg_.busBytesPerCycle > 0, "bad bus width");
}

void
Gemmini::tileShape(int m, int k, int n, int &tm, int &tk, int &tn) const
{
    // The accumulator holds the output tile; the scratchpad holds one
    // A tile and one B tile (double-buffering halves usable capacity).
    int acc_elems = int(cfg_.accumulatorBytes) / cfg_.elemBytes;
    int spad_elems = int(cfg_.scratchpadBytes) / cfg_.elemBytes / 2;

    tm = std::min(m, 128);
    tn = std::min(n, std::max(cfg_.meshCols, acc_elems / std::max(tm, 1)));
    tk = std::min(k, std::max(cfg_.meshRows,
                              spad_elems / std::max(tm + tn, 1)));

    tm = std::max(1, tm);
    tn = std::max(1, tn);
    tk = std::max(1, tk);
}

GemmCost
Gemmini::gemmCycles(int m, int k, int n) const
{
    rose_assert(m > 0 && k > 0 && n > 0, "bad GEMM shape");
    GemmCost cost;
    cost.macs = uint64_t(m) * k * n;

    int tm, tk, tn;
    tileShape(m, k, n, tm, tk, tn);

    auto cdiv = [](int a, int b) { return (a + b - 1) / b; };
    int nm = cdiv(m, tm), nk = cdiv(k, tk), nn = cdiv(n, tn);

    // Weight-stationary schedule: for each (n-tile, k-tile) the B tile
    // is pinned in the PEs 4x4 panels at a time; A rows stream through.
    for (int in = 0; in < nn; ++in) {
        int cn = std::min(tn, n - in * tn);
        for (int ik = 0; ik < nk; ++ik) {
            int ck = std::min(tk, k - ik * tk);
            for (int im = 0; im < nm; ++im) {
                int cm = std::min(tm, m - im * tm);

                uint64_t panels = uint64_t(cdiv(ck, cfg_.meshRows)) *
                                  cdiv(cn, cfg_.meshCols);
                Cycles compute =
                    panels * (Cycles(cm) + cfg_.weightLoadCycles);

                uint64_t bytes_in =
                    (uint64_t(cm) * ck + uint64_t(ck) * cn) *
                    cfg_.elemBytes;
                uint64_t bytes_out =
                    (ik == nk - 1)
                        ? uint64_t(cm) * cn * cfg_.elemBytes
                        : 0;
                Cycles mem = Cycles(double(bytes_in + bytes_out) /
                                    cfg_.busBytesPerCycle);

                cost.computeCycles += compute;
                cost.memoryCycles += mem;
                cost.bytesMoved += bytes_in + bytes_out;
                cost.totalCycles +=
                    cfg_.tileIssueCycles + std::max(compute, mem);
                ++cost.tiles;
            }
        }
    }
    return cost;
}

void
Gemmini::matmul(int m, int k, int n, const float *a, const float *b,
                float *c) const
{
    rose_assert(m > 0 && k > 0 && n > 0, "bad GEMM shape");
    std::fill(c, c + size_t(m) * n, 0.0f);
    // Same arithmetic the mesh performs; order chosen for locality.
    for (int i = 0; i < m; ++i) {
        for (int kk = 0; kk < k; ++kk) {
            float av = a[size_t(i) * k + kk];
            if (av == 0.0f)
                continue;
            const float *brow = &b[size_t(kk) * n];
            float *crow = &c[size_t(i) * n];
            for (int j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
Gemmini::matmul(int m, int k, int n, const std::vector<float> &a,
                const std::vector<float> &b, std::vector<float> &c) const
{
    rose_assert(int(a.size()) == m * k, "A shape mismatch");
    rose_assert(int(b.size()) == k * n, "B shape mismatch");
    c.resize(size_t(m) * n);
    matmul(m, k, n, a.data(), b.data(), c.data());
}

} // namespace rose::gemmini
