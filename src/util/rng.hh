/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic model components (sensor noise, classifier error draws,
 * Unreal-style environment jitter) draw from explicitly-seeded Rng
 * instances so that simulations are reproducible: FireSim is deterministic
 * in the paper, and the only nondeterminism comes from the environment
 * simulator, which we reproduce as seeded noise.
 */

#ifndef ROSE_UTIL_RNG_HH
#define ROSE_UTIL_RNG_HH

#include <cmath>
#include <cstdint>

namespace rose {

class StateWriter;
class StateReader;

/**
 * xoshiro256** generator seeded via SplitMix64. Small, fast, and good
 * enough statistically for simulation noise. The per-draw calls are
 * defined inline below: the camera draws one Gaussian per pixel and
 * the physics three per substep, so call overhead would otherwise be
 * a visible share of a mission frame.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x5eed5eedULL) { reseed(seed); }

    /** Re-initialize the state from a 64-bit seed. */
    void reseed(uint64_t seed);

    /** Next raw 64-bit draw. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n); n must be > 0. */
    uint64_t uniformInt(uint64_t n);

    /** Standard normal draw (Box-Muller, cached pair). */
    double gaussian();

    /** True when the next gaussian() returns the cached spare without
     *  drawing. */
    bool hasSpare() const { return haveSpare_; }

    /** Draw one Box-Muller uniform pair exactly as gaussian() does:
     *  u1 in (1e-300, 1) by rejection, then u2 in [0, 1). */
    void boxMullerUniforms(double &u1, double &u2);

    /** The Box-Muller transform gaussian() applies to a uniform pair:
     *  returns r cos(theta) and stores r sin(theta) in @p sinPart. */
    static double boxMuller(double u1, double u2, double &sinPart);

    /** Normal draw with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Bernoulli draw with probability p of true. */
    bool bernoulli(double p);

    /** Derive an independent child generator (for per-sensor streams). */
    Rng split();

    /** Serialize the full generator state (xoshiro words + Box-Muller
     *  spare) so a restored stream replays bit-identically. */
    void saveState(StateWriter &w) const;
    void restoreState(StateReader &r);

  private:
    static uint64_t
    rotl(uint64_t v, int k)
    {
        return (v << k) | (v >> (64 - k));
    }

    uint64_t s_[4] = {};
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

inline uint64_t
Rng::next()
{
    uint64_t result = rotl(s_[1] * 5, 7) * 9;
    uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

inline double
Rng::uniform()
{
    // 53 high bits -> double in [0,1).
    return (next() >> 11) * (1.0 / 9007199254740992.0);
}

inline double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

inline void
Rng::boxMullerUniforms(double &u1, double &u2)
{
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    u2 = uniform();
}

inline double
Rng::boxMuller(double u1, double u2, double &sinPart)
{
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * 3.14159265358979323846 * u2;
    sinPart = r * std::sin(theta);
    return r * std::cos(theta);
}

inline double
Rng::gaussian()
{
    if (haveSpare_) {
        haveSpare_ = false;
        return spare_;
    }
    double u1 = 0.0, u2 = 0.0;
    boxMullerUniforms(u1, u2);
    haveSpare_ = true;
    return boxMuller(u1, u2, spare_);
}

inline double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

} // namespace rose

#endif // ROSE_UTIL_RNG_HH
