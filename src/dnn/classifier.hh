/**
 * @file
 * The controller-DNN behavioral model.
 *
 * The paper trains TrailNet-style dual-headed ResNet classifiers on
 * 12,000 rendered corridor images (Section 4.2.2). Training real
 * ResNets is out of scope here (no GPU); instead the classifier is a
 * calibrated vision model that operates on the same rendered images
 * the camera produces:
 *
 *  1. a template-matching depth estimator recovers a per-column wall
 *     distance profile from the image (this is learned knowledge: the
 *     "model" was trained on images rendered by the same pipeline);
 *  2. corridor-relative heading and lateral offset are estimated from
 *     the profile geometrically (the profile's distance peak points
 *     down the corridor; wall distances at known azimuths triangulate
 *     the offset);
 *  3. per-model Gaussian estimate noise (larger nets = less noise,
 *     Table 3's accuracy column) corrupts the estimates;
 *  4. the dual 3-class heads score the noisy estimates against the
 *     training-label thresholds and emit softmax probabilities at the
 *     model's confidence temperature (larger nets = sharper outputs,
 *     the mechanism behind Section 5.2's behavioral findings).
 *
 * The model is trained on `tunnel` and evaluated on both maps (Section
 * 4.2.3): its trained half-width constant is the tunnel's, and the
 * two-sided triangulation cancels the resulting bias on wider maps.
 */

#ifndef ROSE_DNN_CLASSIFIER_HH
#define ROSE_DNN_CLASSIFIER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "dnn/resnet.hh"
#include "env/sensors.hh"
#include "util/rng.hh"

namespace rose::dnn {

/** Output of one 3-class head. */
struct HeadOutput
{
    /** Class probabilities: [left, center, right]. */
    std::array<float, 3> probs{0.f, 0.f, 0.f};

    int argmax() const;

    /** right-minus-left probability margin (the Equation 2 signal). */
    float margin() const { return probs[2] - probs[0]; }
};

/** Full dual-head inference result. */
struct ClassifierOutput
{
    HeadOutput angular; ///< heading relative to the corridor
    HeadOutput lateral; ///< offset relative to the centerline
    /** Internal pose estimates before noise (for debugging/tests). */
    double rawHeadingRad = 0.0;
    double rawOffsetM = 0.0;
    bool valid = false;
};

/** Geometry the model learned during training. */
struct EstimatorConfig
{
    double horizontalFovDeg = 90.0;
    double wallHeight = 4.0;
    double camAltitude = 1.5;
    /** Trained corridor half-width (tunnel). */
    double trainedHalfWidth = 1.6;
    double maxDepth = 40.0;

    // Training-label thresholds (Figure 8's three classes per head).
    double headingClassRad = 0.14;  ///< ~8 degrees
    double offsetClassM = 0.4;

    bool operator==(const EstimatorConfig &) const = default;
};

/** Geometric pose estimate recovered from an image. */
struct PoseEstimate
{
    double headingRad = 0.0;
    double offsetM = 0.0;
    bool valid = false;
};

/**
 * Reusable state of the pose estimator's per-frame hot path. Two kinds
 * of content live here:
 *
 *  - *cached geometry*, keyed on (image size, config): the per-column
 *    view azimuths, the depth candidates and the template bank in band
 *    form. A template column is sky (0.85f) on rows [0, skyEnd), one
 *    wall value on rows [skyEnd, floorBegin) and the per-row floor
 *    table below. Band bounds depend only on the candidate distance,
 *    the wall value on (candidate, column) and the floor on the row,
 *    so the bank is two ints per lane, one float per (lane, column)
 *    and one float per row. Lanes are the candidates, then the open
 *    template (sky above the horizon, 0.15f wall band below, no
 *    floor rows);
 *  - *per-call scratch*: one column block's pixels and its prefix and
 *    suffix sums, every lane's approximate SSD, the fitted ray
 *    distances and open flags.
 *
 * After the first frame at a given image size, estimatePose performs
 * zero heap allocations. Single-owner, not thread-safe; each
 * Classifier and MpcApp carries its own. Pure cache: never
 * checkpointed, and results are bit-identical to a fresh scratch's.
 */
struct PoseScratch
{
    // Cache key.
    int width = -1;
    int height = -1;
    EstimatorConfig cfg;

    // Cached geometry (valid while the key matches).
    std::vector<double> alpha;       ///< per-column azimuth [rad]
    std::vector<double> candidates;  ///< log-spaced wall distances
    std::vector<int> skyEnd;         ///< per lane: first non-sky row
    std::vector<int> floorBegin;     ///< per lane: first floor row
    /** [lane][col] wall value; columns padded to whole blocks. */
    std::vector<float> wall;
    std::vector<float> floorRow;     ///< per-row floor value
    /** Largest |template value| (scales the SSD error bound). */
    double maxTemplate = 0.0;

    // Per-call scratch, [row][block column] unless noted.
    std::vector<double> pix;       ///< the block's pixels as double
    std::vector<double> rowSum;    ///< prefix sums of x, H + 1 rows
    std::vector<double> floorSum;  ///< suffix sums of f² − 2fx
    std::vector<double> approx;    ///< [lane][block column] SSD − Σx²
    std::vector<double> rayDist;
    std::vector<uint8_t> open;

    /** Sequential SSDs computed to settle near-ties, since
     *  construction (a statistic; results never depend on it). */
    uint64_t exactSsds = 0;
};

/**
 * Recover corridor-relative pose from a rendered camera image. Pure
 * vision: uses only pixel data plus the learned geometry constants.
 * Reuses @p scratch across calls; a fresh scratch gives the same
 * bits.
 */
PoseEstimate estimatePose(const env::Image &img,
                          const EstimatorConfig &cfg,
                          PoseScratch &scratch);

/** The runnable classifier for one model of the zoo. */
class Classifier
{
  public:
    /**
     * @param model zoo model (provides the behavioral calibration).
     * @param rng noise stream (per-classifier, deterministic).
     */
    Classifier(const Model &model, Rng rng,
               const EstimatorConfig &cfg = {});

    /** Run one inference on an image. */
    ClassifierOutput infer(const env::Image &img);

    const Model &model() const { return model_; }
    const EstimatorConfig &estimatorConfig() const { return cfg_; }

    /** Serialize the estimator noise stream (model is immutable). */
    void saveState(StateWriter &w) const { rng_.saveState(w); }
    void restoreState(StateReader &r) { rng_.restoreState(r); }

  private:
    HeadOutput scoreHead(double value, double class_threshold,
                         double temperature);

    Model model_;
    Rng rng_;
    EstimatorConfig cfg_;
    /** Template bank + per-frame buffers (pure cache, never saved). */
    PoseScratch scratch_;
};

} // namespace rose::dnn

#endif // ROSE_DNN_CLASSIFIER_HH
