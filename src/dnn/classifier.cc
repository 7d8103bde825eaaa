#include "classifier.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dnn/layers.hh"
#include "util/geometry.hh"
#include "util/logging.hh"

namespace rose::dnn {

int
HeadOutput::argmax() const
{
    return int(std::max_element(probs.begin(), probs.end()) -
               probs.begin());
}

namespace {

/**
 * Expected column profile for a wall at perpendicular distance d_perp
 * seen through a column at camera-relative azimuth alpha, mirroring
 * the renderer's shading model (learned by the trained network).
 * Writes @p height values to @p out, @p stride floats apart.
 */
void
expectedColumn(double d_perp, double alpha, int height, double focal,
               const EstimatorConfig &cfg, float *out, size_t stride)
{
    double mid = height / 2.0 - 0.5;
    double d_shade = d_perp / std::max(0.2, std::cos(alpha));
    double top = mid - focal * (cfg.wallHeight - cfg.camAltitude) / d_perp;
    double bot = mid + focal * cfg.camAltitude / d_perp;
    double wall = 0.25 + 0.6 / (1.0 + 0.12 * d_shade);
    for (int r = 0; r < height; ++r) {
        float &v = out[size_t(r) * stride];
        if (r < top) {
            v = 0.85f;
        } else if (r > bot) {
            double floor_d =
                focal * cfg.camAltitude / std::max(0.5, double(r) - mid);
            v = float(0.10 + 0.25 / (1.0 + 0.2 * floor_d));
        } else {
            v = float(wall);
        }
    }
}

/** Open-corridor profile (no wall within range), strided. */
void
openColumn(int height, float *out, size_t stride)
{
    double mid = height / 2.0 - 0.5;
    for (int r = 0; r < height; ++r)
        out[size_t(r) * stride] = r < mid ? 0.85f : 0.15f;
}

/** Templates per SSD sweep: one accumulator each (s0..s7 below). */
constexpr size_t kSsdGroup = 8;

/**
 * Every template's SSD against one pre-widened column (see
 * PoseScratch::colBuf). @p bank is the column's [row][lane] slab of
 * the template bank, @p lanes its padded width (a multiple of
 * kSsdGroup). Templates are swept kSsdGroup at a time, one
 * accumulator each: every sum still adds rows 0..height-1 in order
 * with the exact float->double differences of a one-template sweep,
 * so each SSD is bit-identical to it; only independent add chains are
 * interleaved.
 */
void
ssdAll(const float *bank, size_t lanes, int height, const double *col,
       double *sums)
{
    for (size_t k = 0; k < lanes; k += kSsdGroup) {
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        double s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
        const float *p = bank + k;
        for (int r = 0; r < height; ++r, p += lanes) {
            double x = col[size_t(r)];
            double d0 = double(p[0]) - x;
            double d1 = double(p[1]) - x;
            double d2 = double(p[2]) - x;
            double d3 = double(p[3]) - x;
            double d4 = double(p[4]) - x;
            double d5 = double(p[5]) - x;
            double d6 = double(p[6]) - x;
            double d7 = double(p[7]) - x;
            s0 += d0 * d0;
            s1 += d1 * d1;
            s2 += d2 * d2;
            s3 += d3 * d3;
            s4 += d4 * d4;
            s5 += d5 * d5;
            s6 += d6 * d6;
            s7 += d7 * d7;
        }
        sums[k] = s0;
        sums[k + 1] = s1;
        sums[k + 2] = s2;
        sums[k + 3] = s3;
        sums[k + 4] = s4;
        sums[k + 5] = s5;
        sums[k + 6] = s6;
        sums[k + 7] = s7;
    }
}

/**
 * (Re)build the cached geometry in @p s for the given key: per-column
 * azimuths, candidate distances, and the whole template bank. The
 * templates depend only on geometry, so fitting a frame reduces to
 * SSD sweeps over precomputed profiles.
 */
void
rebuildScratch(PoseScratch &s, int width, int height,
               const EstimatorConfig &cfg, double focal)
{
    s.width = width;
    s.height = height;
    s.cfg = cfg;

    s.alpha.resize(size_t(width));
    for (int c = 0; c < width; ++c) {
        double u = width / 2.0 - 0.5 - c;
        s.alpha[size_t(c)] = std::atan2(u, focal);
    }

    // Candidate perpendicular distances, log-spaced.
    s.candidates.clear();
    for (double d = 0.6; d < cfg.maxDepth; d *= 1.22)
        s.candidates.push_back(d);

    // [col][row][lane]: one lane per candidate, then the open-corridor
    // template, then zero templates up to whole SSD groups.
    const size_t nc = s.candidates.size();
    const size_t lanes = (nc + kSsdGroup) / kSsdGroup * kSsdGroup;
    s.profiles.assign(size_t(width) * size_t(height) * lanes, 0.f);
    for (int c = 0; c < width; ++c) {
        float *dst = &s.profiles[size_t(c) * size_t(height) * lanes];
        for (size_t ci = 0; ci < nc; ++ci) {
            expectedColumn(s.candidates[ci], s.alpha[size_t(c)], height,
                           focal, cfg, dst + ci, lanes);
        }
        openColumn(height, dst + nc, lanes);
    }
    s.sums.resize(lanes);
}

} // namespace

PoseEstimate
estimatePose(const env::Image &img, const EstimatorConfig &cfg,
             PoseScratch &s)
{
    PoseEstimate est;
    if (img.width < 8 || img.height < 8)
        return est;

    double hfov = deg2rad(cfg.horizontalFovDeg);
    double focal = (img.width / 2.0) / std::tan(hfov / 2.0);

    if (s.width != img.width || s.height != img.height ||
        !(s.cfg == cfg)) {
        rebuildScratch(s, img.width, img.height, cfg, focal);
    }

    s.rayDist.resize(size_t(img.width));
    s.open.resize(size_t(img.width));
    s.colBuf.resize(size_t(img.height));
    const size_t lanes = s.sums.size();

    for (int c = 0; c < img.width; ++c) {
        double alpha = s.alpha[size_t(c)];

        // Gather the column once; every candidate sweep reads it
        // contiguously instead of striding through the image.
        for (int r = 0; r < img.height; ++r)
            s.colBuf[size_t(r)] = double(img.at(r, c));

        ssdAll(&s.profiles[size_t(c) * size_t(img.height) * lanes],
               lanes, img.height, s.colBuf.data(), s.sums.data());

        // First strict minimum in candidate order, then the open
        // template; the zero-padding sums are never read.
        double best = 1e30;
        double best_d = cfg.maxDepth;
        bool best_open = false;
        for (size_t ci = 0; ci < s.candidates.size(); ++ci) {
            double e = s.sums[ci];
            if (e < best) {
                best = e;
                best_d = s.candidates[ci];
                best_open = false;
            }
        }
        double e_open = s.sums[s.candidates.size()];
        if (e_open < best) {
            best_open = true;
            best_d = cfg.maxDepth;
        }
        s.open[size_t(c)] = best_open;
        // Convert the fitted perpendicular distance to ray distance.
        s.rayDist[size_t(c)] =
            best_open ? cfg.maxDepth
                      : best_d / std::max(0.2, std::cos(alpha));
    }

    // --- Heading: the deepest view direction points down the corridor.
    // Average the azimuths of the top-distance columns for subpixel
    // stability.
    double best_d = 0.0;
    for (int c = 0; c < img.width; ++c)
        best_d = std::max(best_d, s.rayDist[size_t(c)]);
    double az_sum = 0.0, az_w = 0.0;
    for (int c = 0; c < img.width; ++c) {
        if (s.rayDist[size_t(c)] >= 0.85 * best_d) {
            az_sum += s.alpha[size_t(c)];
            az_w += 1.0;
        }
    }
    if (az_w == 0.0)
        return est;
    double alpha_axis = az_sum / az_w;
    // Corridor axis is at world azimuth ~0, so heading = -alpha_axis.
    est.headingRad = -alpha_axis;

    // --- Offset: triangulate from wall hits on both sides of the
    // corridor axis. For a column at corridor-relative angle theta
    // hitting the left wall: offset = halfWidth - d*sin(theta); right
    // wall: offset = -halfWidth - d*sin(theta). Averaging both sides
    // cancels a wrong trained halfWidth on unfamiliar (wider) maps.
    double left_sum = 0.0, right_sum = 0.0;
    int left_n = 0, right_n = 0;
    for (int c = 0; c < img.width; ++c) {
        if (s.open[size_t(c)])
            continue;
        double theta =
            s.alpha[size_t(c)] - alpha_axis; // corridor-relative azimuth
        double a = std::abs(theta);
        if (a < deg2rad(18.0) || a > deg2rad(60.0))
            continue;
        double lateral = s.rayDist[size_t(c)] * std::sin(theta);
        if (theta > 0) {
            left_sum += cfg.trainedHalfWidth - lateral;
            ++left_n;
        } else {
            right_sum += -cfg.trainedHalfWidth - lateral;
            ++right_n;
        }
    }
    if (left_n > 0 && right_n > 0) {
        est.offsetM =
            0.5 * (left_sum / left_n + right_sum / right_n);
    } else if (left_n > 0) {
        est.offsetM = left_sum / left_n;
    } else if (right_n > 0) {
        est.offsetM = right_sum / right_n;
    } else {
        est.offsetM = 0.0;
    }
    est.valid = true;
    return est;
}

PoseEstimate
estimatePose(const env::Image &img, const EstimatorConfig &cfg)
{
    PoseScratch scratch;
    return estimatePose(img, cfg, scratch);
}

// ------------------------------------------------------------ Classifier

Classifier::Classifier(const Model &model, Rng rng,
                       const EstimatorConfig &cfg)
    : model_(model), rng_(rng), cfg_(cfg)
{
}

HeadOutput
Classifier::scoreHead(double value, double class_threshold,
                      double temperature)
{
    // Class prototypes at -2t, 0, +2t; logits fall off linearly with
    // distance, sharpened by the model's confidence temperature.
    float logits[3];
    const double centers[3] = {2.0 * class_threshold, 0.0,
                               -2.0 * class_threshold};
    for (int i = 0; i < 3; ++i) {
        logits[i] = float(-std::abs(value - centers[i]) /
                          (class_threshold * temperature));
    }
    // Inline softmax on the stack, the exact arithmetic of
    // dnn::softmax (float exp terms, double sum, float(v / sum)) so
    // outputs stay bit-identical to the allocating version.
    float mx = std::max(logits[0], std::max(logits[1], logits[2]));
    HeadOutput out;
    double sum = 0.0;
    for (int i = 0; i < 3; ++i) {
        out.probs[size_t(i)] = std::exp(logits[i] - mx);
        sum += out.probs[size_t(i)];
    }
    for (int i = 0; i < 3; ++i)
        out.probs[size_t(i)] = float(out.probs[size_t(i)] / sum);
    return out;
}

ClassifierOutput
Classifier::infer(const env::Image &img)
{
    ClassifierOutput out;
    PoseEstimate pose = estimatePose(img, cfg_, scratch_);
    if (!pose.valid) {
        // Degenerate view: maximum-entropy outputs.
        out.angular.probs = {1.f / 3, 1.f / 3, 1.f / 3};
        out.lateral.probs = {1.f / 3, 1.f / 3, 1.f / 3};
        return out;
    }
    out.rawHeadingRad = pose.headingRad;
    out.rawOffsetM = pose.offsetM;

    const ClassifierCalib &cal = model_.calib;
    double heading =
        pose.headingRad + rng_.gaussian(0.0, cal.sigmaHeading);
    double offset = pose.offsetM + rng_.gaussian(0.0, cal.sigmaOffset);

    out.angular =
        scoreHead(heading, cfg_.headingClassRad, cal.temperature);
    out.lateral = scoreHead(offset, cfg_.offsetClassM, cal.temperature);
    out.valid = true;
    return out;
}

} // namespace rose::dnn
