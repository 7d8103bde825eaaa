#include "classifier.hh"

#include <algorithm>
#include <cmath>
#include <limits>
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

/** Template values shared by every column: sky, and the open
 *  template below the horizon. */
constexpr float kSkyValue = 0.85f;
constexpr float kOpenGroundValue = 0.15f;

/**
 * Columns scored side by side. The prefix and suffix sums run
 * rows-outer across a block, so each row adds kPoseBlock independent
 * chains instead of one latency-bound chain per column.
 */
constexpr int kPoseBlock = 16;

size_t
paddedWidth(int width)
{
    return size_t(width + kPoseBlock - 1) / kPoseBlock * kPoseBlock;
}

/**
 * (Re)build the cached geometry in @p s for the given key: per-column
 * azimuths, candidate distances and the band-form template bank. A
 * candidate's column is what the renderer's shading model draws for a
 * wall at perpendicular distance d seen at azimuth alpha: sky above
 * row top, floor below row bot, one wall shade between.
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

    const double mid = height / 2.0 - 0.5;
    s.floorRow.resize(size_t(height));
    for (int r = 0; r < height; ++r) {
        double floor_d =
            focal * cfg.camAltitude / std::max(0.5, double(r) - mid);
        s.floorRow[size_t(r)] = float(0.10 + 0.25 / (1.0 + 0.2 * floor_d));
    }

    const size_t nc = s.candidates.size();
    const size_t wp = paddedWidth(width);
    s.skyEnd.resize(nc + 1);
    s.floorBegin.resize(nc + 1);
    s.wall.assign((nc + 1) * wp, 0.f);
    for (size_t ci = 0; ci < nc; ++ci) {
        double d_perp = s.candidates[ci];
        double top =
            mid - focal * (cfg.wallHeight - cfg.camAltitude) / d_perp;
        double bot = mid + focal * cfg.camAltitude / d_perp;
        // Rows r < top are sky; of the rest, rows r > bot are floor.
        // Both tests are monotone in r, so each band is a row range.
        int sky_end = 0;
        while (sky_end < height && sky_end < top)
            ++sky_end;
        int floor_begin = sky_end;
        while (floor_begin < height && !(floor_begin > bot))
            ++floor_begin;
        s.skyEnd[ci] = sky_end;
        s.floorBegin[ci] = floor_begin;
        for (int c = 0; c < width; ++c) {
            double d_shade =
                d_perp / std::max(0.2, std::cos(s.alpha[size_t(c)]));
            double wall = 0.25 + 0.6 / (1.0 + 0.12 * d_shade);
            s.wall[ci * wp + size_t(c)] = float(wall);
        }
    }
    // The open template: sky on rows r < mid, 0.15f on the rest.
    int horizon = 0;
    while (horizon < height && horizon < mid)
        ++horizon;
    s.skyEnd[nc] = horizon;
    s.floorBegin[nc] = height;
    std::fill_n(&s.wall[nc * wp], size_t(width), kOpenGroundValue);

    // A non-finite template makes the bound infinite, which sends
    // every column down the exact path.
    double t = std::max(double(kSkyValue), double(kOpenGroundValue));
    bool finite = true;
    for (const std::vector<float> *values : {&s.wall, &s.floorRow}) {
        for (float v : *values) {
            finite = finite && std::isfinite(v);
            t = std::max(t, std::abs(double(v)));
        }
    }
    s.maxTemplate = finite ? t : HUGE_VAL;

    const size_t rows = size_t(height) + 1;
    s.pix.resize(size_t(height) * kPoseBlock);
    s.rowSum.resize(rows * kPoseBlock);
    s.floorSum.resize(rows * kPoseBlock);
    s.approx.resize((nc + 1) * kPoseBlock);
}

/**
 * The sequential SSD of lane @p lane against block column @p j: the
 * template value minus the pixel, squared, added for rows 0..H-1 in
 * order, exactly as a one-template sweep over the full column does.
 */
double
exactSsd(const PoseScratch &s, size_t lane, int c0, int j)
{
    const int H = s.height;
    const int sky_end = s.skyEnd[lane];
    const int floor_begin = s.floorBegin[lane];
    const double sky = double(kSkyValue);
    const double wall =
        double(s.wall[lane * paddedWidth(s.width) + size_t(c0 + j)]);
    const double *x = s.pix.data() + j;
    double sum = 0.0;
    int r = 0;
    for (; r < sky_end; ++r) {
        double d = sky - x[size_t(r) * kPoseBlock];
        sum += d * d;
    }
    for (; r < floor_begin; ++r) {
        double d = wall - x[size_t(r) * kPoseBlock];
        sum += d * d;
    }
    for (; r < H; ++r) {
        double d = double(s.floorRow[size_t(r)]) -
                   x[size_t(r) * kPoseBlock];
        sum += d * d;
    }
    return sum;
}

/**
 * Fit columns [c0, c0 + n) of @p img. Returns per block column the
 * chosen lane: a candidate index, nc for the open template, or -1 when
 * no SSD falls below 1e30.
 *
 * The selection is the sequential one: the first strict minimum of
 * the exact SSDs over the candidates in order (starting from 1e30),
 * then the open template if its SSD is strictly lower. Every lane is
 * first scored in O(1) from the block's sums, as A = SSD − Σx², with
 * |A − (SSD − Σx²)| ≤ E (DESIGN.md §5e derives E). A lane whose A
 * lies more than 2E above the smallest A has a strictly larger exact
 * SSD than that lane, so it cannot be the choice. If one lane is left
 * it is the choice; otherwise the lanes left are rescored exactly and
 * run through the sequential rule.
 */
void
fitBlock(const env::Image &img, PoseScratch &s, int c0, int n,
         int *pick)
{
    constexpr int B = kPoseBlock;
    const int H = img.height;
    const size_t nl = s.candidates.size() + 1;
    const size_t wp = paddedWidth(img.width);
    double *pix = s.pix.data();
    double *xsum = s.rowSum.data();
    double *fsum = s.floorSum.data();

    // Running sums and scores are built in local arrays and copied
    // out, so no store can alias a load and the loops over a block
    // vectorize.
    // Prefix sums of x, top down, and the largest |x|.
    double run[B], xmax[B];
    for (int j = 0; j < B; ++j) {
        run[j] = 0.0;
        xmax[j] = 0.0;
        xsum[j] = 0.0;
    }
    for (int r = 0; r < H; ++r) {
        const float *row = &img.pixels[size_t(r) * size_t(img.width) +
                                       size_t(c0)];
        double x[B];
        for (int j = 0; j < n; ++j)
            x[j] = double(row[j]);
        for (int j = n; j < B; ++j)
            x[j] = 0.0;
        for (int j = 0; j < B; ++j) {
            run[j] += x[j];
            double ax = std::abs(x[j]);
            xmax[j] = ax > xmax[j] ? ax : xmax[j];
        }
        std::copy_n(x, B, pix + size_t(r) * B);
        std::copy_n(run, B, xsum + size_t(r + 1) * B);
    }
    // Suffix sums of f² − 2fx over the floor rows, bottom up.
    for (int j = 0; j < B; ++j) {
        run[j] = 0.0;
        fsum[size_t(H) * B + size_t(j)] = 0.0;
    }
    for (int r = H - 1; r >= 0; --r) {
        const double f = double(s.floorRow[size_t(r)]);
        const double f2 = f * f;
        const double twof = 2.0 * f;
        const double *x = pix + size_t(r) * B;
        for (int j = 0; j < B; ++j)
            run[j] += f2 - twof * x[j];
        std::copy_n(run, B, fsum + size_t(r) * B);
    }

    // A per lane: sky rows, wall band and floor rows, each from sums.
    const double sky = double(kSkyValue);
    const double sky2 = sky * sky;
    const double twosky = 2.0 * sky;
    for (size_t lane = 0; lane < nl; ++lane) {
        const int sky_end = s.skyEnd[lane];
        const int floor_begin = s.floorBegin[lane];
        const double sky_rows = double(sky_end) * sky2;
        const double band = double(floor_begin - sky_end);
        const float *wall = &s.wall[lane * wp + size_t(c0)];
        const double *xs = xsum + size_t(sky_end) * B;
        const double *xf = xsum + size_t(floor_begin) * B;
        const double *ff = fsum + size_t(floor_begin) * B;
        double a[B];
        for (int j = 0; j < B; ++j) {
            const double w = double(wall[j]);
            a[j] = (sky_rows - twosky * xs[j]) +
                   (band * (w * w) - 2.0 * w * (xf[j] - xs[j])) + ff[j];
        }
        std::copy_n(a, B, s.approx.data() + lane * B);
    }

    // E = 32 (H + 2) u B, B = H (T + max|x|)² (DESIGN.md §5e).
    const double u = std::numeric_limits<double>::epsilon() / 2;
    for (int j = 0; j < n; ++j) {
        const double span = s.maxTemplate + xmax[j];
        const double mag = double(H) * span * span;
        // Huge or non-finite pixels (a NaN leaves xmax alone but not
        // the row sum) take the exact path for every lane; a bounded
        // column keeps every exact SSD below the 1e30 start value.
        const bool bounded =
            mag < 1e29 && std::isfinite(xsum[size_t(H) * B + size_t(j)]);
        const double e = 32.0 * double(H + 2) * u * mag;
        double lo = HUGE_VAL;
        for (size_t lane = 0; lane < nl; ++lane)
            lo = std::min(lo, s.approx[lane * B + size_t(j)]);
        const double thr = lo + 2.0 * e;
        size_t near = 0, last = 0;
        for (size_t lane = 0; lane < nl; ++lane) {
            if (s.approx[lane * B + size_t(j)] <= thr) {
                ++near;
                last = lane;
            }
        }
        if (bounded && near == 1) {
            pick[j] = int(last);
            continue;
        }
        double best = 1e30;
        pick[j] = -1;
        for (size_t lane = 0; lane < nl; ++lane) {
            if (bounded && !(s.approx[lane * B + size_t(j)] <= thr))
                continue;
            double ssd = exactSsd(s, lane, c0, j);
            ++s.exactSsds;
            if (ssd < best) {
                best = ssd;
                pick[j] = int(lane);
            }
        }
    }
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
    const int nc = int(s.candidates.size());

    for (int c0 = 0; c0 < img.width; c0 += kPoseBlock) {
        const int n = std::min(kPoseBlock, img.width - c0);
        int pick[kPoseBlock];
        fitBlock(img, s, c0, n, pick);
        for (int j = 0; j < n; ++j) {
            const size_t c = size_t(c0 + j);
            const bool best_open = pick[j] == nc;
            const double best_d =
                pick[j] >= 0 && !best_open ? s.candidates[size_t(pick[j])]
                                           : cfg.maxDepth;
            s.open[c] = best_open;
            // Convert the fitted perpendicular distance to ray distance.
            s.rayDist[c] =
                best_open ? cfg.maxDepth
                          : best_d / std::max(0.2, std::cos(s.alpha[c]));
        }
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
