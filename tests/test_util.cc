/**
 * @file
 * Unit tests for src/util: geometry, RNG, CSV, statistics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>
#include <string>

#include "format_probes.hh"
#include "util/csv.hh"
#include "util/geometry.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/units.hh"

using namespace rose;

// ----------------------------------------------------------------- Vec3

TEST(Vec3, Arithmetic)
{
    Vec3 a{1, 2, 3}, b{4, 5, 6};
    Vec3 s = a + b;
    EXPECT_DOUBLE_EQ(s.x, 5);
    EXPECT_DOUBLE_EQ(s.y, 7);
    EXPECT_DOUBLE_EQ(s.z, 9);
    Vec3 d = b - a;
    EXPECT_DOUBLE_EQ(d.x, 3);
    Vec3 m = a * 2.0;
    EXPECT_DOUBLE_EQ(m.z, 6);
    EXPECT_DOUBLE_EQ((2.0 * a).z, 6);
}

TEST(Vec3, DotCrossNorm)
{
    Vec3 x{1, 0, 0}, y{0, 1, 0}, z{0, 0, 1};
    EXPECT_DOUBLE_EQ(x.dot(y), 0.0);
    Vec3 c = x.cross(y);
    EXPECT_DOUBLE_EQ(c.x, z.x);
    EXPECT_DOUBLE_EQ(c.y, z.y);
    EXPECT_DOUBLE_EQ(c.z, z.z);
    EXPECT_DOUBLE_EQ(Vec3(3, 4, 0).norm(), 5.0);
    Vec3 n = Vec3(10, 0, 0).normalized();
    EXPECT_DOUBLE_EQ(n.x, 1.0);
    // Zero vector normalizes to zero, not NaN.
    Vec3 zn = Vec3{}.normalized();
    EXPECT_DOUBLE_EQ(zn.norm(), 0.0);
}

// ----------------------------------------------------------------- Quat

TEST(Quat, IdentityRotation)
{
    Quat q;
    Vec3 v{1, 2, 3};
    Vec3 r = q.rotate(v);
    EXPECT_NEAR(r.x, v.x, 1e-12);
    EXPECT_NEAR(r.y, v.y, 1e-12);
    EXPECT_NEAR(r.z, v.z, 1e-12);
}

TEST(Quat, AxisAngle90AboutZ)
{
    Quat q = Quat::fromAxisAngle({0, 0, 1}, kPi / 2);
    Vec3 r = q.rotate({1, 0, 0});
    EXPECT_NEAR(r.x, 0.0, 1e-12);
    EXPECT_NEAR(r.y, 1.0, 1e-12);
    EXPECT_NEAR(r.z, 0.0, 1e-12);
}

TEST(Quat, RotateInverseRoundTrip)
{
    Quat q = Quat::fromEuler(0.3, -0.2, 1.1);
    Vec3 v{0.5, -1.5, 2.0};
    Vec3 rt = q.rotateInverse(q.rotate(v));
    EXPECT_NEAR(rt.x, v.x, 1e-12);
    EXPECT_NEAR(rt.y, v.y, 1e-12);
    EXPECT_NEAR(rt.z, v.z, 1e-12);
}

TEST(Quat, EulerRoundTrip)
{
    double roll = 0.2, pitch = -0.4, yaw = 2.2;
    Quat q = Quat::fromEuler(roll, pitch, yaw);
    EXPECT_NEAR(q.roll(), roll, 1e-10);
    EXPECT_NEAR(q.pitch(), pitch, 1e-10);
    EXPECT_NEAR(q.yaw(), yaw, 1e-10);
}

TEST(Quat, PitchTiltsThrustForward)
{
    // Positive pitch about +y must tilt body-z thrust toward +x; the
    // flight controller's sign conventions depend on this.
    Quat q = Quat::fromAxisAngle({0, 1, 0}, 0.2);
    Vec3 t = q.rotate({0, 0, 1});
    EXPECT_GT(t.x, 0.0);
    EXPECT_NEAR(t.y, 0.0, 1e-12);
}

TEST(Quat, RollTiltsThrustRight)
{
    // Positive roll about +x tilts thrust toward -y.
    Quat q = Quat::fromAxisAngle({1, 0, 0}, 0.2);
    Vec3 t = q.rotate({0, 0, 1});
    EXPECT_LT(t.y, 0.0);
}

TEST(Quat, NormalizeDegenerate)
{
    Quat q{0, 0, 0, 0};
    q.normalize();
    EXPECT_DOUBLE_EQ(q.w, 1.0);
}

TEST(Quat, ComposedRotationMatchesSequential)
{
    Quat a = Quat::fromAxisAngle({0, 0, 1}, 0.7);
    Quat b = Quat::fromAxisAngle({1, 0, 0}, -0.4);
    Vec3 v{1, 2, 3};
    Vec3 seq = a.rotate(b.rotate(v));
    Vec3 comp = (a * b).rotate(v);
    EXPECT_NEAR(seq.x, comp.x, 1e-12);
    EXPECT_NEAR(seq.y, comp.y, 1e-12);
    EXPECT_NEAR(seq.z, comp.z, 1e-12);
}

// ----------------------------------------------------------------- Mat3

TEST(Mat3, DiagonalApplyAndInverse)
{
    Mat3 m = Mat3::diagonal(2, 4, 8);
    Vec3 v = m * Vec3{1, 1, 1};
    EXPECT_DOUBLE_EQ(v.x, 2);
    EXPECT_DOUBLE_EQ(v.y, 4);
    EXPECT_DOUBLE_EQ(v.z, 8);
    Mat3 inv = m.diagonalInverse();
    Vec3 r = inv * v;
    EXPECT_DOUBLE_EQ(r.x, 1);
    EXPECT_DOUBLE_EQ(r.y, 1);
    EXPECT_DOUBLE_EQ(r.z, 1);
}

TEST(Mat3, MatrixProduct)
{
    Mat3 a = Mat3::diagonal(1, 2, 3);
    Mat3 b = Mat3::diagonal(4, 5, 6);
    Mat3 c = a * b;
    EXPECT_DOUBLE_EQ(c.m[0][0], 4);
    EXPECT_DOUBLE_EQ(c.m[1][1], 10);
    EXPECT_DOUBLE_EQ(c.m[2][2], 18);
}

// ---------------------------------------------------------------- angles

TEST(Angles, WrapAngle)
{
    EXPECT_NEAR(wrapAngle(3 * kPi), kPi, 1e-12);
    EXPECT_NEAR(wrapAngle(-3 * kPi), kPi, 1e-12);
    EXPECT_NEAR(wrapAngle(0.5), 0.5, 1e-12);
    EXPECT_NEAR(wrapAngle(kPi + 0.1), -kPi + 0.1, 1e-12);
}

TEST(Angles, DegRadRoundTrip)
{
    EXPECT_NEAR(rad2deg(deg2rad(123.0)), 123.0, 1e-12);
    EXPECT_NEAR(deg2rad(180.0), kPi, 1e-12);
}

// ------------------------------------------------------------------- Rng

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, GaussianMoments)
{
    Rng r(13);
    ScalarStat s;
    for (int i = 0; i < 100000; ++i)
        s.sample(r.gaussian(2.0, 3.0));
    EXPECT_NEAR(s.mean(), 2.0, 0.05);
    EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Rng, BernoulliRate)
{
    Rng r(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.3);
    EXPECT_NEAR(double(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitIndependence)
{
    Rng parent(21);
    Rng child = parent.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (parent.next() == child.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntBounds)
{
    Rng r(23);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = r.uniformInt(5);
        EXPECT_LT(v, 5u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

// ------------------------------------------------------------------- CSV

TEST(Csv, HeaderAndRows)
{
    std::ostringstream os;
    CsvWriter w(os, {"a", "b"});
    w.row(1, 2.5);
    w.row("x", "y");
    EXPECT_EQ(os.str(), "a,b\n1,2.5\nx,y\n");
    EXPECT_EQ(w.rowsWritten(), 2u);
    EXPECT_EQ(w.columns(), 2u);
}

TEST(Csv, QuotesSpecialCells)
{
    std::ostringstream os;
    CsvWriter w(os, {"a"});
    w.row("he,llo");
    EXPECT_EQ(os.str(), "a\n\"he,llo\"\n");
}

TEST(Csv, CellFormatterMatchesPrintf)
{
    // formatCsvCell must write exactly the characters printf("%.6g")
    // writes: the canonical trajectory CSV, and with it every golden
    // hash, is defined by them.
    auto check = [](double v) {
        char want[64];
        int n = std::snprintf(want, sizeof(want), "%.6g", v);
        char got[kCsvCellMaxChars];
        char *end = formatCsvCell(got, v);
        ASSERT_EQ(std::string(got, end), std::string(want, size_t(n)))
            << "value " << v;
    };
    for (double v : test::formatEdgeCases())
        check(v);
    Rng rng(0x6c6c5f67);
    for (int i = 0; i < 100000; ++i)
        check(test::formatProbe(rng, i));
}

TEST(Csv, CellFormatterMatchesOstream)
{
    // ...and what CsvWriter's operator<< cells look like.
    Rng rng(0x0517ea);
    for (int i = 0; i < 20000; ++i) {
        double v = test::formatProbe(rng, i);
        if (!std::isfinite(v))
            continue; // ostream spells NaN and infinity its own way
        std::ostringstream os;
        os << v;
        char got[kCsvCellMaxChars];
        ASSERT_EQ(std::string(got, formatCsvCell(got, v)), os.str())
            << "value " << v;
    }
}

TEST(Csv, CellFormatterPrintedValueMatchesStrtod)
{
    // The value formatCsvCell reports as printed must be bit for bit
    // the double strtod reads back from printf("%.6g"): trajectory
    // records store it in place of a second format + parse.
    auto check = [](double v) {
        char want[64];
        std::snprintf(want, sizeof(want), "%.6g", v);
        double expect = std::strtod(want, nullptr);
        char cell[kCsvCellMaxChars];
        double printed = 0.0;
        formatCsvCell(cell, v, &printed);
        uint64_t want_bits = 0, got_bits = 0;
        std::memcpy(&want_bits, &expect, sizeof(expect));
        std::memcpy(&got_bits, &printed, sizeof(printed));
        ASSERT_EQ(got_bits, want_bits) << "value " << v << " (" << want
                                       << ")";
    };
    for (double v : test::formatEdgeCases())
        check(v);
    Rng rng(0x9e1f7ed);
    for (int i = 0; i < 100000; ++i)
        check(test::formatProbe(rng, i));
}

TEST(CsvDeathTest, WrongArity)
{
    std::ostringstream os;
    CsvWriter w(os, {"a", "b"});
    EXPECT_DEATH(w.row(1), "cells");
}

// ----------------------------------------------------------------- Stats

TEST(Stats, ScalarBasics)
{
    ScalarStat s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.sample(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(Stats, EmptyIsZero)
{
    ScalarStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, Reset)
{
    ScalarStat s;
    s.sample(5.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(Stats, HistogramBinning)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(-1.0);
    h.sample(0.0);
    h.sample(5.5);
    h.sample(9.999);
    h.sample(10.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(5), 1u);
    EXPECT_EQ(h.binCount(9), 1u);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_DOUBLE_EQ(h.binLow(5), 5.0);
}

// ----------------------------------------------------------------- Units

TEST(Units, ClockRatioDefaults)
{
    ClockRatio r;
    // 1 GHz / 60 Hz: ~16.7M cycles per frame (Figure 6's example).
    EXPECT_EQ(r.cyclesPerFrame(), 16'666'666ULL);
    EXPECT_NEAR(r.cyclesToSeconds(1'000'000'000ULL), 1.0, 1e-12);
    EXPECT_EQ(r.secondsToCycles(2.0), 2'000'000'000ULL);
    EXPECT_NEAR(r.frameSeconds(), 1.0 / 60.0, 1e-15);
}
