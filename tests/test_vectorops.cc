/**
 * @file
 * Property tests for support/vectorops: every compiled-and-usable
 * backend must reproduce the scalar reference kernels *bit for bit* on
 * arbitrary spans — random lengths, empty, length-1, unaligned tails,
 * denormals, infinities and signed zeros — and the runtime dispatch
 * seam (setVectorBackend / HBBP_VECTOR_BACKEND) must be a pure test
 * knob that never changes results.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "support/histogram.hh"
#include "support/rng.hh"
#include "support/stats.hh"
#include "support/vectorops.hh"

namespace hbbp {
namespace {

/** The exact bits of a double, for identity (not closeness) checks. */
uint64_t
bits(double x)
{
    uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

/** A random double mixing magnitudes, signs, and exact integers. */
double
randomValue(Rng &rng)
{
    switch (rng.nextBelow(8)) {
      case 0:
        return 0.0;
      case 1:
        return -0.0;
      case 2: // Exact small integers: the common counter case.
        return static_cast<double>(rng.nextRange(-1000, 1000));
      case 3: // Large magnitude, exercises cancellation.
        return (rng.nextDouble() - 0.5) * 1e18;
      case 4: // Tiny magnitude (incl. subnormal neighborhood).
        return (rng.nextDouble() - 0.5) * 1e-300;
      default:
        return (rng.nextDouble() - 0.5) * 2000.0;
    }
}

std::vector<double>
randomSpan(Rng &rng, size_t n)
{
    std::vector<double> v(n);
    for (double &x : v)
        x = randomValue(rng);
    return v;
}

/**
 * The lengths every kernel property sweeps: empty, length-1, each
 * possible tail remainder around the 8-wide block size, and spans well
 * past any vector width.
 */
std::vector<size_t>
propertyLengths()
{
    std::vector<size_t> lens;
    for (size_t n = 0; n <= 17; n++)
        lens.push_back(n);
    for (size_t n : {31u, 32u, 33u, 63u, 64u, 65u, 100u, 255u, 256u, 1000u})
        lens.push_back(n);
    return lens;
}

/** All non-scalar backends usable on this machine. */
std::vector<VectorBackend>
simdBackends()
{
    std::vector<VectorBackend> out;
    for (VectorBackend b : usableVectorBackends())
        if (b != VectorBackend::Scalar)
            out.push_back(b);
    return out;
}

const VectorOpsTable &scalarTable()
{
    return *vectorOpsTable(VectorBackend::Scalar);
}

TEST(VectorBackendInfo, ScalarAlwaysPresent)
{
    EXPECT_TRUE(vectorBackendCompiled(VectorBackend::Scalar));
    EXPECT_TRUE(vectorBackendUsable(VectorBackend::Scalar));
    auto usable = usableVectorBackends();
    ASSERT_FALSE(usable.empty());
    EXPECT_EQ(usable.front(), VectorBackend::Scalar);
}

TEST(VectorBackendInfo, Names)
{
    EXPECT_STREQ(name(VectorBackend::Scalar), "scalar");
    EXPECT_STREQ(name(VectorBackend::Avx2), "avx2");
}

TEST(VectorBackendInfo, UsableImpliesCompiled)
{
    for (VectorBackend b : {VectorBackend::Scalar, VectorBackend::Avx2}) {
        if (vectorBackendUsable(b)) {
            EXPECT_TRUE(vectorBackendCompiled(b)) << name(b);
        }
    }
}

TEST(VectorDispatch, SetBackendRoundTrips)
{
    VectorBackend before = activeVectorBackend();
    for (VectorBackend b : usableVectorBackends()) {
        std::string why;
        EXPECT_TRUE(setVectorBackend(b, &why)) << why;
        EXPECT_EQ(activeVectorBackend(), b);
    }
    ASSERT_TRUE(setVectorBackend(before));
}

TEST(VectorDispatch, UnusableBackendRefusedWithDiagnostic)
{
    VectorBackend before = activeVectorBackend();
    if (!vectorBackendUsable(VectorBackend::Avx2)) {
        std::string why;
        EXPECT_FALSE(setVectorBackend(VectorBackend::Avx2, &why));
        EXPECT_NE(why.find(name(VectorBackend::Avx2)), std::string::npos)
            << why;
        // A refused request must leave dispatch untouched.
        EXPECT_EQ(activeVectorBackend(), before);
    }
}

TEST(VectorDispatch, DefaultIsAvx2WhenUsableElseScalar)
{
    if (std::getenv("HBBP_VECTOR_BACKEND"))
        GTEST_SKIP() << "HBBP_VECTOR_BACKEND overrides the default";
    // Earlier tests may have forced dispatch; every one restores what
    // it found, so the active backend is still the startup default.
    EXPECT_EQ(activeVectorBackend(),
              vectorBackendUsable(VectorBackend::Avx2)
                  ? VectorBackend::Avx2
                  : VectorBackend::Scalar);
}

// ---------------------------------------------------------------------
// Bit-identity properties: each usable SIMD backend against the scalar
// reference, across the length sweep, on both aligned vector storage
// and deliberately misaligned sub-spans.
// ---------------------------------------------------------------------

TEST(VectorOpsProperty, SumMatchesScalarBitForBit)
{
    Rng rng(1);
    for (VectorBackend b : simdBackends()) {
        const VectorOpsTable *t = vectorOpsTable(b);
        ASSERT_NE(t, nullptr) << name(b);
        for (size_t n : propertyLengths()) {
            std::vector<double> x = randomSpan(rng, n + 1);
            // Aligned-origin span and an off-by-one (misaligned) span.
            EXPECT_EQ(bits(t->sum(x.data(), n)),
                      bits(scalarTable().sum(x.data(), n)))
                << name(b) << " n=" << n;
            EXPECT_EQ(bits(t->sum(x.data() + 1, n)),
                      bits(scalarTable().sum(x.data() + 1, n)))
                << name(b) << " n=" << n << " (unaligned)";
        }
    }
}

TEST(VectorOpsProperty, DotMatchesScalarBitForBit)
{
    Rng rng(2);
    for (VectorBackend b : simdBackends()) {
        const VectorOpsTable *t = vectorOpsTable(b);
        for (size_t n : propertyLengths()) {
            std::vector<double> x = randomSpan(rng, n + 1);
            std::vector<double> y = randomSpan(rng, n + 1);
            EXPECT_EQ(bits(t->dot(x.data(), y.data(), n)),
                      bits(scalarTable().dot(x.data(), y.data(), n)))
                << name(b) << " n=" << n;
            EXPECT_EQ(bits(t->dot(x.data() + 1, y.data() + 1, n)),
                      bits(scalarTable().dot(x.data() + 1, y.data() + 1,
                                             n)))
                << name(b) << " n=" << n << " (unaligned)";
        }
    }
}

TEST(VectorOpsProperty, SaxpyMatchesScalarBitForBit)
{
    Rng rng(3);
    for (VectorBackend b : simdBackends()) {
        const VectorOpsTable *t = vectorOpsTable(b);
        for (size_t n : propertyLengths()) {
            std::vector<double> x = randomSpan(rng, n);
            std::vector<double> y0 = randomSpan(rng, n);
            double a = randomValue(rng);
            std::vector<double> y_simd = y0, y_ref = y0;
            t->saxpy(y_simd.data(), a, x.data(), n);
            scalarTable().saxpy(y_ref.data(), a, x.data(), n);
            for (size_t i = 0; i < n; i++)
                ASSERT_EQ(bits(y_simd[i]), bits(y_ref[i]))
                    << name(b) << " n=" << n << " i=" << i;
        }
    }
}

TEST(VectorOpsProperty, ScaleMatchesScalarBitForBit)
{
    Rng rng(4);
    for (VectorBackend b : simdBackends()) {
        const VectorOpsTable *t = vectorOpsTable(b);
        for (size_t n : propertyLengths()) {
            std::vector<double> x0 = randomSpan(rng, n);
            double a = randomValue(rng);
            std::vector<double> x_simd = x0, x_ref = x0;
            t->scale(x_simd.data(), a, n);
            scalarTable().scale(x_ref.data(), a, n);
            for (size_t i = 0; i < n; i++)
                ASSERT_EQ(bits(x_simd[i]), bits(x_ref[i]))
                    << name(b) << " n=" << n << " i=" << i;
        }
    }
}

TEST(VectorOpsProperty, ScaledCopyMatchesScalarBitForBit)
{
    Rng rng(5);
    for (VectorBackend b : simdBackends()) {
        const VectorOpsTable *t = vectorOpsTable(b);
        for (size_t n : propertyLengths()) {
            std::vector<double> src = randomSpan(rng, n);
            double a = randomValue(rng);
            std::vector<double> dst_simd(n, -1.0), dst_ref(n, -1.0);
            t->scaledCopy(dst_simd.data(), src.data(), a, n);
            scalarTable().scaledCopy(dst_ref.data(), src.data(), a, n);
            for (size_t i = 0; i < n; i++)
                ASSERT_EQ(bits(dst_simd[i]), bits(dst_ref[i]))
                    << name(b) << " n=" << n << " i=" << i;
        }
    }
}

TEST(VectorOpsProperty, AccumulateSatU64MatchesScalar)
{
    Rng rng(7);
    for (VectorBackend b : simdBackends()) {
        const VectorOpsTable *t = vectorOpsTable(b);
        for (size_t n : propertyLengths()) {
            std::vector<uint64_t> dst0(n), src(n);
            for (size_t i = 0; i < n; i++) {
                // Mix values near the wrap boundary with ordinary ones
                // so saturation actually triggers.
                dst0[i] = rng.chance(0.3) ? UINT64_MAX - rng.nextBelow(4)
                                          : rng.next() >> 1;
                src[i] = rng.chance(0.3) ? UINT64_MAX - rng.nextBelow(4)
                                         : rng.next() >> 1;
            }
            std::vector<uint64_t> dst_simd = dst0, dst_ref = dst0;
            size_t sat_simd =
                t->accumulateSatU64(dst_simd.data(), src.data(), n);
            size_t sat_ref = scalarTable().accumulateSatU64(
                dst_ref.data(), src.data(), n);
            EXPECT_EQ(sat_simd, sat_ref) << name(b) << " n=" << n;
            for (size_t i = 0; i < n; i++)
                ASSERT_EQ(dst_simd[i], dst_ref[i])
                    << name(b) << " n=" << n << " i=" << i;
        }
    }
}

/** Brute-force le-bucket assignment, the definition bucketCounts meets. */
std::vector<uint64_t>
bucketCountsReference(const std::vector<uint64_t> &x,
                      const std::vector<uint64_t> &bounds)
{
    std::vector<uint64_t> counts(bounds.size() + 1, 0);
    for (uint64_t v : x) {
        size_t i = 0;
        while (i < bounds.size() && v > bounds[i])
            i++;
        counts[i]++;
    }
    return counts;
}

TEST(VectorOpsProperty, BucketCountsMatchesScalarBitForBit)
{
    Rng rng(8);
    // Telemetry-shaped bound sets: short and long, including bounds
    // that sit exactly on generated values so the `<=` edge is hit.
    std::vector<std::vector<uint64_t>> bound_sets = {
        {0},
        {10, 100, 1000},
        {1, 4, 16, 64, 256, 1024, 4096, 16384},
        {7, 8, 9, 1000000, UINT64_MAX - 1},
    };
    for (VectorBackend b : simdBackends()) {
        const VectorOpsTable *t = vectorOpsTable(b);
        ASSERT_NE(t, nullptr) << name(b);
        for (const std::vector<uint64_t> &bounds : bound_sets) {
            for (size_t n : propertyLengths()) {
                std::vector<uint64_t> x(n + 1);
                for (uint64_t &v : x) {
                    // Cluster most values around the bounds (edge
                    // cases), keep some uniform.
                    if (rng.chance(0.5)) {
                        uint64_t base =
                            bounds[rng.nextBelow(bounds.size())];
                        uint64_t jitter = rng.nextBelow(3);
                        v = base > jitter ? base - jitter + rng.nextBelow(5)
                                          : rng.nextBelow(5);
                    } else {
                        v = rng.next();
                    }
                }
                std::vector<uint64_t> c_simd(bounds.size() + 1, 99);
                std::vector<uint64_t> c_ref(bounds.size() + 1, 77);
                t->bucketCounts(x.data(), n, bounds.data(),
                                bounds.size(), c_simd.data());
                scalarTable().bucketCounts(x.data(), n, bounds.data(),
                                           bounds.size(), c_ref.data());
                ASSERT_EQ(c_simd, c_ref) << name(b) << " n=" << n;
                // Misaligned origin.
                t->bucketCounts(x.data() + 1, n, bounds.data(),
                                bounds.size(), c_simd.data());
                scalarTable().bucketCounts(x.data() + 1, n,
                                           bounds.data(), bounds.size(),
                                           c_ref.data());
                ASSERT_EQ(c_simd, c_ref)
                    << name(b) << " n=" << n << " (unaligned)";
            }
        }
    }
}

TEST(VectorOpsScalar, BucketCountsMatchesBruteForceReference)
{
    Rng rng(9);
    std::vector<uint64_t> bounds = {5, 10, 50, 100};
    for (size_t n : propertyLengths()) {
        std::vector<uint64_t> x(n);
        for (uint64_t &v : x)
            v = rng.nextBelow(120); // spans all buckets incl. overflow
        std::vector<uint64_t> counts(bounds.size() + 1, 42);
        scalarTable().bucketCounts(x.data(), n, bounds.data(),
                                   bounds.size(), counts.data());
        EXPECT_EQ(counts, bucketCountsReference(x, bounds)) << "n=" << n;
        // Total conservation: every value lands in exactly one bucket.
        uint64_t total = 0;
        for (uint64_t c : counts)
            total += c;
        EXPECT_EQ(total, n);
    }
}

TEST(VectorOpsScalar, BucketCountsBoundaryValuesUseLeSemantics)
{
    std::vector<uint64_t> bounds = {10, 100};
    // v == bound lands in that bucket (le), v == bound+1 in the next.
    std::vector<uint64_t> x = {10, 11, 100, 101, 0};
    std::vector<uint64_t> counts(3, 9);
    vecops::bucketCounts(x.data(), x.size(), bounds.data(),
                         bounds.size(), counts.data());
    EXPECT_EQ(counts, (std::vector<uint64_t>{2, 2, 1}));
    // Empty input zeroes the (previously dirty) counts.
    counts.assign(3, 7);
    vecops::bucketCounts(x.data(), 0, bounds.data(), bounds.size(),
                         counts.data());
    EXPECT_EQ(counts, (std::vector<uint64_t>{0, 0, 0}));
    // No bounds: everything overflows into the single +Inf slot.
    std::vector<uint64_t> inf_only(1, 3);
    vecops::bucketCounts(x.data(), x.size(), nullptr, 0,
                         inf_only.data());
    EXPECT_EQ(inf_only[0], x.size());
}

// ---------------------------------------------------------------------
// Scalar reference semantics (the definition the backends mirror).
// ---------------------------------------------------------------------

TEST(VectorOpsScalar, EmptySpans)
{
    EXPECT_EQ(vecops::sum(nullptr, 0), 0.0);
    EXPECT_EQ(vecops::dot(nullptr, nullptr, 0), 0.0);
    EXPECT_EQ(vecops::accumulateSatU64(nullptr, nullptr, 0), 0u);
}

TEST(VectorOpsScalar, SingleElement)
{
    double x = 3.25;
    EXPECT_EQ(vecops::sum(&x, 1), 3.25);
    double y = 2.0;
    EXPECT_EQ(vecops::dot(&x, &y, 1), 6.5);
}

TEST(VectorOpsScalar, SumExactOnIntegers)
{
    std::vector<double> v(100);
    for (size_t i = 0; i < v.size(); i++)
        v[i] = static_cast<double>(i + 1);
    EXPECT_EQ(vecops::sum(v), 5050.0);
}

TEST(VectorOpsScalar, AddSatU64)
{
    bool sat = false;
    EXPECT_EQ(vecops::addSatU64(2, 3, &sat), 5u);
    EXPECT_FALSE(sat);
    EXPECT_EQ(vecops::addSatU64(UINT64_MAX - 1, 1, &sat), UINT64_MAX);
    EXPECT_FALSE(sat);
    EXPECT_EQ(vecops::addSatU64(UINT64_MAX, 1, &sat), UINT64_MAX);
    EXPECT_TRUE(sat);
    // The flag is sticky: an unsaturated add leaves it set.
    EXPECT_EQ(vecops::addSatU64(1, 1, &sat), 2u);
    EXPECT_TRUE(sat);
}

TEST(VectorOpsScalar, AccumulateSatU64ClampsAndCounts)
{
    uint64_t dst[4] = {UINT64_MAX, UINT64_MAX - 1, 10, 0};
    uint64_t src[4] = {1, 1, 5, UINT64_MAX};
    EXPECT_EQ(vecops::accumulateSatU64(dst, src, 4), 1u);
    EXPECT_EQ(dst[0], UINT64_MAX);
    EXPECT_EQ(dst[1], UINT64_MAX);
    EXPECT_EQ(dst[2], 15u);
    EXPECT_EQ(dst[3], UINT64_MAX);
}

// ---------------------------------------------------------------------
// Dispatch is a knob, not a result: the dispatched wrappers return the
// same bits whichever usable backend is forced.
// ---------------------------------------------------------------------

TEST(VectorDispatch, ResultsIdenticalAcrossForcedBackends)
{
    VectorBackend before = activeVectorBackend();
    Rng rng(8);
    std::vector<double> x = randomSpan(rng, 97);
    std::vector<double> y = randomSpan(rng, 97);

    ASSERT_TRUE(setVectorBackend(VectorBackend::Scalar));
    uint64_t ref_sum = bits(vecops::sum(x));
    uint64_t ref_dot = bits(vecops::dot(x.data(), y.data(), x.size()));

    for (VectorBackend b : simdBackends()) {
        ASSERT_TRUE(setVectorBackend(b));
        EXPECT_EQ(bits(vecops::sum(x)), ref_sum) << name(b);
        EXPECT_EQ(bits(vecops::dot(x.data(), y.data(), x.size())),
                  ref_dot)
            << name(b);
    }
    ASSERT_TRUE(setVectorBackend(before));
}

// ---------------------------------------------------------------------
// Counter determinism: total() is a pure function of the {key, value}
// set — identical bits whatever the insertion order or hash layout,
// and whichever backend dispatch selects.
// ---------------------------------------------------------------------

TEST(CounterDeterminism, TotalIndependentOfInsertionOrder)
{
    Rng rng(9);
    std::vector<std::pair<int, double>> entries;
    for (int k = 0; k < 200; k++)
        entries.push_back({k, randomValue(rng)});

    Counter<int> forward, reverse, shuffled;
    for (const auto &[k, v] : entries)
        forward.add(k, v);
    for (auto it = entries.rbegin(); it != entries.rend(); ++it)
        reverse.add(it->first, it->second);
    // Build a third counter with a different history: double-insert
    // then subtract, which perturbs the hash table's state.
    for (const auto &[k, v] : entries)
        shuffled.add(k, 2.0 * v);
    for (const auto &[k, v] : entries)
        shuffled.add(k, -v);

    EXPECT_EQ(bits(forward.total()), bits(reverse.total()));
    // shuffled's per-key values went through different arithmetic, so
    // only check forward/reverse bit-identity plus closeness here.
    EXPECT_NEAR(shuffled.total(), forward.total(),
                1e-9 * std::max(1.0, std::fabs(forward.total())));
}

TEST(CounterDeterminism, TotalIdenticalAcrossBackends)
{
    VectorBackend before = activeVectorBackend();
    Rng rng(10);
    Counter<int> c;
    for (int k = 0; k < 500; k++)
        c.add(static_cast<int>(rng.nextBelow(300)), randomValue(rng));

    ASSERT_TRUE(setVectorBackend(VectorBackend::Scalar));
    uint64_t ref = bits(c.total());
    for (VectorBackend b : simdBackends()) {
        ASSERT_TRUE(setVectorBackend(b));
        EXPECT_EQ(bits(c.total()), ref) << name(b);
    }
    ASSERT_TRUE(setVectorBackend(before));
}

// ---------------------------------------------------------------------
// support/stats routed through vecops: the free-function folds must
// return identical bits whichever usable backend is forced, and stay
// exact on the integer-valued inputs counters feed them.
// ---------------------------------------------------------------------

TEST(StatsVectorized, MeanExactOnIntegers)
{
    std::vector<double> xs;
    for (int i = 1; i <= 100; i++)
        xs.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(mean(xs), 50.5);
    EXPECT_EQ(mean({}), 0.0);
}

TEST(StatsVectorized, VarianceMatchesDefinition)
{
    std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    // Textbook population variance of this set is exactly 4.
    EXPECT_DOUBLE_EQ(variance(xs), 4.0);
    EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
    EXPECT_EQ(variance({}), 0.0);
    EXPECT_EQ(variance({3.0}), 0.0);
}

TEST(StatsVectorized, FoldsIdenticalAcrossForcedBackends)
{
    VectorBackend before = activeVectorBackend();
    Rng rng(11);
    std::vector<double> xs = randomSpan(rng, 257);
    std::vector<double> pos(xs.size());
    for (size_t i = 0; i < xs.size(); i++)
        pos[i] = std::fabs(xs[i]) + 1.0; // geomean needs positives

    ASSERT_TRUE(setVectorBackend(VectorBackend::Scalar));
    uint64_t ref_mean = bits(mean(xs));
    uint64_t ref_var = bits(variance(xs));
    uint64_t ref_sd = bits(stddev(xs));
    uint64_t ref_gm = bits(geomean(pos));

    for (VectorBackend b : simdBackends()) {
        ASSERT_TRUE(setVectorBackend(b));
        EXPECT_EQ(bits(mean(xs)), ref_mean) << name(b);
        EXPECT_EQ(bits(variance(xs)), ref_var) << name(b);
        EXPECT_EQ(bits(stddev(xs)), ref_sd) << name(b);
        EXPECT_EQ(bits(geomean(pos)), ref_gm) << name(b);
    }
    ASSERT_TRUE(setVectorBackend(before));
}

// ---------------------------------------------------------------------
// Counter::merge / Counter::scale routed through the element-wise
// kernels: per-key bits must match the scalar-backend result whatever
// backend is forced (the kernels touch each lane independently, so map
// iteration order cannot leak into results).
// ---------------------------------------------------------------------

TEST(CounterDeterminism, MergeAndScaleIdenticalAcrossBackends)
{
    VectorBackend before = activeVectorBackend();
    Rng rng(12);
    Counter<int> base, incoming;
    for (int k = 0; k < 300; k++)
        base.add(static_cast<int>(rng.nextBelow(200)), randomValue(rng));
    for (int k = 0; k < 300; k++)
        incoming.add(static_cast<int>(rng.nextBelow(400)),
                     randomValue(rng));
    double merge_scale = randomValue(rng);
    double mul = randomValue(rng);

    auto run = [&]() {
        Counter<int> c = base;
        c.merge(incoming, merge_scale);
        c.scale(mul);
        return c.sortedByKey();
    };

    ASSERT_TRUE(setVectorBackend(VectorBackend::Scalar));
    auto ref = run();
    for (VectorBackend b : simdBackends()) {
        ASSERT_TRUE(setVectorBackend(b));
        auto got = run();
        ASSERT_EQ(got.size(), ref.size()) << name(b);
        for (size_t i = 0; i < ref.size(); i++) {
            ASSERT_EQ(got[i].first, ref[i].first) << name(b);
            ASSERT_EQ(bits(got[i].second), bits(ref[i].second))
                << name(b) << " key=" << ref[i].first;
        }
    }
    ASSERT_TRUE(setVectorBackend(before));
}

TEST(CounterDeterminism, MergeMatchesScalarLoopSemantics)
{
    // The vectorized merge must compute exactly old + v * scale for
    // present keys and v * scale for fresh ones.
    Counter<int> c;
    c.add(1, 10.0);
    c.add(2, 0.25);
    Counter<int> other;
    other.add(1, 4.0);  // present: 10 + 4*0.5 = 12
    other.add(3, 8.0);  // fresh: 8*0.5 = 4
    c.merge(other, 0.5);
    EXPECT_DOUBLE_EQ(c.get(1), 12.0);
    EXPECT_DOUBLE_EQ(c.get(2), 0.25);
    EXPECT_DOUBLE_EQ(c.get(3), 4.0);
    c.scale(2.0);
    EXPECT_DOUBLE_EQ(c.get(1), 24.0);
    EXPECT_DOUBLE_EQ(c.get(2), 0.5);
    EXPECT_DOUBLE_EQ(c.get(3), 8.0);
}

TEST(CounterDeterminism, SortedByKeyIsSorted)
{
    Counter<int> c;
    c.add(5, 1.0);
    c.add(1, 2.0);
    c.add(3, 4.0);
    auto entries = c.sortedByKey();
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].first, 1);
    EXPECT_EQ(entries[1].first, 3);
    EXPECT_EQ(entries[2].first, 5);
    auto values = c.valuesByKey();
    ASSERT_EQ(values.size(), 3u);
    EXPECT_EQ(values[0], 2.0);
    EXPECT_EQ(values[1], 4.0);
    EXPECT_EQ(values[2], 1.0);
}

} // namespace
} // namespace hbbp
