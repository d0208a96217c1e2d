/**
 * @file
 * Vectorized, bit-stable span math with runtime SIMD dispatch.
 *
 * The fold/merge hot path (per-host partial folds in fleet/merge and
 * fleet/aggregate, the Counter math behind mix analysis) is span
 * arithmetic over doubles and u64 feature counters. This layer gives it
 * one set of kernels — sum / dot / saxpy / scale / scaledCopy /
 * saturating-u64-accumulate / bucketCounts — written once, as plain
 * scalar C++, in vectorops_kernels.inc. That one source is compiled
 * twice: for the baseline ISA in vectorops.cc (the scalar backend) and
 * under -mavx2 in vectorops_avx2.cc (the AVX2 backend, a stub table
 * when the compiler lacks the flag). Dispatch picks one once at
 * startup by CPUID.
 *
 * Two contracts both builds honor:
 *
 *  1. **Bit stability.** Reductions (sum, dot) are defined as
 *     eight independent stride-8 accumulator lanes folded by a fixed
 *     reduction tree, and element-wise kernels perform exactly one
 *     IEEE operation per element (no FMA contraction — the TUs are
 *     built with -ffp-contract=off, and nothing licenses
 *     reassociation). Both builds therefore produce the *same bits*
 *     for the same input, so forcing the dispatch is a test knob,
 *     never a results change.
 *
 *  2. **Determinism across platforms.** Callers that sum unordered
 *     containers (Counter<Key>) gather values in sorted-key order
 *     first; combined with the fixed lane/tree order above, mix
 *     percentages no longer depend on libstdc++ vs libc++ hash
 *     iteration order.
 *
 * Dispatch policy: AVX2 when it is compiled in and the CPU has it,
 * otherwise scalar. On aarch64 the scalar build auto-vectorizes to
 * NEON, that platform's baseline ISA. Override with the
 * HBBP_VECTOR_BACKEND environment variable (scalar | avx2); an
 * unusable request warns once and falls back.
 */

#ifndef HBBP_SUPPORT_VECTOROPS_HH
#define HBBP_SUPPORT_VECTOROPS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hbbp {

/** A SIMD dispatch target. */
enum class VectorBackend : uint8_t {
    Scalar,
    Avx2,
};

/** Printable name of a backend ("scalar" or "avx2"). */
const char *name(VectorBackend backend);

/**
 * One backend's kernel table. All pointers are non-null in a usable
 * table; spans may be empty, length-1, or arbitrarily (un)aligned.
 */
struct VectorOpsTable
{
    /** Bit-stable 8-lane sum of x[0..n). 0.0 when n == 0. */
    double (*sum)(const double *x, size_t n);
    /** Bit-stable 8-lane dot product of x and y. 0.0 when n == 0. */
    double (*dot)(const double *x, const double *y, size_t n);
    /** y[i] += a * x[i] (one mul + one add per element, no FMA). */
    void (*saxpy)(double *y, double a, const double *x, size_t n);
    /** x[i] *= a. */
    void (*scale)(double *x, double a, size_t n);
    /** dst[i] = a * src[i]; dst and src must not overlap. */
    void (*scaledCopy)(double *dst, const double *src, double a,
                       size_t n);
    /**
     * dst[i] = saturatingAdd(dst[i], src[i]): lanes that would wrap
     * past UINT64_MAX clamp there instead. Returns the number of
     * saturated lanes.
     */
    size_t (*accumulateSatU64)(uint64_t *dst, const uint64_t *src,
                               size_t n);
    /**
     * Histogram bucket assignment over strictly-ascending upper
     * bounds (le semantics, matching telemetry::Histogram): for
     * i < nbounds, counts[i] = #{v in x[0..n) : v <= bounds[i] and
     * (i == 0 or v > bounds[i-1])}; counts[nbounds] = #{v : v >
     * every bound}. counts has nbounds+1 slots and is overwritten.
     * Defined as one count-of-(v <= bound) pass per bound with the
     * per-bucket counts taken as adjacent differences — the shape
     * that vectorizes as a wide compare + mask popcount, where the
     * per-value binary search does not. Counts are exact integers,
     * so both builds are bit-identical by construction; the property
     * tests assert it anyway.
     */
    void (*bucketCounts)(const uint64_t *x, size_t n,
                         const uint64_t *bounds, size_t nbounds,
                         uint64_t *counts);
};

/**
 * The backend's kernel table, or nullptr when its translation unit was
 * compiled without the ISA (the guarded-TU stub).
 */
const VectorOpsTable *vectorOpsTable(VectorBackend backend);

/** True when the backend's kernels were compiled into this binary. */
bool vectorBackendCompiled(VectorBackend backend);

/** True when the backend is compiled *and* this CPU can execute it. */
bool vectorBackendUsable(VectorBackend backend);

/** Every usable backend, scalar first. */
std::vector<VectorBackend> usableVectorBackends();

/**
 * The backend dispatch currently routes through. Resolved once on
 * first use: HBBP_VECTOR_BACKEND if set and usable (an unusable
 * request warns once and falls back), otherwise AVX2 when it is
 * usable, otherwise scalar.
 */
VectorBackend activeVectorBackend();

/**
 * Force dispatch to @p backend (the test/bench seam; benches sweep it
 * to record scalar-vs-SIMD fold numbers). Returns false with *@p why
 * set when the backend is not usable on this machine — dispatch is
 * left unchanged.
 */
bool setVectorBackend(VectorBackend backend, std::string *why = nullptr);

namespace vecops {

/** Dispatched VectorOpsTable::sum. */
double sum(const double *x, size_t n);
/** Dispatched sum over a vector. */
double sum(const std::vector<double> &x);
/** Dispatched VectorOpsTable::dot. */
double dot(const double *x, const double *y, size_t n);
/** Dispatched VectorOpsTable::saxpy. */
void saxpy(double *y, double a, const double *x, size_t n);
/** Dispatched VectorOpsTable::scale. */
void scale(double *x, double a, size_t n);
/** Dispatched VectorOpsTable::scaledCopy. */
void scaledCopy(double *dst, const double *src, double a, size_t n);
/** Dispatched VectorOpsTable::accumulateSatU64. */
size_t accumulateSatU64(uint64_t *dst, const uint64_t *src, size_t n);
/** Dispatched VectorOpsTable::bucketCounts. */
void bucketCounts(const uint64_t *x, size_t n, const uint64_t *bounds,
                  size_t nbounds, uint64_t *counts);

/**
 * Scalar saturating u64 add: a + b, clamped to UINT64_MAX on wrap.
 * *@p saturated (when non-null) is set to true on a clamp and left
 * untouched otherwise, so one flag can watch a whole fold.
 */
uint64_t addSatU64(uint64_t a, uint64_t b, bool *saturated = nullptr);

} // namespace vecops

} // namespace hbbp

#endif // HBBP_SUPPORT_VECTOROPS_HH
