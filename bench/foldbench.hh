/**
 * @file
 * Shared per-backend fold measurement for the scale_* benches.
 *
 * Every scale bench embeds one "fold" section in its JSON output: for
 * each vector backend usable on this machine it records
 *
 *  - kernel_ns_per_fold: nanoseconds for one fold pass (sum + dot +
 *    saxpy + saturating-u64 accumulate) over a representative span —
 *    the pure vectorops signal, where SIMD width shows directly;
 *  - fold_seconds / shards_per_s: wall time to fold the bench's shard
 *    set into one aggregate with dispatch pinned to the backend — the
 *    end-to-end number, diluted by sample concatenation;
 *  - bytes_identical: whether the serialized aggregate matches the
 *    scalar backend's bytes exactly (the bit-stability contract; the
 *    bench fatal()s if it ever goes false).
 *
 * plus the machine (nproc and the /proc/cpuinfo CPU model), the
 * dispatch backend the process actually resolved at startup and
 * simd_speedup (scalar kernel time over the best SIMD kernel time).
 * scripts/check_bench.py gates committed BENCH_scale_*.json baselines
 * against fresh runs of these numbers.
 */

#ifndef HBBP_BENCH_FOLDBENCH_HH
#define HBBP_BENCH_FOLDBENCH_HH

#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/merge.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/vectorops.hh"

namespace hbbp::bench {

/** One backend's fold measurements. */
struct FoldBackendPoint
{
    std::string name;
    double kernel_ns_per_fold = 0.0;
    double fold_seconds = 0.0;
    double shards_per_s = 0.0;
    bool bytes_identical = false;
};

/** The per-backend fold section of a scale bench. */
struct FoldBench
{
    std::string dispatch;  ///< Backend resolved by runtime dispatch.
    size_t kernel_span = 0;
    size_t shards = 0;
    std::vector<FoldBackendPoint> backends;
    /** Scalar kernel ns over the fastest SIMD kernel ns (1.0 when no
     *  SIMD backend is usable on this machine). */
    double simd_speedup = 1.0;
};

namespace detail {

inline double
foldSecondsSince(std::chrono::steady_clock::time_point start)
{
    using namespace std::chrono;
    return duration_cast<duration<double>>(steady_clock::now() - start)
        .count();
}

/** The CPU model from /proc/cpuinfo, or "unknown" where there is none. */
inline std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        size_t colon = line.find(':');
        if (!startsWith(line, "model name") || colon == std::string::npos)
            continue;
        size_t first = line.find_first_not_of(" \t", colon + 1);
        if (first != std::string::npos)
            return line.substr(first);
    }
    return "unknown";
}

/** One fold pass over the kernel spans; returns a value the optimizer
 *  must keep (the kernels live behind function pointers, but cheap
 *  insurance is cheap). */
inline double
kernelFoldPass(std::vector<double> &x, const std::vector<double> &y,
               std::vector<uint64_t> &acc,
               const std::vector<uint64_t> &inc)
{
    double s = vecops::sum(x.data(), x.size());
    s += vecops::dot(x.data(), y.data(), x.size());
    vecops::saxpy(x.data(), 1.0 / 1048576.0, y.data(), x.size());
    vecops::accumulateSatU64(acc.data(), inc.data(), acc.size());
    return s;
}

} // namespace detail

/**
 * Measure every usable backend folding @p shards, with kernel timing
 * over spans of @p kernel_span doubles/u64s. Restores the dispatch
 * backend it found active. fatal()s if any backend's aggregate bytes
 * differ from scalar's.
 */
inline FoldBench
runFoldBench(const std::vector<ProfileData> &shards,
             size_t kernel_span = 4096, int kernel_reps = 2000)
{
    FoldBench fb;
    VectorBackend before = activeVectorBackend();
    fb.dispatch = name(before);
    fb.kernel_span = kernel_span;
    fb.shards = shards.size();

    // Deterministic kernel operands: values around 1.0 so repeated
    // saxpy passes neither overflow nor denormalize.
    std::vector<double> x(kernel_span), y(kernel_span);
    std::vector<uint64_t> acc(kernel_span), inc(kernel_span);
    for (size_t i = 0; i < kernel_span; i++) {
        x[i] = 1.0 + static_cast<double>(i % 97) / 97.0;
        y[i] = 1.0 - static_cast<double>(i % 89) / 178.0;
        acc[i] = i;
        inc[i] = i * 3 + 1;
    }

    std::string scalar_bytes;
    double scalar_kernel_ns = 0.0, best_simd_kernel_ns = 0.0;
    double sink = 0.0;
    for (VectorBackend b : usableVectorBackends()) {
        std::string why;
        if (!setVectorBackend(b, &why))
            fatal("fold bench: %s", why.c_str());

        FoldBackendPoint p;
        p.name = name(b);

        // Kernel timing: one warmup pass, then the measured reps.
        std::vector<double> xk = x;
        std::vector<uint64_t> acck = acc;
        sink += detail::kernelFoldPass(xk, y, acck, inc);
        auto start = std::chrono::steady_clock::now();
        for (int rep = 0; rep < kernel_reps; rep++)
            sink += detail::kernelFoldPass(xk, y, acck, inc);
        p.kernel_ns_per_fold = detail::foldSecondsSince(start) * 1e9 /
                               kernel_reps;

        // End-to-end fold of the bench's shards.
        start = std::chrono::steady_clock::now();
        ProfileData folded = mergeProfiles(shards);
        p.fold_seconds = detail::foldSecondsSince(start);
        p.shards_per_s = p.fold_seconds > 0
                             ? static_cast<double>(shards.size()) /
                                   p.fold_seconds
                             : 0.0;

        std::string bytes = folded.serialize();
        if (b == VectorBackend::Scalar) {
            scalar_bytes = bytes;
            scalar_kernel_ns = p.kernel_ns_per_fold;
        }
        p.bytes_identical = bytes == scalar_bytes;
        if (!p.bytes_identical)
            fatal("fold bench: %s aggregate bytes differ from scalar",
                  p.name.c_str());
        if (b != VectorBackend::Scalar &&
            (best_simd_kernel_ns == 0.0 ||
             p.kernel_ns_per_fold < best_simd_kernel_ns))
            best_simd_kernel_ns = p.kernel_ns_per_fold;
        fb.backends.push_back(p);
    }
    if (best_simd_kernel_ns > 0.0)
        fb.simd_speedup = scalar_kernel_ns / best_simd_kernel_ns;
    if (sink == 0.12345) // Keep the fold results observable.
        warn("fold bench sink: %f", sink);

    if (!setVectorBackend(before))
        fatal("fold bench: could not restore dispatch backend");
    return fb;
}

/** Render the fold section as JSON (no trailing newline/comma). */
inline std::string
foldBenchJson(const FoldBench &fb)
{
    std::string out;
    out += format("\"nproc\": %u,\n",
                  std::thread::hardware_concurrency());
    out += format("  \"cpu\": \"%s\",\n",
                  jsonEscape(detail::cpuModel()).c_str());
    out += format("  \"vector_backend\": \"%s\",\n", fb.dispatch.c_str());
    out += "  \"fold\": {\n";
    out += format("    \"kernel_span\": %zu,\n", fb.kernel_span);
    out += format("    \"shards\": %zu,\n", fb.shards);
    out += format("    \"simd_speedup\": %.3f,\n", fb.simd_speedup);
    out += "    \"backends\": [\n";
    for (size_t i = 0; i < fb.backends.size(); i++) {
        const FoldBackendPoint &p = fb.backends[i];
        out += format(
            "      {\"name\": \"%s\", \"kernel_ns_per_fold\": %.1f, "
            "\"fold_seconds\": %.6f, \"shards_per_s\": %.1f, "
            "\"bytes_identical\": %s}%s\n",
            p.name.c_str(), p.kernel_ns_per_fold, p.fold_seconds,
            p.shards_per_s, p.bytes_identical ? "true" : "false",
            i + 1 < fb.backends.size() ? "," : "");
    }
    out += "    ]\n";
    out += "  }";
    return out;
}

} // namespace hbbp::bench

#endif // HBBP_BENCH_FOLDBENCH_HH
