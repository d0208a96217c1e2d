/**
 * The scalar kernel table and the runtime dispatcher.
 *
 * The scalar table is vectorops_kernels.inc compiled for the baseline
 * ISA; vectorops_avx2.cc compiles the same source under -mavx2. Both
 * TUs are built with -ffp-contract=off, so a host compiler with FMA
 * cannot contract either build into different roundings.
 */

#include "support/vectorops.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

#include "support/logging.hh"
#include "support/vectorops_tables.hh"

namespace hbbp {

namespace {

#include "support/vectorops_kernels.inc"

// ---------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------

bool
cpuSupports(VectorBackend backend)
{
    switch (backend) {
      case VectorBackend::Scalar:
        return true;
      case VectorBackend::Avx2:
#if defined(__x86_64__) || defined(__i386__)
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
      default:
        return false;
    }
}

/** Dispatch state: the active table and its backend tag. */
std::atomic<const VectorOpsTable *> g_table{nullptr};
std::atomic<VectorBackend> g_backend{VectorBackend::Scalar};
std::once_flag g_init_once;

bool
parseBackendName(const char *s, VectorBackend *out)
{
    if (std::strcmp(s, "scalar") == 0)
        *out = VectorBackend::Scalar;
    else if (std::strcmp(s, "avx2") == 0)
        *out = VectorBackend::Avx2;
    else
        return false;
    return true;
}

/**
 * Default policy: the -mavx2 build when this CPU can run it, otherwise
 * the scalar build (on aarch64 that build is already NEON, the
 * baseline ISA). check_bench.py's simd_speedup floor guards the
 * preference on every CI runner.
 */
VectorBackend
defaultBackend()
{
    return vectorBackendUsable(VectorBackend::Avx2) ? VectorBackend::Avx2
                                                    : VectorBackend::Scalar;
}

void
initDispatch()
{
    VectorBackend chosen = defaultBackend();
    if (const char *env = std::getenv("HBBP_VECTOR_BACKEND")) {
        VectorBackend requested;
        if (!parseBackendName(env, &requested)) {
            warn("HBBP_VECTOR_BACKEND='%s' is not a backend name "
                 "(scalar|avx2); using %s",
                 env, name(chosen));
        } else if (!vectorBackendUsable(requested)) {
            warn("HBBP_VECTOR_BACKEND=%s is %s in this build on this "
                 "CPU; falling back to %s",
                 name(requested),
                 vectorBackendCompiled(requested) ? "not executable"
                                                  : "not compiled",
                 name(chosen));
        } else {
            chosen = requested;
        }
    }
    g_backend.store(chosen, std::memory_order_relaxed);
    g_table.store(vectorOpsTable(chosen), std::memory_order_release);
}

const VectorOpsTable *
activeTable()
{
    const VectorOpsTable *t = g_table.load(std::memory_order_acquire);
    if (t)
        return t;
    std::call_once(g_init_once, initDispatch);
    return g_table.load(std::memory_order_acquire);
}

} // namespace

const char *
name(VectorBackend backend)
{
    switch (backend) {
      case VectorBackend::Scalar: return "scalar";
      case VectorBackend::Avx2: return "avx2";
      default:
        panic("name: bad VectorBackend %d", static_cast<int>(backend));
    }
}

const VectorOpsTable *
vectorOpsTable(VectorBackend backend)
{
    switch (backend) {
      case VectorBackend::Scalar: return &kKernelTable;
      case VectorBackend::Avx2: return detail::vectorOpsAvx2Table();
      default: return nullptr;
    }
}

bool
vectorBackendCompiled(VectorBackend backend)
{
    return vectorOpsTable(backend) != nullptr;
}

bool
vectorBackendUsable(VectorBackend backend)
{
    return vectorBackendCompiled(backend) && cpuSupports(backend);
}

std::vector<VectorBackend>
usableVectorBackends()
{
    std::vector<VectorBackend> out;
    for (VectorBackend b : {VectorBackend::Scalar, VectorBackend::Avx2})
        if (vectorBackendUsable(b))
            out.push_back(b);
    return out;
}

VectorBackend
activeVectorBackend()
{
    activeTable(); // Ensure dispatch is resolved.
    return g_backend.load(std::memory_order_relaxed);
}

bool
setVectorBackend(VectorBackend backend, std::string *why)
{
    if (!vectorBackendUsable(backend)) {
        if (why)
            *why = format(
                "vector backend %s is %s in this build on this CPU",
                name(backend),
                vectorBackendCompiled(backend) ? "not executable"
                                               : "not compiled");
        return false;
    }
    g_backend.store(backend, std::memory_order_relaxed);
    g_table.store(vectorOpsTable(backend), std::memory_order_release);
    return true;
}

namespace vecops {

double
sum(const double *x, size_t n)
{
    return activeTable()->sum(x, n);
}

double
sum(const std::vector<double> &x)
{
    return activeTable()->sum(x.data(), x.size());
}

double
dot(const double *x, const double *y, size_t n)
{
    return activeTable()->dot(x, y, n);
}

void
saxpy(double *y, double a, const double *x, size_t n)
{
    activeTable()->saxpy(y, a, x, n);
}

void
scale(double *x, double a, size_t n)
{
    activeTable()->scale(x, a, n);
}

void
scaledCopy(double *dst, const double *src, double a, size_t n)
{
    activeTable()->scaledCopy(dst, src, a, n);
}

size_t
accumulateSatU64(uint64_t *dst, const uint64_t *src, size_t n)
{
    return activeTable()->accumulateSatU64(dst, src, n);
}

void
bucketCounts(const uint64_t *x, size_t n, const uint64_t *bounds,
             size_t nbounds, uint64_t *counts)
{
    activeTable()->bucketCounts(x, n, bounds, nbounds, counts);
}

uint64_t
addSatU64(uint64_t a, uint64_t b, bool *saturated)
{
    uint64_t r = a + b;
    if (r < b) {
        if (saturated)
            *saturated = true;
        return UINT64_MAX;
    }
    return r;
}

} // namespace vecops

} // namespace hbbp
