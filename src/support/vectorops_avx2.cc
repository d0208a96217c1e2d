/**
 * The AVX2 vectorops table: vectorops_kernels.inc compiled under
 * -mavx2 (see the vectorops stanza in the top-level CMakeLists.txt).
 *
 * The kernels are the scalar source unchanged; the compiler widens
 * them to 256-bit vectors, and -ffp-contract=off keeps the bits equal
 * to the scalar table's. Without -mavx2 the TU compiles to a
 * nullptr-returning stub, so the dispatcher links unconditionally and
 * never offers the backend. Kernels are only ever *called* after the
 * CPUID check in the dispatcher.
 */

#include "support/vectorops_tables.hh"

namespace hbbp::detail {

#if defined(__AVX2__)

namespace {

#include "support/vectorops_kernels.inc"

} // namespace

const VectorOpsTable *
vectorOpsAvx2Table()
{
    return &kKernelTable;
}

#else // !__AVX2__ — the stub half of the guarded TU.

const VectorOpsTable *
vectorOpsAvx2Table()
{
    return nullptr;
}

#endif

} // namespace hbbp::detail
