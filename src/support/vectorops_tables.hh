/**
 * @file
 * Internal seam between the vectorops dispatcher and the guarded AVX2
 * translation unit. The TU always defines its accessor; when it was
 * compiled without -mavx2, the accessor returns nullptr — the stub
 * half of the guarded-TU idiom — so linkage never depends on compiler
 * flags. Not part of the public vectorops API.
 */

#ifndef HBBP_SUPPORT_VECTOROPS_TABLES_HH
#define HBBP_SUPPORT_VECTOROPS_TABLES_HH

#include "support/vectorops.hh"

namespace hbbp::detail {

/** AVX2 kernel table; nullptr when built without -mavx2. */
const VectorOpsTable *vectorOpsAvx2Table();

} // namespace hbbp::detail

#endif // HBBP_SUPPORT_VECTOROPS_TABLES_HH
