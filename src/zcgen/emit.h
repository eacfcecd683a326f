/**
 * @file
 * Internal: translate lowered fused regions into one C++ source unit.
 *
 * Not installed API — only native.cc (the build driver) and the
 * tests include this.  docs/CODEGEN.md describes the emission strategy.
 */
#ifndef ZIRIA_ZCGEN_EMIT_H
#define ZIRIA_ZCGEN_EMIT_H

#include <string>
#include <vector>

#include "zexpr/compile_expr.h"
#include "zfuse/bytecode.h"

namespace ziria {
namespace zcgen {

/** One emitted translation unit covering several regions. */
struct EmitUnit
{
    std::string source;   ///< self-contained C++ (no repo includes)
    int hostBridges = 0;  ///< closure sites calling the host
};

/**
 * Emit C++ for @p progs: region @p i becomes `zr_region_<i>`.  A LUT
 * site runs the kernel its table was built from.  Closure ASTs the
 * emitter cannot express compile to host-callback bridges instead
 * (semantics preserved), counted in hostBridges.  May allocate fresh
 * frame slots in @p ec's layout (re-inlined call parameters), so it
 * must run before the frame is sized.
 */
EmitUnit emitUnit(const std::vector<const zfuse::FuseProgram*>& progs,
                  ExprCompiler& ec);

} // namespace zcgen
} // namespace ziria

#endif // ZIRIA_ZCGEN_EMIT_H
