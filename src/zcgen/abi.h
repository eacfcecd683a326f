/**
 * @file
 * The host <-> generated-code ABI for the native backend.
 *
 * A generated region is `extern "C" int zr_region(ZrCtx*)` returning
 * the ExecNode status (0 = Yield, 1 = NeedInput, 2 = Done).  The
 * context IS the region's state: FusedNode (zfuse/fuse.h) keeps its pc,
 * spaces and out/ctrl pointers here, points `fr` at the frame before
 * each call, and its bytecode interpreter uses the very same fields.
 * The generated code reads and writes them directly and calls back
 * through the function pointers for closures it could not inline (host
 * bridges), for native DSP sites (hostSite: the kernels are host code)
 * and runtime diagnostics (traps throw FatalError host-side, through
 * the same callbacks the VM closures use).
 *
 * ZrCtx is defined in zexpr/zr_sem.h, and that header's text is the
 * preamble of every generated unit, so host and generated code compile
 * one definition.  Bump kZrAbiVersion there on any layout change; the
 * loader refuses objects whose `zr_abi` symbol disagrees, so a stale
 * cache can never be dereferenced with the wrong layout.
 */
#ifndef ZIRIA_ZCGEN_ABI_H
#define ZIRIA_ZCGEN_ABI_H

#include "zexpr/zr_sem.h"

namespace ziria {
namespace zcgen {

using ::kZrAbiVersion;
using ::ZrCtx;
using ::ZrRegionFn;

} // namespace zcgen
} // namespace ziria

#endif // ZIRIA_ZCGEN_ABI_H
