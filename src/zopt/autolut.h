/**
 * @file
 * The auto-LUT pass (paper §4, "Lookup table generation").
 *
 * Detects map kernels that are amenable to a LUT implementation — pure
 * functions of a small number of semantic bits (the input element plus any
 * captured state the kernel reads) — and builds the table by exhaustive
 * evaluation of the compiled kernel.  State writes are captured in the
 * table entries, so stateful kernels like the WiFi scrambler LUT exactly
 * as in the paper's Figure 3 (8 input bits + 7 state bits -> 2^15
 * entries).
 */
#ifndef ZIRIA_ZOPT_AUTOLUT_H
#define ZIRIA_ZOPT_AUTOLUT_H

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "zexpr/compile_expr.h"
#include "zexpr/lut.h"

namespace ziria {

/**
 * Tables already computed for one optimized program, shared by every
 * pipeline built from it (zir/program_cache.h).  A table is keyed by its
 * map site (the MapComp node of that program's AST) and its plan: key
 * and output slot offsets and types plus the frame size, which is all
 * the table's contents and apply() depend on.  Thread-safe.
 */
class LutCache
{
  public:
    std::shared_ptr<const CompiledLut> find(const std::string& key) const;

    /** Keep @p lut unless another build got there first; returns the
     *  table now cached under @p key. */
    std::shared_ptr<const CompiledLut>
    insert(const std::string& key, std::shared_ptr<const CompiledLut> lut);

    /** Bytes of all cached tables. */
    size_t tableBytes() const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::shared_ptr<const CompiledLut>> tables_;
    size_t bytes_ = 0;
};

/**
 * Try to replace a compiled map kernel with a lookup table.
 *
 * @param site    identity of the map site, used with @p cache
 * @param f       the map function (analyzed for captured state)
 * @param kernel  its compiled form (parameter slots already allocated)
 * @param ec      the compiler (provides the frame layout)
 * @param limits  key/table size policy
 * @param cache   tables of earlier builds of the same program, or null;
 *                a table found there is reused instead of recomputed
 * @return the table, or null when the kernel is not LUT-able (key too
 *         wide, doubles involved, or the function is annotated noLut).
 *         Only computed tables count in `ziria.luts_built`.
 */
std::shared_ptr<const CompiledLut>
tryBuildMapLut(const void* site, const FunRef& f,
               const CompiledKernel& kernel, ExprCompiler& ec,
               const LutLimits& limits, LutCache* cache = nullptr);

} // namespace ziria

#endif // ZIRIA_ZOPT_AUTOLUT_H
