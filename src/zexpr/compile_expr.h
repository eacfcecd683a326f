/**
 * @file
 * The expression compiler: Ziria's imperative fragment to closure trees.
 *
 * This plays the role of the paper's Ziria-to-C code generator for the
 * expression language.  Each expression/statement compiles once into a
 * tree of C++ closures over a Frame; evaluation is then allocation-free.
 * The closure bodies hold no operator semantics of their own: each calls
 * the matching function of zexpr/zr_sem.h, the header the constant
 * folder and every natively generated unit use too.
 * Integral expressions compile to `int64_t(Frame&)` closures (the hot
 * path for bit-level PHY code); doubles and aggregate values have their
 * own calling conventions.
 *
 * User-defined function calls are inlined at each call site (Ziria has no
 * recursion); by-ref array parameters are inlined by lvalue substitution,
 * so kernels mutate caller arrays in place, as the paper's generated C
 * does with pointer passing.
 */
#ifndef ZIRIA_ZEXPR_COMPILE_EXPR_H
#define ZIRIA_ZEXPR_COMPILE_EXPR_H

#include <functional>

#include "zexpr/frame.h"
#include "zexpr/zr_sem.h"

namespace ziria {

using EvalInt = std::function<int64_t(Frame&)>;
using EvalDbl = std::function<double(Frame&)>;
/** Evaluate into a caller-provided buffer of the value's byte width. */
using EvalInto = std::function<void(Frame&, uint8_t*)>;
/** Address of a (possibly materialized) value. */
using RefFn = std::function<uint8_t*(Frame&)>;
/** A compiled statement (unit-returning). */
using Action = std::function<void(Frame&)>;

/** A fully compiled function kernel (used by map nodes and auto-LUT). */
struct CompiledKernel
{
    std::vector<size_t> paramOffsets;  ///< frame slots of the parameters
    std::vector<size_t> paramWidths;
    Action body;                       ///< statements (may be empty)
    EvalInto retInto;                  ///< null for unit-returning kernels
    size_t retWidth = 0;
    /**
     * Source form of body/retInto against the same inlined parameter
     * slots, kept so backends that re-emit kernels (zcgen) can work
     * from the AST instead of the opaque closures.
     */
    StmtList bodySrc;
    ExprPtr retSrc;
};

/**
 * Compiles expressions and statements against a shared frame layout.
 * The layout accumulates slots for every variable encountered; call
 * `layout().frameSize()` after compiling everything to size the Frame.
 */
class ExprCompiler
{
  public:
    explicit ExprCompiler(FrameLayout& layout) : layout_(layout) {}

    FrameLayout& layout() { return layout_; }

    /** Compile an integral-typed expression (bit/bool/intN). */
    EvalInt compileInt(const ExprPtr& e);

    /** Compile a double-typed expression. */
    EvalDbl compileDbl(const ExprPtr& e);

    /** Compile any expression, writing its bytes to a destination. */
    EvalInto compileInto(const ExprPtr& e);

    /**
     * Compile a reference to the expression's storage.  Lvalues yield
     * their true frame address (writes through it are visible); rvalues
     * are materialized into a per-closure scratch buffer.
     */
    RefFn compileRef(const ExprPtr& e);

    /** Compile an lvalue address (errors on non-lvalues). */
    RefFn compileAddr(const ExprPtr& e);

    /** Compile a statement. */
    Action compileStmt(const StmtPtr& s);

    /** Compile a statement list. */
    Action compileStmts(const StmtList& stmts);

    /**
     * Compile a function into a kernel: parameter slots are allocated,
     * body and return are compiled against them.  Used for `map f` and
     * LUT generation.  The function must not have by-ref parameters.
     */
    CompiledKernel compileKernel(const FunRef& f);

  private:
    EvalInto compileCallInto(const CallExpr& c);
    EvalInt compileCallInt(const CallExpr& c);
    EvalDbl compileCallDbl(const CallExpr& c);

    /** Prepare a call: evaluate/bind arguments, return body+ret closures. */
    struct PreparedCall
    {
        Action setup;    ///< copies by-value args into parameter slots
        Action body;
        ExprPtr ret;     ///< cloned return expression (null for unit)
    };
    PreparedCall prepareCall(const CallExpr& c);

    FrameLayout& layout_;
};

/**
 * The host side of the zr_sem.h trap callbacks: a ZrCtx whose trapMsg,
 * trapIndex and trapSlice throw FatalError with the diagnostic.  Closures
 * and the folder pass it to the header's functions; native regions copy
 * the same three callbacks into their own ZrCtx, so every backend raises
 * a trap through the same host function.
 */
const ZrCtx* hostTraps();

} // namespace ziria

#endif // ZIRIA_ZEXPR_COMPILE_EXPR_H
