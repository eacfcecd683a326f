/**
 * @file
 * The C++ emitter: fused bytecode + closure ASTs to one source unit.
 *
 * Two layers, mirroring the interpreter split:
 *
 *  - The *region translator* turns each FuseProgram instruction into a
 *    labeled block `L<i>: { ... }`; control flow is direct `goto`s for
 *    static targets and a `switch (pc)` dispatch for the dynamic ones
 *    (channel continuations, re-entry after a park).  The generated
 *    function is a faithful transcription of FusedNode::advance — every
 *    branch, spin reset and memcpy appears in the same order, so parked
 *    pcs, channel protocol state and outputs are bit-identical.
 *
 *  - The *expression emitter* re-emits the closure ASTs recorded by the
 *    lowerer (FuseProgram::intoSrc/intSrc/actionSrc) as straight-line
 *    C++ with the same walk as zexpr/compile_expr.cc and the same
 *    evaluation order (explicit temporaries defeat C++'s unspecified
 *    argument order).  It writes no operator semantics itself: every
 *    load, store, operator, bounds check and native is one call into
 *    zexpr/zr_sem.h — the header the closures call, whose text is the
 *    unit's preamble — with kinds and widths passed as literals so -O2
 *    folds the calls.  Traps call back into the host function the VM
 *    reaches too.  Anything it cannot express — natives not defined by
 *    the header, exotic shapes — throws Unsupported and the closure is
 *    bridged back to the host std::function instead, so emission never
 *    changes semantics, only speed.
 *
 * Layout note: jumping over C++ initializations is ill-formed, which is
 * why every instruction body lives in its own brace block with the
 * label *outside* — all jumps land at block entries.
 */
#include "zcgen/emit.h"

#include <cstdio>
#include <cstring>

#include "support/panic.h"
#include "zast/comp.h"
#include "ztype/value.h"

namespace ziria {
namespace zcgen {

/** The text of zexpr/zr_sem.h (generated into the build tree). */
extern const char kZrSemText[];

namespace {

using zfuse::FuseProgram;
using zfuse::Instr;
using zfuse::Op;
using zfuse::kFrameBit;
using zfuse::kNoTarget;

/** Thrown when a closure AST has a shape the emitter does not cover. */
struct Unsupported
{
    const char* why;
};

std::string
num(uint64_t v)
{
    return std::to_string(v);
}

/** The width literal zr_sem.h takes for integral kind @p k. */
std::string
bits(TypeKind k)
{
    return num(intBits(k));
}

/** The component-width literal for complex kind @p k. */
std::string
cbits(TypeKind k)
{
    return num(complexBits(k));
}

/** An int64_t literal that round-trips INT64_MIN. */
std::string
intLit(int64_t v)
{
    if (v == INT64_MIN)
        return "(-INT64_C(9223372036854775807) - 1)";
    return "INT64_C(" + std::to_string(v) + ")";
}

/**
 * Emits statements for one closure (or a fragment of one region).  Each
 * method walks the AST like the matching ExprCompiler::compile* case and
 * emits zr_sem.h calls; the returned strings are names of
 * already-computed temporaries, so sequencing the emitted statements
 * reproduces the closures' evaluation order exactly.
 */
class CppEmitter
{
  public:
    CppEmitter(FrameLayout& layout, int indent)
        : layout_(layout), ind_(indent)
    {
    }

    std::string take() { return std::move(body_); }

    /** Append one already-formed statement (region glue, e.g. EvalInt). */
    void raw(const std::string& s) { line(s); }

    // ---- statements (compileStmt / compileStmts) ---------------------

    void
    stmtList(const StmtList& stmts)
    {
        for (const auto& s : stmts)
            stmt(s);
    }

    void
    stmt(const StmtPtr& s)
    {
        switch (s->kind()) {
          case StmtKind::Assign: {
            const auto& a = static_cast<const AssignStmt&>(*s);
            const TypePtr& t = a.lhs()->type();
            if (t->isScalar()) {
                // Scalar: address first, then the value written through
                // it — the closure is `rhs(f, addr(f))`.
                std::string ad = addrExpr(a.lhs());
                intoExpr(a.rhs(), ad);
                return;
            }
            // Aggregates go through scratch (memmove semantics for
            // self-overlap); the closure computes rhs first, addr after.
            size_t w = t->byteWidth();
            std::string sc = declBuf(w);
            intoExpr(a.rhs(), sc);
            std::string ad = addrExpr(a.lhs());
            line("memcpy(" + ad + ", " + sc + ", " + num(w) + ");");
            return;
          }
          case StmtKind::If: {
            const auto& i = static_cast<const IfStmt&>(*s);
            std::string c = intExpr(i.cond());
            line("if (" + c + ") {");
            indented([&] { stmtList(i.thenStmts()); });
            line("} else {");
            indented([&] { stmtList(i.elseStmts()); });
            line("}");
            return;
          }
          case StmtKind::For: {
            const auto& fo = static_cast<const ForStmt&>(*s);
            size_t ivOff = layout_.add(fo.inductionVar());
            TypeKind ivk = fo.inductionVar()->type->kind();
            // hi is evaluated once, before lo (closure order).
            std::string h = intExpr(fo.hi());
            std::string l = intExpr(fo.lo());
            std::string iv = fresh();
            line("for (int64_t " + iv + " = " + l + "; " + iv + " < " +
                 h + "; ++" + iv + ") {");
            indented([&] {
                line("zr_st(" + bits(ivk) + ", " + frAt(ivOff) + ", " + iv +
                     ");");
                stmtList(fo.body());
            });
            line("}");
            return;
          }
          case StmtKind::While: {
            const auto& w = static_cast<const WhileStmt&>(*s);
            line("for (;;) {");
            indented([&] {
                std::string c = intExpr(w.cond());
                line("if (!" + c + ") break;");
                stmtList(w.body());
            });
            line("}");
            return;
          }
          case StmtKind::VarDecl: {
            const auto& d = static_cast<const VarDeclStmt&>(*s);
            size_t off = layout_.add(d.var());
            size_t w = d.var()->type->byteWidth();
            if (d.init())
                intoExpr(d.init(), frAt(off));
            else
                line("memset(" + frAt(off) + ", 0, " + num(w) + ");");
            return;
          }
          case StmtKind::Eval: {
            const auto& ev = static_cast<const EvalStmt&>(*s);
            size_t w = ev.expr()->type()->byteWidth();
            std::string sc = declBuf(w > 0 ? w : 1);
            intoExpr(ev.expr(), sc);
            return;
          }
        }
        throw Unsupported{"unknown stmt kind"};
    }

    // ---- integral expressions (compileInt) ---------------------------

    std::string
    intExpr(const ExprPtr& e)
    {
        const TypePtr& t = e->type();
        if (!t->isIntegral())
            throw Unsupported{"intExpr on non-integral type"};
        TypeKind k = t->kind();

        switch (e->kind()) {
          case ExprKind::Const: {
            int64_t v = static_cast<const ConstExpr&>(*e).value().asInt();
            return declInt(intLit(v));
          }
          case ExprKind::Var: {
            size_t off =
                layout_.add(static_cast<const VarExpr&>(*e).var());
            return declInt("zr_ld(" + bits(k) + ", " + frAt(off) + ")");
          }
          case ExprKind::Bin:
            return binInt(static_cast<const BinExpr&>(*e), k);
          case ExprKind::Un: {
            const auto& u = static_cast<const UnExpr&>(*e);
            std::string sa = intExpr(u.sub());
            switch (u.op()) {
              case UnOp::Neg:
                return declInt("zr_neg(" + bits(k) + ", " + sa + ")");
              case UnOp::BNot:
                return declInt("zr_bnot(" + bits(k) + ", " + sa + ")");
              case UnOp::LNot:
                return declInt("(int64_t)!" + sa);
            }
            throw Unsupported{"unhandled int unop"};
          }
          case ExprKind::Cast: {
            const auto& c = static_cast<const CastExpr&>(*e);
            const TypePtr& from = c.sub()->type();
            if (from->isIntegral()) {
                std::string sa = intExpr(c.sub());
                return declInt("zr_trunc(" + bits(k) + ", " + sa + ")");
            }
            if (!from->isDouble())
                throw Unsupported{"int cast from non-numeric"};
            std::string sa = dblExpr(c.sub());
            return declInt("zr_d2i(" + bits(k) + ", " + sa + ")");
          }
          case ExprKind::Index:
          case ExprKind::Field: {
            std::string r = refExpr(e);
            return declInt("zr_ld(" + bits(k) + ", " + r + ")");
          }
          case ExprKind::Call:
            return callInt(static_cast<const CallExpr&>(*e), k);
          case ExprKind::Cond: {
            const auto& c = static_cast<const CondExpr&>(*e);
            std::string cc = intExpr(c.cond());
            std::string r = declIntUninit();
            line("if (" + cc + ") {");
            indented([&] {
                std::string tt = intExpr(c.thenE());
                line(r + " = " + tt + ";");
            });
            line("} else {");
            indented([&] {
                std::string ee = intExpr(c.elseE());
                line(r + " = " + ee + ";");
            });
            line("}");
            return r;
          }
          default:
            throw Unsupported{"unexpected int expr kind"};
        }
    }

    // ---- double expressions (compileDbl) -----------------------------

    std::string
    dblExpr(const ExprPtr& e)
    {
        if (!e->type()->isDouble())
            throw Unsupported{"dblExpr on non-double type"};
        switch (e->kind()) {
          case ExprKind::Const: {
            // Reproduce the exact bit pattern, not a decimal rounding.
            double v =
                static_cast<const ConstExpr&>(*e).value().asDouble();
            uint64_t bits;
            std::memcpy(&bits, &v, 8);
            char buf[32];
            std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                          static_cast<unsigned long long>(bits));
            std::string r = fresh();
            line("double " + r + "; { uint64_t zb = " + buf +
                 "; memcpy(&" + r + ", &zb, 8); }");
            return r;
          }
          case ExprKind::Var: {
            size_t off =
                layout_.add(static_cast<const VarExpr&>(*e).var());
            return declDbl("zr_ldd(" + frAt(off) + ")");
          }
          case ExprKind::Bin: {
            const auto& b = static_cast<const BinExpr&>(*e);
            std::string a = dblExpr(b.lhs());
            std::string c = dblExpr(b.rhs());
            const char* op;
            switch (b.op()) {
              case BinOp::Add: op = "+"; break;
              case BinOp::Sub: op = "-"; break;
              case BinOp::Mul: op = "*"; break;
              case BinOp::Div: op = "/"; break;
              default:
                throw Unsupported{"unhandled double binop"};
            }
            return declDbl("(" + a + " " + op + " " + c + ")");
          }
          case ExprKind::Un: {
            const auto& u = static_cast<const UnExpr&>(*e);
            if (u.op() != UnOp::Neg)
                throw Unsupported{"unhandled double unop"};
            return declDbl("(-" + dblExpr(u.sub()) + ")");
          }
          case ExprKind::Cast: {
            const auto& c = static_cast<const CastExpr&>(*e);
            if (!c.sub()->type()->isIntegral())
                throw Unsupported{"double cast from non-integral"};
            return declDbl("(double)" + intExpr(c.sub()));
          }
          case ExprKind::Index:
          case ExprKind::Field:
            return declDbl("zr_ldd(" + refExpr(e) + ")");
          case ExprKind::Call:
            return callDbl(static_cast<const CallExpr&>(*e));
          case ExprKind::Cond: {
            const auto& c = static_cast<const CondExpr&>(*e);
            std::string cc = intExpr(c.cond());
            std::string r = fresh();
            line("double " + r + ";");
            line("if (" + cc + ") {");
            indented([&] { line(r + " = " + dblExpr(c.thenE()) + ";"); });
            line("} else {");
            indented([&] { line(r + " = " + dblExpr(c.elseE()) + ";"); });
            line("}");
            return r;
          }
          default:
            throw Unsupported{"unexpected double expr kind"};
        }
    }

    // ---- evaluate-into (compileInto) ---------------------------------

    void
    intoExpr(const ExprPtr& e, const std::string& dst)
    {
        const TypePtr& t = e->type();
        if (t->isUnit()) {
            if (e->kind() == ExprKind::Call)
                callInto(static_cast<const CallExpr&>(*e), dst);
            return;
        }
        if (t->isIntegral()) {
            std::string v = intExpr(e);
            line("zr_st(" + bits(t->kind()) + ", " + dst + ", " + v + ");");
            return;
        }
        if (t->isDouble()) {
            std::string v = dblExpr(e);
            line("zr_std(" + dst + ", " + v + ");");
            return;
        }
        if (t->isComplex()) {
            switch (e->kind()) {
              case ExprKind::Bin:
                binComplex(static_cast<const BinExpr&>(*e), t, dst);
                return;
              case ExprKind::Un: {
                const auto& u = static_cast<const UnExpr&>(*e);
                if (u.op() != UnOp::Neg)
                    throw Unsupported{"unhandled complex unop"};
                std::string ba = declBuf(8);
                intoExpr(u.sub(), ba);
                std::string a = declC(t->kind(), ba);
                line("zr_stc(" + cbits(t->kind()) + ", " + dst +
                     ", zr_cneg(" + a + "));");
                return;
              }
              case ExprKind::Cast: {
                const auto& c = static_cast<const CastExpr&>(*e);
                const TypePtr& from = c.sub()->type();
                if (!from->isComplex())
                    throw Unsupported{"complex cast from non-complex"};
                std::string ba = declBuf(8);
                intoExpr(c.sub(), ba);
                std::string a = declC(from->kind(), ba);
                if (t->kind() == TypeKind::Complex16)
                    line("zr_stc(16, " + dst + ", zr_csat16(" + a + "));");
                else
                    line("zr_stc(32, " + dst + ", " + a + ");");
                return;
              }
              default:
                break;  // generic cases below
            }
        }

        // Generic cases (complex leaves, arrays, structs).
        switch (e->kind()) {
          case ExprKind::Const: {
            const Value& v = static_cast<const ConstExpr&>(*e).value();
            std::vector<uint8_t> bytes = v.bytes();
            std::string name = fresh();
            std::string init;
            for (size_t i = 0; i < bytes.size(); ++i) {
                if (i)
                    init += ",";
                init += std::to_string(bytes[i]);
            }
            line("static const uint8_t " + name + "[] = {" + init +
                 "};");
            line("memcpy(" + dst + ", " + name + ", " +
                 num(bytes.size()) + ");");
            return;
          }
          case ExprKind::Var:
          case ExprKind::Index:
          case ExprKind::Slice:
          case ExprKind::Field: {
            std::string r = refExpr(e);
            line("memmove(" + dst + ", " + r + ", " +
                 num(t->byteWidth()) + ");");
            return;
          }
          case ExprKind::ArrayLit: {
            const auto& a = static_cast<const ArrayLitExpr&>(*e);
            size_t ew = t->elem()->byteWidth();
            for (size_t i = 0; i < a.elems().size(); ++i)
                intoExpr(a.elems()[i],
                         "(" + dst + " + " + num(i * ew) + ")");
            return;
          }
          case ExprKind::StructLit: {
            const auto& sl = static_cast<const StructLitExpr&>(*e);
            size_t off = 0;
            for (size_t i = 0; i < sl.fieldExprs().size(); ++i) {
                intoExpr(sl.fieldExprs()[i],
                         "(" + dst + " + " + num(off) + ")");
                off += t->fields()[i].second->byteWidth();
            }
            return;
          }
          case ExprKind::Call:
            callInto(static_cast<const CallExpr&>(*e), dst);
            return;
          case ExprKind::Cond: {
            const auto& c = static_cast<const CondExpr&>(*e);
            std::string cc = intExpr(c.cond());
            line("if (" + cc + ") {");
            indented([&] { intoExpr(c.thenE(), dst); });
            line("} else {");
            indented([&] { intoExpr(c.elseE(), dst); });
            line("}");
            return;
          }
          default:
            throw Unsupported{"unexpected into expr kind"};
        }
    }

  private:
    // ---- references (compileRef / compileAddr) -----------------------

    std::string
    refExpr(const ExprPtr& e)
    {
        switch (e->kind()) {
          case ExprKind::Var:
          case ExprKind::Index:
          case ExprKind::Slice:
          case ExprKind::Field:
            return addrExpr(e);
          default: {
            // Materialize the rvalue into local scratch.
            size_t w = e->type()->byteWidth();
            std::string buf = declBuf(w > 0 ? w : 1);
            intoExpr(e, buf);
            return buf;
          }
        }
    }

    std::string
    addrExpr(const ExprPtr& e)
    {
        switch (e->kind()) {
          case ExprKind::Var: {
            size_t off =
                layout_.add(static_cast<const VarExpr&>(*e).var());
            return declPtr(frAt(off));
          }
          case ExprKind::Index: {
            const auto& i = static_cast<const IndexExpr&>(*e);
            size_t w = e->type()->byteWidth();
            long n = i.arr()->type()->len();
            // Index first, bounds check, then the base address —
            // closure order (compileAddr).
            std::string k = intExpr(i.idx());
            line("zr_check_index(zc, " + k + ", " + num(n) + ");");
            std::string base = refExpr(i.arr());
            return declPtr(base + " + (size_t)" + k + " * " + num(w));
          }
          case ExprKind::Slice: {
            const auto& s = static_cast<const SliceExpr&>(*e);
            size_t w = s.arr()->type()->elem()->byteWidth();
            long n = s.arr()->type()->len();
            long len = s.sliceLen();
            std::string k = intExpr(s.base());
            line("zr_check_slice(zc, " + k + ", " + num(len) + ", " +
                 num(n) + ");");
            std::string base = refExpr(s.arr());
            return declPtr(base + " + (size_t)" + k + " * " + num(w));
          }
          case ExprKind::Field: {
            const auto& fe = static_cast<const FieldExpr&>(*e);
            long off = fe.rec()->type()->fieldOffset(fe.field());
            if (off < 0)
                throw Unsupported{"unknown struct field"};
            std::string base = refExpr(fe.rec());
            return declPtr(base + " + " + num(off));
          }
          default:
            throw Unsupported{"not an lvalue"};
        }
    }

    // ---- binary operators --------------------------------------------

    std::string
    binInt(const BinExpr& b, TypeKind k)
    {
        const TypePtr& ot = b.lhs()->type();
        switch (b.op()) {
          case BinOp::Eq:
          case BinOp::Ne: {
            const char* op = b.op() == BinOp::Eq ? "==" : "!=";
            if (ot->isIntegral()) {
                std::string a = intExpr(b.lhs());
                std::string c = intExpr(b.rhs());
                return declInt("(int64_t)(" + a + " " + op + " " + c +
                               ")");
            }
            if (ot->isDouble()) {
                std::string a = dblExpr(b.lhs());
                std::string c = dblExpr(b.rhs());
                return declInt("(int64_t)(" + a + " " + op + " " + c +
                               ")");
            }
            // complex: bitwise comparison of the fixed-point pairs
            size_t w = ot->byteWidth();
            std::string ba = declBuf(8);
            std::string bb = declBuf(8);
            intoExpr(b.lhs(), ba);
            intoExpr(b.rhs(), bb);
            return declInt("(int64_t)(memcmp(" + ba + ", " + bb + ", " +
                           num(w) + ") " + op + " 0)");
          }
          case BinOp::Lt:
          case BinOp::Le:
          case BinOp::Gt:
          case BinOp::Ge: {
            const char* op = b.op() == BinOp::Lt   ? "<"
                             : b.op() == BinOp::Le ? "<="
                             : b.op() == BinOp::Gt ? ">"
                                                   : ">=";
            if (ot->isDouble()) {
                std::string a = dblExpr(b.lhs());
                std::string c = dblExpr(b.rhs());
                return declInt("(int64_t)(" + a + " " + op + " " + c +
                               ")");
            }
            std::string a = intExpr(b.lhs());
            std::string c = intExpr(b.rhs());
            return declInt("(int64_t)(" + a + " " + op + " " + c + ")");
          }
          case BinOp::LAnd: {
            std::string a = intExpr(b.lhs());
            std::string r = declIntUninit();
            line("if (" + a + ") {");
            indented([&] {
                line(r + " = " + intExpr(b.rhs()) + ";");
            });
            line("} else {");
            indented([&] { line(r + " = 0;"); });
            line("}");
            return r;
          }
          case BinOp::LOr: {
            std::string a = intExpr(b.lhs());
            std::string r = declIntUninit();
            line("if (" + a + ") {");
            indented([&] { line(r + " = 1;"); });
            line("} else {");
            indented([&] {
                line(r + " = " + intExpr(b.rhs()) + ";");
            });
            line("}");
            return r;
          }
          case BinOp::Add:
          case BinOp::Sub:
          case BinOp::Mul:
          case BinOp::Shl:
          case BinOp::Shr: {
            const char* fn = b.op() == BinOp::Add   ? "zr_add("
                             : b.op() == BinOp::Sub ? "zr_sub("
                             : b.op() == BinOp::Mul ? "zr_mul("
                             : b.op() == BinOp::Shl ? "zr_shl("
                                                    : "zr_shr(";
            std::string a = intExpr(b.lhs());
            std::string c = intExpr(b.rhs());
            return declInt(fn + bits(k) + ", " + a + ", " + c + ")");
          }
          case BinOp::Div:
          case BinOp::Rem: {
            const char* fn =
                b.op() == BinOp::Div ? "zr_div(zc, " : "zr_rem(zc, ";
            std::string a = intExpr(b.lhs());
            std::string c = intExpr(b.rhs());
            return declInt(fn + bits(k) + ", " + a + ", " + c + ")");
          }
          case BinOp::BAnd:
          case BinOp::BOr:
          case BinOp::BXor: {
            const char* op = b.op() == BinOp::BAnd  ? "&"
                             : b.op() == BinOp::BOr ? "|"
                                                    : "^";
            std::string a = intExpr(b.lhs());
            std::string c = intExpr(b.rhs());
            return declInt("(" + a + " " + op + " " + c + ")");
          }
        }
        throw Unsupported{"unhandled int binop"};
    }

    void
    binComplex(const BinExpr& b, const TypePtr& t, const std::string& dst)
    {
        std::string cw = cbits(t->kind());
        std::string ba = declBuf(8);
        intoExpr(b.lhs(), ba);
        if (b.op() == BinOp::Shl || b.op() == BinOp::Shr) {
            std::string a = declC(t->kind(), ba);
            std::string sh = intExpr(b.rhs());
            const char* fn = b.op() == BinOp::Shl ? "zr_cshl(" : "zr_cshr(";
            line("zr_stc(" + cw + ", " + dst + ", " + fn + a + ", " + sh +
                 "));");
            return;
        }
        std::string bb = declBuf(8);
        intoExpr(b.rhs(), bb);
        std::string a = declC(t->kind(), ba);
        std::string c = declC(t->kind(), bb);
        std::string r;
        switch (b.op()) {
          case BinOp::Add:
            r = "zr_cadd(" + a + ", " + c + ")";
            break;
          case BinOp::Sub:
            r = "zr_csub(" + a + ", " + c + ")";
            break;
          case BinOp::Mul:
            r = "zr_cmul(" + a + ", " + c + ")";
            break;
          default:
            // The closure traps at run time after evaluating both
            // operands; so does this.
            r = "zr_cunsupported(zc)";
            break;
        }
        line("zr_stc(" + cw + ", " + dst + ", " + r + ");");
    }

    // ---- calls (prepareCall / compileCall*) --------------------------

    /**
     * Inline a non-native call: emit by-value argument stores (in arg
     * order) and the body, return the cloned return expression (null
     * for unit functions).  By-ref parameters are substituted with the
     * argument lvalues, exactly as prepareCall does.
     */
    ExprPtr
    prepare(const CallExpr& c)
    {
        const FunRef& f = c.fun();
        std::vector<ExprPtr> substArgs(c.args().size());
        for (size_t i = 0; i < c.args().size(); ++i) {
            if (f->paramByRef(i))
                substArgs[i] = c.args()[i];
        }
        InlinedFun inl = inlineFun(f, substArgs);
        for (size_t i = 0; i < c.args().size(); ++i) {
            if (f->paramByRef(i))
                continue;
            size_t off = layout_.add(inl.params[i]);
            intoExpr(c.args()[i], frAt(off));
        }
        stmtList(inl.body);
        return inl.ret;
    }

    void
    nativeCall(const CallExpr& c, const std::string& dst)
    {
        // Only a function registered from zr_sem.h has a body the unit
        // can call; any other native is bridged.
        const std::string& name = c.fun()->name;
        ZrNativeFn fn = zr_native(name.c_str());
        auto* bound = c.fun()->native.target<ZrNativeFn>();
        if (!fn || !bound || *bound != fn)
            throw Unsupported{"native function not in zr_sem.h"};
        std::vector<std::string> refs;
        refs.reserve(c.args().size());
        for (const auto& a : c.args())
            refs.push_back(refExpr(a));
        std::string argv;
        for (size_t i = 0; i < refs.size(); ++i) {
            if (i)
                argv += ", ";
            argv += refs[i];
        }
        line("{ const uint8_t* zargs[] = {" + argv + "}; zr_nat_" +
             name + "(zargs, " + dst + "); }");
    }

    void
    callInto(const CallExpr& c, const std::string& dst)
    {
        if (c.fun()->isNative()) {
            nativeCall(c, dst);
            return;
        }
        ExprPtr ret = prepare(c);
        if (ret)
            intoExpr(ret, dst);
    }

    std::string
    callInt(const CallExpr& c, TypeKind k)
    {
        if (c.fun()->isNative()) {
            std::string buf = declBuf(8);
            nativeCall(c, buf);
            return declInt("zr_ld(" + bits(k) + ", " + buf + ")");
        }
        ExprPtr ret = prepare(c);
        if (!ret)
            throw Unsupported{"int-typed call with no return"};
        return intExpr(ret);
    }

    std::string
    callDbl(const CallExpr& c)
    {
        if (c.fun()->isNative()) {
            std::string buf = declBuf(8);
            nativeCall(c, buf);
            return declDbl("zr_ldd(" + buf + ")");
        }
        ExprPtr ret = prepare(c);
        if (!ret)
            throw Unsupported{"double-typed call with no return"};
        return dblExpr(ret);
    }

    // ---- small emission helpers --------------------------------------

    std::string
    fresh()
    {
        return "z" + std::to_string(tmp_++);
    }

    void
    line(const std::string& s)
    {
        body_.append(static_cast<size_t>(ind_) * 2, ' ');
        body_ += s;
        body_ += "\n";
    }

    template <typename F>
    void
    indented(F&& f)
    {
        ++ind_;
        f();
        --ind_;
    }

    std::string
    declInt(const std::string& expr)
    {
        std::string r = fresh();
        line("int64_t " + r + " = " + expr + ";");
        return r;
    }

    std::string
    declIntUninit()
    {
        std::string r = fresh();
        line("int64_t " + r + ";");
        return r;
    }

    std::string
    declDbl(const std::string& expr)
    {
        std::string r = fresh();
        line("double " + r + " = " + expr + ";");
        return r;
    }

    std::string
    declPtr(const std::string& expr)
    {
        std::string r = fresh();
        line("uint8_t* " + r + " = " + expr + ";");
        return r;
    }

    std::string
    declBuf(size_t w)
    {
        std::string r = fresh();
        line("alignas(8) uint8_t " + r + "[" + num(w) + "];");
        return r;
    }

    std::string
    declC(TypeKind k, const std::string& buf)
    {
        std::string r = fresh();
        line("ZrC32 " + r + " = zr_ldc(" + cbits(k) + ", " + buf + ");");
        return r;
    }

    std::string
    frAt(size_t off)
    {
        return "(fr + " + num(off) + ")";
    }

    FrameLayout& layout_;
    int ind_;
    int tmp_ = 0;
    std::string body_;
};

// -----------------------------------------------------------------------
// Region translation
// -----------------------------------------------------------------------

/** Translates one FuseProgram into `zr_region`. */
class RegionEmitter
{
  public:
    RegionEmitter(const FuseProgram& p, FrameLayout& layout)
        : p_(p), layout_(layout)
    {
    }

    int hostBridges() const { return bridges_; }

    std::string
    emit()
    {
        out_ += "extern \"C\" int zr_region(ZrCtx* zc)\n{\n";
        out_ += "  uint8_t* const fr = zc->fr; (void)fr;\n";
        out_ += "  uint8_t* const st = zc->st; (void)st;\n";
        out_ += "  int64_t* const regs = zc->regs; (void)regs;\n";
        out_ += "  uint64_t spins = zc->spins;\n";
        out_ += "  uint32_t pc = zc->pc;\n";
        out_ += "zdispatch:\n";
        out_ += "  switch (pc) {\n";
        for (size_t i = 0; i < p_.instrs.size(); ++i)
            out_ += "    case " + std::to_string(i) + ": goto L" +
                    std::to_string(i) + ";\n";
        out_ += "    default: zr_trap(zc, \"cgen: bad pc\"); "
                "return 2;\n";
        out_ += "  }\n";
        for (size_t i = 0; i < p_.instrs.size(); ++i)
            instr(static_cast<uint32_t>(i));
        // A well-formed program never falls off the end (it halts or
        // loops), but give stray `goto L<n>` a defined landing pad.
        out_ += "L" + std::to_string(p_.instrs.size()) + ":\n";
        out_ += "  zr_trap(zc, \"cgen: pc off end\");\n";
        out_ += "  return 2;\n";
        out_ += "}\n";
        return std::move(out_);
    }

  private:
    std::string
    loc(uint32_t enc)
    {
        if (enc & kFrameBit)
            return "(fr + " + num(enc & ~kFrameBit) + ")";
        return "(st + " + num(enc) + ")";
    }

    std::string
    label(uint64_t i)
    {
        return "L" + std::to_string(i);
    }

    void
    ln(const std::string& s)
    {
        out_ += "  " + s + "\n";
    }

    /**
     * Emit a closure site: try straight-line C++ from the recorded
     * source AST; fall back to a host-callback bridge on any shape the
     * emitter does not cover (or when no source was recorded).
     */
    template <typename F>
    bool
    tryClosure(F&& f)
    {
        CppEmitter ce(layout_, 1);
        try {
            f(ce);
        } catch (const Unsupported&) {
            return false;
        }
        out_ += ce.take();
        return true;
    }

    /** Closure intoFns[@p fn] writing to @p dst. */
    void
    evalInto(int32_t fn, uint32_t dst)
    {
        const ExprPtr& src = p_.intoSrc[fn];
        bool ok = src && tryClosure([&](CppEmitter& ce) {
            ce.intoExpr(src, "(" + loc(dst) + ")");
        });
        if (!ok) {
            ++bridges_;
            ln("zc->hostInto(zc->host, " + num(fn) + ", " + loc(dst) +
               ");");
        }
    }

    /** Closure actions[@p fn]. */
    void
    action(int32_t fn)
    {
        bool have = fn >= 0 && static_cast<size_t>(fn) < p_.actionSrc.size();
        bool ok = have && tryClosure([&](CppEmitter& ce) {
            ce.stmtList(p_.actionSrc[fn]);
        });
        if (!ok) {
            ++bridges_;
            ln("zc->hostAction(zc->host, " + num(fn) + ");");
        }
    }

    void
    instr(uint32_t pc)
    {
        const Instr& i = p_.instrs[pc];
        const std::string I = num(pc);
        const std::string next = label(pc + 1);
        out_ += label(pc) + ": {\n";
        switch (i.op) {
          case Op::TakeExt:
            ln("if (!regs[" + num(i.c) + "]) { zc->pc = " + I +
               "; zc->spins = spins; return 1; }");
            ln("regs[" + num(i.c) + "] = 0; spins = 0; goto " + next +
               ";");
            break;
          case Op::TakeManyExt:
            ln("if (regs[" + num(i.c) + "] >= " + intLit(i.d) +
               ") { spins = 0; goto " + next + "; }");
            ln("zc->pc = " + I + "; zc->spins = spins; return 1;");
            break;
          case Op::TakeCh: {
            const std::string buf =
                "(st + " + num(p_.channels[i.c].bufOff) + ")";
            ln("if (zc->chFull[" + num(i.c) + "]) {");
            ln("  memcpy(" + loc(i.a) + ", " + buf + ", " + num(i.b) +
               ");");
            ln("  zc->chFull[" + num(i.c) +
               "] = 0; spins = 0; goto " + next + ";");
            ln("}");
            ln("zc->chConsPc[" + num(i.c) + "] = " + I +
               "; spins = 0; pc = zc->chProdPc[" + num(i.c) +
               "]; goto zdispatch;");
            break;
          }
          case Op::TakeManyCh: {
            const std::string buf =
                "(st + " + num(p_.channels[i.c].bufOff) + ")";
            ln("if (regs[" + num(i.e) + "] >= " + intLit(i.d) +
               ") { spins = 0; goto " + next + "; }");
            ln("if (zc->chFull[" + num(i.c) + "]) {");
            ln("  memcpy(" + loc(i.a) + " + regs[" + num(i.e) + "] * " +
               num(i.b) + ", " + buf + ", " + num(i.b) + ");");
            ln("  ++regs[" + num(i.e) + "]; zc->chFull[" + num(i.c) +
               "] = 0; spins = 0; goto " + label(pc) + ";");
            ln("}");
            ln("zc->chConsPc[" + num(i.c) + "] = " + I +
               "; pc = zc->chProdPc[" + num(i.c) + "]; goto zdispatch;");
            break;
          }
          case Op::EmitExt:
            ln("zc->outPtr = " + loc(i.a) + "; zc->spins = 0; zc->pc = " +
               num(pc + 1) + "; return 0;");
            break;
          case Op::EmitChSig:
            ln("zc->chFull[" + num(i.a) + "] = 1; zc->chProdPc[" +
               num(i.a) + "] = " + num(pc + 1) +
               "; spins = 0; pc = zc->chConsPc[" + num(i.a) +
               "]; goto zdispatch;");
            break;
          case Op::EmitCh: {
            const std::string buf =
                "(st + " + num(p_.channels[i.c].bufOff) + ")";
            ln("memcpy(" + buf + ", " + loc(i.a) + ", " + num(i.b) +
               ");");
            ln("zc->chFull[" + num(i.c) + "] = 1; zc->chProdPc[" +
               num(i.c) + "] = " + num(pc + 1) +
               "; spins = 0; pc = zc->chConsPc[" + num(i.c) +
               "]; goto zdispatch;");
            break;
          }
          case Op::EmitsExt:
            ln("if (regs[" + num(i.c) + "] >= " + intLit(i.d) +
               ") goto " + label(i.e) + ";");
            ln("zc->outPtr = " + loc(i.a) + " + regs[" + num(i.c) +
               "] * " + num(i.b) + ";");
            ln("++regs[" + num(i.c) + "]; zc->spins = 0; zc->pc = " + I +
               "; return 0;");
            break;
          case Op::EmitsCh: {
            const uint32_t ch = static_cast<uint32_t>(i.fn);
            const std::string buf =
                "(st + " + num(p_.channels[ch].bufOff) + ")";
            ln("if (regs[" + num(i.c) + "] >= " + intLit(i.d) +
               ") goto " + label(i.e) + ";");
            ln("memcpy(" + buf + ", " + loc(i.a) + " + regs[" +
               num(i.c) + "] * " + num(i.b) + ", " + num(i.b) + ");");
            ln("++regs[" + num(i.c) + "]; zc->chFull[" + num(ch) +
               "] = 1; zc->chProdPc[" + num(ch) + "] = " + I +
               "; spins = 0; pc = zc->chConsPc[" + num(ch) +
               "]; goto zdispatch;");
            break;
          }
          case Op::EvalInto:
            evalInto(i.fn, i.a);
            ln("goto " + next + ";");
            break;
          case Op::EvalInt: {
            const ExprPtr& src = p_.intSrc[i.fn];
            bool ok = src && tryClosure([&](CppEmitter& ce) {
                std::string v = ce.intExpr(src);
                ce.raw("regs[" + num(i.a) + "] = " + v + ";");
            });
            if (!ok) {
                ++bridges_;
                ln("regs[" + num(i.a) + "] = zc->hostInt(zc->host, " +
                   num(i.fn) + ");");
            }
            ln("goto " + next + ";");
            break;
          }
          case Op::Action:
            action(i.fn);
            ln("goto " + next + ";");
            break;
          case Op::Lut:
            // The table is the interpreter's; compiled code runs the
            // kernel it was built from, which computes the same outputs
            // and state updates.  Each closure gets its own block, so
            // their temporaries do not collide.
            if (i.b != kNoTarget) {
                ln("{");
                action(static_cast<int32_t>(i.b));
                ln("}");
            }
            if (i.c != kNoTarget) {
                ln("{");
                evalInto(static_cast<int32_t>(i.c), i.a);
                ln("}");
            }
            ln("goto " + next + ";");
            break;
          case Op::SiteStart:
          case Op::SiteSupply:
            // The kernels are host code: one call through hostSite,
            // which runs the same FusedNode::site as the interpreter.
            ln("zc->hostSite(zc->host, " + I + ");");
            ln("goto " + next + ";");
            break;
          case Op::SitePull:
            ln("switch (zc->hostSite(zc->host, " + I + ")) {");
            ln("  case 0: goto " + next + ";");
            ln("  case 1: goto " + label(i.c) + ";");
            ln("  default: goto " + label(i.d) + ";");
            ln("}");
            break;
          case Op::Copy:
            ln("memcpy(" + loc(i.a) + ", " + loc(i.b) + ", " + num(i.c) +
               ");");
            ln("goto " + next + ";");
            break;
          case Op::Zero:
            ln("memset(" + loc(i.a) + ", 0, " + num(i.b) + ");");
            ln("goto " + next + ";");
            break;
          case Op::LoadByte:
            ln("regs[" + num(i.a) + "] = *" + loc(i.b) + ";");
            ln("goto " + next + ";");
            break;
          case Op::SetReg:
            ln("regs[" + num(i.a) + "] = " + intLit(i.b) + ";");
            ln("goto " + next + ";");
            break;
          case Op::IvWrite:
            ln("zr_st(" + bits(static_cast<TypeKind>(i.b)) + ", (fr + " +
               num(i.a) + "), regs[" + num(i.c) + "]);");
            ln("goto " + next + ";");
            break;
          case Op::Jmp:
            ln("goto " + label(i.a) + ";");
            break;
          case Op::Jz:
            ln("if (regs[" + num(i.a) + "]) goto " + next + ";");
            ln("goto " + label(i.b) + ";");
            break;
          case Op::JgeRR:
            ln("if (regs[" + num(i.a) + "] >= regs[" + num(i.b) +
               "]) goto " + label(i.c) + ";");
            ln("goto " + next + ";");
            break;
          case Op::TimesStep:
            ln("++regs[" + num(i.a) + "];");
            ln("if (regs[" + num(i.a) + "] >= regs[" + num(i.b) +
               "]) goto " + next + ";");
            if (i.d != kNoTarget)
                ln("zr_st(" + bits(static_cast<TypeKind>(i.e)) +
                   ", (fr + " + num(i.d) + "), regs[" + num(i.a) + "]);");
            ln("goto " + label(i.c) + ";");
            break;
          case Op::PipeInit:
            ln("zc->chProdPc[" + num(i.a) + "] = " + num(i.b) +
               "; zc->chConsPc[" + num(i.a) + "] = 0; zc->chFull[" +
               num(i.a) + "] = 0;");
            ln("goto " + next + ";");
            break;
          case Op::Spin:
            ln("zr_spin(zc, &spins);");
            ln("goto " + next + ";");
            break;
          case Op::Ctrl:
            if (i.b)
                ln("zc->ctrlPtr = " + loc(i.a) + ";");
            else
                ln("zc->ctrlPtr = 0;");
            ln("zc->ctrlWidth = " + num(i.b) + ";");
            ln("goto " + next + ";");
            break;
          case Op::Halt:
            ln("zc->pc = " + I + "; zc->spins = spins; return 2;");
            break;
        }
        out_ += "}\n";
    }

    const FuseProgram& p_;
    FrameLayout& layout_;
    int bridges_ = 0;
    std::string out_;
};

} // namespace

EmitUnit
emitUnit(const FuseProgram& prog, ExprCompiler& ec)
{
    // The preamble: zr_sem.h verbatim, then the ABI version symbol.
    EmitUnit u;
    u.source = "// Generated by ziria zcgen. Do not edit.\n";
    u.source += kZrSemText;
    u.source += "\nusing std::memcpy;\nusing std::memmove;\n"
                "using std::memset;\n\n"
                "extern \"C\" int zr_abi(void) { return kZrAbiVersion; }\n\n";
    RegionEmitter re(prog, ec.layout());
    u.source += re.emit();
    u.hostBridges = re.hostBridges();
    return u;
}

} // namespace zcgen
} // namespace ziria
