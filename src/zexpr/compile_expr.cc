#include "zexpr/compile_expr.h"

#include <type_traits>

#include "support/panic.h"
#include "zast/printer.h"
#include "ztype/value.h"

namespace ziria {

namespace {

// The host trap callbacks.  FatalError also unwinds cleanly through
// natively generated frames: the JIT compiles with exceptions enabled.
void
trapMsg(void*, const char* msg)
{
    fatal(msg);
}

void
trapIndex(void*, int64_t k, int64_t n)
{
    fatalf("array index out of bounds: ", k, " not in [0, ", n, ")");
}

void
trapSlice(void*, int64_t k, int64_t kEnd, int64_t n)
{
    fatalf("slice out of bounds: [", k, ", ", kEnd, ") not within [0, ",
           n, ")");
}

constexpr ZrCtx
makeHostTraps()
{
    ZrCtx c{};
    c.trapMsg = &trapMsg;
    c.trapIndex = &trapIndex;
    c.trapSlice = &trapSlice;
    return c;
}

constexpr ZrCtx kHostTraps = makeHostTraps();

/**
 * Call @p make with the width of integral kind @p k as a compile-time
 * constant, so each closure body it builds passes zr_sem.h a literal
 * width and the header's switch folds away.
 */
template <typename Make>
auto
byWidth(TypeKind k, Make&& make)
{
    switch (intBits(k)) {
      case 1: return make(std::integral_constant<int, 1>{});
      case 8: return make(std::integral_constant<int, 8>{});
      case 16: return make(std::integral_constant<int, 16>{});
      case 32: return make(std::integral_constant<int, 32>{});
      default: return make(std::integral_constant<int, 64>{});
    }
}

using IntOp = int64_t (*)(int w, int64_t a, int64_t b);

int64_t
divOp(int w, int64_t a, int64_t b)
{
    return zr_div(&kHostTraps, w, a, b);
}

int64_t
remOp(int w, int64_t a, int64_t b)
{
    return zr_rem(&kHostTraps, w, a, b);
}

/** A binary closure: both operands left to right, then @p Op. */
template <IntOp Op>
EvalInt
intBin(TypeKind k, const EvalInt& la, const EvalInt& ra)
{
    return byWidth(k, [&](auto w) -> EvalInt {
        return [la, ra](Frame& f) -> int64_t {
            int64_t a = la(f);
            int64_t b = ra(f);
            return Op(decltype(w)::value, a, b);
        };
    });
}

EvalInt
makeLoad(TypeKind k, RefFn ref)
{
    return byWidth(k, [&](auto w) -> EvalInt {
        return [ref](Frame& f) { return zr_ld(decltype(w)::value, ref(f)); };
    });
}

EvalInto
makeStore(TypeKind k, EvalInt val)
{
    return byWidth(k, [&](auto w) -> EvalInto {
        return [val](Frame& f, uint8_t* dst) {
            zr_st(decltype(w)::value, dst, val(f));
        };
    });
}

} // namespace

const ZrCtx*
hostTraps()
{
    return &kHostTraps;
}

// -----------------------------------------------------------------------
// Integral expressions
// -----------------------------------------------------------------------

EvalInt
ExprCompiler::compileInt(const ExprPtr& e)
{
    const TypePtr& t = e->type();
    ZIRIA_ASSERT(t->isIntegral(), "compileInt on non-integral type");
    TypeKind k = t->kind();

    switch (e->kind()) {
      case ExprKind::Const: {
        int64_t v = static_cast<const ConstExpr&>(*e).value().asInt();
        return [v](Frame&) { return v; };
      }
      case ExprKind::Var: {
        const auto& v = static_cast<const VarExpr&>(*e).var();
        size_t off = layout_.add(v);
        return byWidth(k, [off](auto w) -> EvalInt {
            return [off](Frame& f) {
                return zr_ld(decltype(w)::value, f.at(off));
            };
        });
      }
      case ExprKind::Bin: {
        const auto& b = static_cast<const BinExpr&>(*e);
        const TypePtr& ot = b.lhs()->type();
        switch (b.op()) {
          case BinOp::Eq:
          case BinOp::Ne: {
            bool wantEq = b.op() == BinOp::Eq;
            if (ot->isIntegral()) {
                EvalInt la = compileInt(b.lhs());
                EvalInt ra = compileInt(b.rhs());
                return [la, ra, wantEq](Frame& f) -> int64_t {
                    int64_t a = la(f);
                    int64_t b = ra(f);
                    return (a == b) == wantEq;
                };
            }
            if (ot->isDouble()) {
                EvalDbl la = compileDbl(b.lhs());
                EvalDbl ra = compileDbl(b.rhs());
                return [la, ra, wantEq](Frame& f) -> int64_t {
                    double a = la(f);
                    double b = ra(f);
                    return (a == b) == wantEq;
                };
            }
            // complex: bitwise comparison of the fixed-point pairs
            EvalInto la = compileInto(b.lhs());
            EvalInto ra = compileInto(b.rhs());
            size_t w = ot->byteWidth();
            return [la, ra, w, wantEq](Frame& f) -> int64_t {
                uint8_t ba[8], bb[8];
                la(f, ba);
                ra(f, bb);
                return (std::memcmp(ba, bb, w) == 0) == wantEq;
            };
          }
          case BinOp::Lt:
          case BinOp::Le:
          case BinOp::Gt:
          case BinOp::Ge: {
            BinOp op = b.op();
            if (ot->isDouble()) {
                EvalDbl la = compileDbl(b.lhs());
                EvalDbl ra = compileDbl(b.rhs());
                switch (op) {
                  case BinOp::Lt:
                    return [la, ra](Frame& f) -> int64_t {
                        auto a = la(f);
                        auto b = ra(f);
                        return a < b;
                    };
                  case BinOp::Le:
                    return [la, ra](Frame& f) -> int64_t {
                        auto a = la(f);
                        auto b = ra(f);
                        return a <= b;
                    };
                  case BinOp::Gt:
                    return [la, ra](Frame& f) -> int64_t {
                        auto a = la(f);
                        auto b = ra(f);
                        return a > b;
                    };
                  default:
                    return [la, ra](Frame& f) -> int64_t {
                        auto a = la(f);
                        auto b = ra(f);
                        return a >= b;
                    };
                }
            }
            EvalInt la = compileInt(b.lhs());
            EvalInt ra = compileInt(b.rhs());
            switch (op) {
              case BinOp::Lt:
                return
                    [la, ra](Frame& f) -> int64_t {
                        auto a = la(f);
                        auto b = ra(f);
                        return a < b;
                    };
              case BinOp::Le:
                return [la, ra](Frame& f) -> int64_t {
                        auto a = la(f);
                        auto b = ra(f);
                        return a <= b;
                    };
              case BinOp::Gt:
                return
                    [la, ra](Frame& f) -> int64_t {
                        auto a = la(f);
                        auto b = ra(f);
                        return a > b;
                    };
              default:
                return [la, ra](Frame& f) -> int64_t {
                        auto a = la(f);
                        auto b = ra(f);
                        return a >= b;
                    };
            }
          }
          case BinOp::LAnd: {
            EvalInt la = compileInt(b.lhs());
            EvalInt ra = compileInt(b.rhs());
            return [la, ra](Frame& f) -> int64_t {
                return la(f) ? ra(f) : 0;
            };
          }
          case BinOp::LOr: {
            EvalInt la = compileInt(b.lhs());
            EvalInt ra = compileInt(b.rhs());
            return [la, ra](Frame& f) -> int64_t {
                return la(f) ? 1 : ra(f);
            };
          }
          default:
            break;  // arithmetic and bitwise operators below
        }
        EvalInt la = compileInt(b.lhs());
        EvalInt ra = compileInt(b.rhs());
        switch (b.op()) {
          case BinOp::Add: return intBin<zr_add>(k, la, ra);
          case BinOp::Sub: return intBin<zr_sub>(k, la, ra);
          case BinOp::Mul: return intBin<zr_mul>(k, la, ra);
          case BinOp::Div: return intBin<divOp>(k, la, ra);
          case BinOp::Rem: return intBin<remOp>(k, la, ra);
          case BinOp::Shl: return intBin<zr_shl>(k, la, ra);
          case BinOp::Shr: return intBin<zr_shr>(k, la, ra);
          case BinOp::BAnd:
            return [la, ra](Frame& f) {
                int64_t a = la(f);
                int64_t b = ra(f);
                return a & b;
            };
          case BinOp::BOr:
            return [la, ra](Frame& f) {
                int64_t a = la(f);
                int64_t b = ra(f);
                return a | b;
            };
          case BinOp::BXor:
            return [la, ra](Frame& f) {
                int64_t a = la(f);
                int64_t b = ra(f);
                return a ^ b;
            };
          default:
            panic("compileInt: unhandled binop");
        }
      }
      case ExprKind::Un: {
        const auto& u = static_cast<const UnExpr&>(*e);
        EvalInt sa = compileInt(u.sub());
        switch (u.op()) {
          case UnOp::Neg:
            return byWidth(k, [&](auto w) -> EvalInt {
                return [sa](Frame& f) {
                    return zr_neg(decltype(w)::value, sa(f));
                };
            });
          case UnOp::BNot:
            return byWidth(k, [&](auto w) -> EvalInt {
                return [sa](Frame& f) {
                    return zr_bnot(decltype(w)::value, sa(f));
                };
            });
          case UnOp::LNot:
            return [sa](Frame& f) -> int64_t { return !sa(f); };
        }
        panic("compileInt: unhandled unop");
      }
      case ExprKind::Cast: {
        const auto& c = static_cast<const CastExpr&>(*e);
        const TypePtr& from = c.sub()->type();
        if (from->isIntegral()) {
            EvalInt sa = compileInt(c.sub());
            return byWidth(k, [&](auto w) -> EvalInt {
                return [sa](Frame& f) {
                    return zr_trunc(decltype(w)::value, sa(f));
                };
            });
        }
        ZIRIA_ASSERT(from->isDouble());
        EvalDbl sa = compileDbl(c.sub());
        return byWidth(k, [&](auto w) -> EvalInt {
            return [sa](Frame& f) {
                return zr_d2i(decltype(w)::value, sa(f));
            };
        });
      }
      case ExprKind::Index:
      case ExprKind::Field: {
        RefFn r = compileRef(e);
        return makeLoad(k, std::move(r));
      }
      case ExprKind::Call:
        return compileCallInt(static_cast<const CallExpr&>(*e));
      case ExprKind::Cond: {
        const auto& c = static_cast<const CondExpr&>(*e);
        EvalInt cc = compileInt(c.cond());
        EvalInt tt = compileInt(c.thenE());
        EvalInt ee = compileInt(c.elseE());
        return [cc, tt, ee](Frame& f) { return cc(f) ? tt(f) : ee(f); };
      }
      default:
        panicf("compileInt: unexpected expr kind for type ", t->show());
    }
}

// -----------------------------------------------------------------------
// Double expressions
// -----------------------------------------------------------------------

EvalDbl
ExprCompiler::compileDbl(const ExprPtr& e)
{
    ZIRIA_ASSERT(e->type()->isDouble(), "compileDbl on non-double type");
    switch (e->kind()) {
      case ExprKind::Const: {
        double v = static_cast<const ConstExpr&>(*e).value().asDouble();
        return [v](Frame&) { return v; };
      }
      case ExprKind::Var: {
        size_t off = layout_.add(static_cast<const VarExpr&>(*e).var());
        return [off](Frame& f) { return zr_ldd(f.at(off)); };
      }
      case ExprKind::Bin: {
        const auto& b = static_cast<const BinExpr&>(*e);
        EvalDbl la = compileDbl(b.lhs());
        EvalDbl ra = compileDbl(b.rhs());
        switch (b.op()) {
          case BinOp::Add:
            return [la, ra](Frame& f) {
                double a = la(f);
                double b = ra(f);
                return a + b;
            };
          case BinOp::Sub:
            return [la, ra](Frame& f) {
                double a = la(f);
                double b = ra(f);
                return a - b;
            };
          case BinOp::Mul:
            return [la, ra](Frame& f) {
                double a = la(f);
                double b = ra(f);
                return a * b;
            };
          case BinOp::Div:
            return [la, ra](Frame& f) {
                double a = la(f);
                double b = ra(f);
                return a / b;
            };
          default:
            panic("compileDbl: unhandled binop");
        }
      }
      case ExprKind::Un: {
        const auto& u = static_cast<const UnExpr&>(*e);
        ZIRIA_ASSERT(u.op() == UnOp::Neg);
        EvalDbl sa = compileDbl(u.sub());
        return [sa](Frame& f) { return -sa(f); };
      }
      case ExprKind::Cast: {
        const auto& c = static_cast<const CastExpr&>(*e);
        ZIRIA_ASSERT(c.sub()->type()->isIntegral());
        EvalInt sa = compileInt(c.sub());
        return [sa](Frame& f) { return static_cast<double>(sa(f)); };
      }
      case ExprKind::Index:
      case ExprKind::Field: {
        RefFn r = compileRef(e);
        return [r](Frame& f) { return zr_ldd(r(f)); };
      }
      case ExprKind::Call:
        return compileCallDbl(static_cast<const CallExpr&>(*e));
      case ExprKind::Cond: {
        const auto& c = static_cast<const CondExpr&>(*e);
        EvalInt cc = compileInt(c.cond());
        EvalDbl tt = compileDbl(c.thenE());
        EvalDbl ee = compileDbl(c.elseE());
        return [cc, tt, ee](Frame& f) { return cc(f) ? tt(f) : ee(f); };
      }
      default:
        panic("compileDbl: unexpected expr kind");
    }
}

// -----------------------------------------------------------------------
// Generic evaluation into a destination buffer
// -----------------------------------------------------------------------

EvalInto
ExprCompiler::compileInto(const ExprPtr& e)
{
    const TypePtr& t = e->type();
    if (t->isUnit()) {
        if (e->kind() == ExprKind::Call)
            return compileCallInto(static_cast<const CallExpr&>(*e));
        return [](Frame&, uint8_t*) {};
    }
    if (t->isIntegral())
        return makeStore(t->kind(), compileInt(e));
    if (t->isDouble()) {
        EvalDbl d = compileDbl(e);
        return [d](Frame& f, uint8_t* dst) { zr_std(dst, d(f)); };
    }
    if (t->isComplex()) {
        int cw = complexBits(t->kind());
        switch (e->kind()) {
          case ExprKind::Bin: {
            const auto& b = static_cast<const BinExpr&>(*e);
            EvalInto la = compileInto(b.lhs());
            if (b.op() == BinOp::Shl || b.op() == BinOp::Shr) {
                EvalInt sh = compileInt(b.rhs());
                bool left = b.op() == BinOp::Shl;
                return [la, sh, left, cw](Frame& f, uint8_t* dst) {
                    uint8_t ba[8];
                    la(f, ba);
                    ZrC32 a = zr_ldc(cw, ba);
                    int64_t s = sh(f);
                    zr_stc(cw, dst, left ? zr_cshl(a, s) : zr_cshr(a, s));
                };
            }
            EvalInto ra = compileInto(b.rhs());
            BinOp op = b.op();
            return [la, ra, op, cw](Frame& f, uint8_t* dst) {
                uint8_t ba[8], bb[8];
                la(f, ba);
                ra(f, bb);
                ZrC32 a = zr_ldc(cw, ba);
                ZrC32 c = zr_ldc(cw, bb);
                switch (op) {
                  case BinOp::Add:
                    zr_stc(cw, dst, zr_cadd(a, c));
                    return;
                  case BinOp::Sub:
                    zr_stc(cw, dst, zr_csub(a, c));
                    return;
                  case BinOp::Mul:
                    zr_stc(cw, dst, zr_cmul(a, c));
                    return;
                  default:
                    zr_stc(cw, dst, zr_cunsupported(&kHostTraps));
                }
            };
          }
          case ExprKind::Un: {
            const auto& u = static_cast<const UnExpr&>(*e);
            ZIRIA_ASSERT(u.op() == UnOp::Neg);
            EvalInto sa = compileInto(u.sub());
            return [sa, cw](Frame& f, uint8_t* dst) {
                uint8_t ba[8];
                sa(f, ba);
                zr_stc(cw, dst, zr_cneg(zr_ldc(cw, ba)));
            };
          }
          case ExprKind::Cast: {
            const auto& c = static_cast<const CastExpr&>(*e);
            ZIRIA_ASSERT(c.sub()->type()->isComplex());
            EvalInto sa = compileInto(c.sub());
            int fw = complexBits(c.sub()->type()->kind());
            if (cw == 16) {
                return [sa, fw](Frame& f, uint8_t* dst) {
                    uint8_t ba[8];
                    sa(f, ba);
                    zr_stc(16, dst, zr_csat16(zr_ldc(fw, ba)));
                };
            }
            return [sa, fw](Frame& f, uint8_t* dst) {
                uint8_t ba[8];
                sa(f, ba);
                zr_stc(32, dst, zr_ldc(fw, ba));
            };
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
        return [bytes](Frame&, uint8_t* dst) {
            std::memcpy(dst, bytes.data(), bytes.size());
        };
      }
      case ExprKind::Var:
      case ExprKind::Index:
      case ExprKind::Slice:
      case ExprKind::Field: {
        RefFn r = compileRef(e);
        size_t w = t->byteWidth();
        return [r, w](Frame& f, uint8_t* dst) {
            std::memmove(dst, r(f), w);
        };
      }
      case ExprKind::ArrayLit: {
        const auto& a = static_cast<const ArrayLitExpr&>(*e);
        std::vector<EvalInto> elems;
        elems.reserve(a.elems().size());
        for (const auto& el : a.elems())
            elems.push_back(compileInto(el));
        size_t ew = t->elem()->byteWidth();
        return [elems, ew](Frame& f, uint8_t* dst) {
            uint8_t* p = dst;
            for (const auto& el : elems) {
                el(f, p);
                p += ew;
            }
        };
      }
      case ExprKind::StructLit: {
        const auto& sl = static_cast<const StructLitExpr&>(*e);
        std::vector<EvalInto> fields;
        std::vector<size_t> widths;
        for (size_t i = 0; i < sl.fieldExprs().size(); ++i) {
            fields.push_back(compileInto(sl.fieldExprs()[i]));
            widths.push_back(t->fields()[i].second->byteWidth());
        }
        return [fields, widths](Frame& f, uint8_t* dst) {
            uint8_t* p = dst;
            for (size_t i = 0; i < fields.size(); ++i) {
                fields[i](f, p);
                p += widths[i];
            }
        };
      }
      case ExprKind::Call:
        return compileCallInto(static_cast<const CallExpr&>(*e));
      case ExprKind::Cond: {
        const auto& c = static_cast<const CondExpr&>(*e);
        EvalInt cc = compileInt(c.cond());
        EvalInto tt = compileInto(c.thenE());
        EvalInto ee = compileInto(c.elseE());
        return [cc, tt, ee](Frame& f, uint8_t* dst) {
            if (cc(f))
                tt(f, dst);
            else
                ee(f, dst);
        };
      }
      default:
        panicf("compileInto: unexpected expr kind for ", t->show(), ": ",
               showExpr(e));
    }
}

// -----------------------------------------------------------------------
// References and lvalues
// -----------------------------------------------------------------------

RefFn
ExprCompiler::compileRef(const ExprPtr& e)
{
    switch (e->kind()) {
      case ExprKind::Var:
      case ExprKind::Index:
      case ExprKind::Slice:
      case ExprKind::Field:
        return compileAddr(e);
      default: {
        // Materialize the rvalue into per-closure scratch.
        EvalInto ev = compileInto(e);
        auto scratch =
            std::make_shared<std::vector<uint8_t>>(e->type()->byteWidth());
        return [ev, scratch](Frame& f) {
            ev(f, scratch->data());
            return scratch->data();
        };
      }
    }
}

RefFn
ExprCompiler::compileAddr(const ExprPtr& e)
{
    switch (e->kind()) {
      case ExprKind::Var: {
        size_t off = layout_.add(static_cast<const VarExpr&>(*e).var());
        return [off](Frame& f) { return f.at(off); };
      }
      case ExprKind::Index: {
        const auto& i = static_cast<const IndexExpr&>(*e);
        RefFn base = compileRef(i.arr());
        EvalInt ix = compileInt(i.idx());
        size_t w = e->type()->byteWidth();
        long n = i.arr()->type()->len();
        return [base, ix, w, n](Frame& f) {
            int64_t k = ix(f);
            zr_check_index(&kHostTraps, k, n);
            return base(f) + static_cast<size_t>(k) * w;
        };
      }
      case ExprKind::Slice: {
        const auto& s = static_cast<const SliceExpr&>(*e);
        RefFn base = compileRef(s.arr());
        EvalInt bx = compileInt(s.base());
        size_t w = s.arr()->type()->elem()->byteWidth();
        long n = s.arr()->type()->len();
        long len = s.sliceLen();
        return [base, bx, w, n, len](Frame& f) {
            int64_t k = bx(f);
            zr_check_slice(&kHostTraps, k, len, n);
            return base(f) + static_cast<size_t>(k) * w;
        };
      }
      case ExprKind::Field: {
        const auto& fe = static_cast<const FieldExpr&>(*e);
        RefFn base = compileRef(fe.rec());
        long off = fe.rec()->type()->fieldOffset(fe.field());
        ZIRIA_ASSERT(off >= 0);
        return [base, off](Frame& f) {
            return base(f) + static_cast<size_t>(off);
        };
      }
      default:
        fatalf("not an lvalue: ", showExpr(e));
    }
}

// -----------------------------------------------------------------------
// Statements
// -----------------------------------------------------------------------

Action
ExprCompiler::compileStmt(const StmtPtr& s)
{
    switch (s->kind()) {
      case StmtKind::Assign: {
        const auto& a = static_cast<const AssignStmt&>(*s);
        RefFn addr = compileAddr(a.lhs());
        const TypePtr& t = a.lhs()->type();
        EvalInto rhs = compileInto(a.rhs());
        if (t->isScalar())
            return [addr, rhs](Frame& f) { rhs(f, addr(f)); };
        // Aggregates go through scratch so self-overlapping assignments
        // (e.g. scrmbl_st[0:5] := scrmbl_st[1:6]) behave like memmove.
        size_t w = t->byteWidth();
        auto scratch = std::make_shared<std::vector<uint8_t>>(w);
        return [addr, rhs, w, scratch](Frame& f) {
            rhs(f, scratch->data());
            std::memcpy(addr(f), scratch->data(), w);
        };
      }
      case StmtKind::If: {
        const auto& i = static_cast<const IfStmt&>(*s);
        EvalInt c = compileInt(i.cond());
        Action t = compileStmts(i.thenStmts());
        Action e = compileStmts(i.elseStmts());
        return [c, t, e](Frame& f) {
            if (c(f))
                t(f);
            else
                e(f);
        };
      }
      case StmtKind::For: {
        const auto& fo = static_cast<const ForStmt&>(*s);
        size_t ivOff = layout_.add(fo.inductionVar());
        int ivw = intBits(fo.inductionVar()->type->kind());
        EvalInt lo = compileInt(fo.lo());
        EvalInt hi = compileInt(fo.hi());
        Action body = compileStmts(fo.body());
        return [ivOff, ivw, lo, hi, body](Frame& f) {
            int64_t h = hi(f);
            for (int64_t i = lo(f); i < h; ++i) {
                zr_st(ivw, f.at(ivOff), i);
                body(f);
            }
        };
      }
      case StmtKind::While: {
        const auto& w = static_cast<const WhileStmt&>(*s);
        EvalInt c = compileInt(w.cond());
        Action body = compileStmts(w.body());
        return [c, body](Frame& f) {
            while (c(f))
                body(f);
        };
      }
      case StmtKind::VarDecl: {
        const auto& d = static_cast<const VarDeclStmt&>(*s);
        size_t off = layout_.add(d.var());
        size_t w = d.var()->type->byteWidth();
        if (d.init()) {
            EvalInto init = compileInto(d.init());
            return [off, init](Frame& f) { init(f, f.at(off)); };
        }
        return [off, w](Frame& f) { std::memset(f.at(off), 0, w); };
      }
      case StmtKind::Eval: {
        const auto& ev = static_cast<const EvalStmt&>(*s);
        size_t w = ev.expr()->type()->byteWidth();
        EvalInto e = compileInto(ev.expr());
        auto scratch = std::make_shared<std::vector<uint8_t>>(w);
        return [e, scratch](Frame& f) { e(f, scratch->data()); };
      }
    }
    panic("compileStmt: unknown stmt kind");
}

Action
ExprCompiler::compileStmts(const StmtList& stmts)
{
    if (stmts.empty())
        return [](Frame&) {};
    if (stmts.size() == 1)
        return compileStmt(stmts[0]);
    std::vector<Action> acts;
    acts.reserve(stmts.size());
    for (const auto& s : stmts)
        acts.push_back(compileStmt(s));
    return [acts](Frame& f) {
        for (const auto& a : acts)
            a(f);
    };
}

// -----------------------------------------------------------------------
// Calls
// -----------------------------------------------------------------------

ExprCompiler::PreparedCall
ExprCompiler::prepareCall(const CallExpr& c)
{
    const FunRef& f = c.fun();
    ZIRIA_ASSERT(!f->isNative());

    // By-ref parameters are replaced by the argument lvalue (inlining by
    // substitution); by-value parameters get fresh slots per call site.
    std::vector<ExprPtr> substArgs(c.args().size());
    for (size_t i = 0; i < c.args().size(); ++i) {
        if (f->paramByRef(i))
            substArgs[i] = c.args()[i];
    }
    InlinedFun inl = inlineFun(f, substArgs);

    std::vector<Action> setups;
    for (size_t i = 0; i < c.args().size(); ++i) {
        if (f->paramByRef(i))
            continue;
        size_t off = layout_.add(inl.params[i]);
        EvalInto argv = compileInto(c.args()[i]);
        setups.push_back([off, argv](Frame& fr) { argv(fr, fr.at(off)); });
    }

    PreparedCall out;
    out.setup = [setups](Frame& fr) {
        for (const auto& s : setups)
            s(fr);
    };
    out.body = compileStmts(inl.body);
    out.ret = inl.ret;
    return out;
}

EvalInto
ExprCompiler::compileCallInto(const CallExpr& c)
{
    const FunRef& f = c.fun();
    if (f->isNative()) {
        std::vector<RefFn> argRefs;
        argRefs.reserve(c.args().size());
        for (const auto& a : c.args())
            argRefs.push_back(compileRef(a));
        NativeFn nf = f->native;
        size_t n = argRefs.size();
        ZIRIA_ASSERT(n <= 16, "too many native function arguments");
        return [argRefs, nf, n](Frame& fr, uint8_t* dst) {
            const uint8_t* ptrs[16];
            for (size_t i = 0; i < n; ++i)
                ptrs[i] = argRefs[i](fr);
            nf(ptrs, dst);
        };
    }
    PreparedCall pc = prepareCall(c);
    if (!pc.ret) {
        Action setup = pc.setup;
        Action body = pc.body;
        return [setup, body](Frame& fr, uint8_t*) {
            setup(fr);
            body(fr);
        };
    }
    EvalInto retv = compileInto(pc.ret);
    Action setup = pc.setup;
    Action body = pc.body;
    return [setup, body, retv](Frame& fr, uint8_t* dst) {
        setup(fr);
        body(fr);
        retv(fr, dst);
    };
}

EvalInt
ExprCompiler::compileCallInt(const CallExpr& c)
{
    const FunRef& f = c.fun();
    if (f->isNative()) {
        EvalInto callFn = compileCallInto(c);
        int w = intBits(c.type()->kind());
        return [callFn, w](Frame& fr) {
            uint8_t buf[8];
            callFn(fr, buf);
            return zr_ld(w, buf);
        };
    }
    PreparedCall pc = prepareCall(c);
    ZIRIA_ASSERT(pc.ret != nullptr, "int-typed call with no return");
    EvalInt retv = compileInt(pc.ret);
    Action setup = pc.setup;
    Action body = pc.body;
    return [setup, body, retv](Frame& fr) {
        setup(fr);
        body(fr);
        return retv(fr);
    };
}

EvalDbl
ExprCompiler::compileCallDbl(const CallExpr& c)
{
    const FunRef& f = c.fun();
    if (f->isNative()) {
        EvalInto callFn = compileCallInto(c);
        return [callFn](Frame& fr) {
            uint8_t buf[8];
            callFn(fr, buf);
            return zr_ldd(buf);
        };
    }
    PreparedCall pc = prepareCall(c);
    ZIRIA_ASSERT(pc.ret != nullptr, "double-typed call with no return");
    EvalDbl retv = compileDbl(pc.ret);
    Action setup = pc.setup;
    Action body = pc.body;
    return [setup, body, retv](Frame& fr) {
        setup(fr);
        body(fr);
        return retv(fr);
    };
}

// -----------------------------------------------------------------------
// Kernels
// -----------------------------------------------------------------------

CompiledKernel
ExprCompiler::compileKernel(const FunRef& f)
{
    ZIRIA_ASSERT(!f->isNative(), "compileKernel on a native function");
    for (size_t i = 0; i < f->params.size(); ++i)
        ZIRIA_ASSERT(!f->paramByRef(i),
                     "compileKernel: by-ref parameters unsupported");
    InlinedFun inl = inlineFun(f);
    CompiledKernel k;
    for (const auto& p : inl.params) {
        k.paramOffsets.push_back(layout_.add(p));
        k.paramWidths.push_back(p->type->byteWidth());
    }
    k.body = compileStmts(inl.body);
    k.bodySrc = inl.body;
    if (inl.ret) {
        k.retInto = compileInto(inl.ret);
        k.retWidth = inl.ret->type()->byteWidth();
        k.retSrc = inl.ret;
    }
    return k;
}

} // namespace ziria
