#include "zopt/passes.h"

#include <cmath>

#include "support/panic.h"
#include "zast/builder.h"
#include "zexpr/compile_expr.h"

namespace ziria {

namespace {

bool
isConst(const ExprPtr& e)
{
    return e->kind() == ExprKind::Const;
}

const Value&
constVal(const ExprPtr& e)
{
    return static_cast<const ConstExpr&>(*e).value();
}

/**
 * Fold integral/double/bool binary ops over constants.  Integer
 * arithmetic goes through the zr_sem.h functions the backends run; an
 * operation that traps there is left for run time.
 */
ExprPtr
foldBin(const BinExpr& b, const ExprPtr& l, const ExprPtr& r)
{
    const TypePtr& ot = l->type();
    const TypePtr& rt = b.type();
    if (ot->isIntegral() && (rt->isIntegral() || rt->isBool())) {
        int64_t a = constVal(l).asInt();
        int64_t c = constVal(r).asInt();
        int w = intBits(rt->kind());
        int64_t v = 0;
        try {
            switch (b.op()) {
              case BinOp::Add: v = zr_add(w, a, c); break;
              case BinOp::Sub: v = zr_sub(w, a, c); break;
              case BinOp::Mul: v = zr_mul(w, a, c); break;
              case BinOp::Div: v = zr_div(hostTraps(), w, a, c); break;
              case BinOp::Rem: v = zr_rem(hostTraps(), w, a, c); break;
              case BinOp::Shl: v = zr_shl(w, a, c); break;
              case BinOp::Shr: v = zr_shr(w, a, c); break;
              case BinOp::BAnd: v = a & c; break;
              case BinOp::BOr: v = a | c; break;
              case BinOp::BXor: v = a ^ c; break;
              case BinOp::Eq: v = a == c; break;
              case BinOp::Ne: v = a != c; break;
              case BinOp::Lt: v = a < c; break;
              case BinOp::Le: v = a <= c; break;
              case BinOp::Gt: v = a > c; break;
              case BinOp::Ge: v = a >= c; break;
              case BinOp::LAnd: v = a && c; break;
              case BinOp::LOr: v = a || c; break;
            }
        } catch (const FatalError&) {
            return nullptr;
        }
        return zb::cVal(Value::intOf(rt, v));
    }
    if (ot->isDouble()) {
        double a = constVal(l).asDouble();
        double c = constVal(r).asDouble();
        switch (b.op()) {
          case BinOp::Add: return zb::cDouble(a + c);
          case BinOp::Sub: return zb::cDouble(a - c);
          case BinOp::Mul: return zb::cDouble(a * c);
          case BinOp::Div: return zb::cDouble(a / c);
          case BinOp::Eq: return zb::cBool(a == c);
          case BinOp::Ne: return zb::cBool(a != c);
          case BinOp::Lt: return zb::cBool(a < c);
          case BinOp::Le: return zb::cBool(a <= c);
          case BinOp::Gt: return zb::cBool(a > c);
          case BinOp::Ge: return zb::cBool(a >= c);
          default: return nullptr;
        }
    }
    return nullptr;
}

StmtList foldStmtList(const StmtList& in);

StmtPtr
foldStmt(const StmtPtr& s)
{
    switch (s->kind()) {
      case StmtKind::Assign: {
        const auto& a = static_cast<const AssignStmt&>(*s);
        return std::make_shared<AssignStmt>(foldExpr(a.lhs()),
                                            foldExpr(a.rhs()));
      }
      case StmtKind::If: {
        const auto& i = static_cast<const IfStmt&>(*s);
        ExprPtr c = foldExpr(i.cond());
        return std::make_shared<IfStmt>(std::move(c),
                                        foldStmtList(i.thenStmts()),
                                        foldStmtList(i.elseStmts()));
      }
      case StmtKind::For: {
        const auto& f = static_cast<const ForStmt&>(*s);
        return std::make_shared<ForStmt>(f.inductionVar(),
                                         foldExpr(f.lo()),
                                         foldExpr(f.hi()),
                                         foldStmtList(f.body()));
      }
      case StmtKind::While: {
        const auto& w = static_cast<const WhileStmt&>(*s);
        return std::make_shared<WhileStmt>(foldExpr(w.cond()),
                                           foldStmtList(w.body()));
      }
      case StmtKind::VarDecl: {
        const auto& d = static_cast<const VarDeclStmt&>(*s);
        return std::make_shared<VarDeclStmt>(
            d.var(), d.init() ? foldExpr(d.init()) : nullptr);
      }
      case StmtKind::Eval:
        return std::make_shared<EvalStmt>(
            foldExpr(static_cast<const EvalStmt&>(*s).expr()));
    }
    panic("foldStmt: unknown kind");
}

StmtList
foldStmtList(const StmtList& in)
{
    StmtList out;
    out.reserve(in.size());
    for (const auto& s : in) {
        // Statically dead if-branches are dropped entirely.
        if (s->kind() == StmtKind::If) {
            const auto& i = static_cast<const IfStmt&>(*s);
            ExprPtr c = foldExpr(i.cond());
            if (isConst(c)) {
                const StmtList& br = constVal(c).asInt()
                    ? i.thenStmts()
                    : i.elseStmts();
                for (const auto& b : foldStmtList(br))
                    out.push_back(b);
                continue;
            }
        }
        out.push_back(foldStmt(s));
    }
    return out;
}

} // namespace

ExprPtr
foldExpr(const ExprPtr& e)
{
    switch (e->kind()) {
      case ExprKind::Const:
      case ExprKind::Var:
        return e;
      case ExprKind::Bin: {
        const auto& b = static_cast<const BinExpr&>(*e);
        ExprPtr l = foldExpr(b.lhs());
        ExprPtr r = foldExpr(b.rhs());
        if (isConst(l) && isConst(r)) {
            if (ExprPtr v = foldBin(b, l, r))
                return v;
        }
        return std::make_shared<BinExpr>(b.type(), b.op(), std::move(l),
                                         std::move(r));
      }
      case ExprKind::Un: {
        const auto& u = static_cast<const UnExpr&>(*e);
        ExprPtr s = foldExpr(u.sub());
        if (isConst(s) && s->type()->isIntegral()) {
            int64_t v = constVal(s).asInt();
            int w = intBits(u.type()->kind());
            switch (u.op()) {
              case UnOp::Neg:
                return zb::cVal(Value::intOf(u.type(), zr_neg(w, v)));
              case UnOp::BNot:
                return zb::cVal(Value::intOf(u.type(), zr_bnot(w, v)));
              case UnOp::LNot:
                return zb::cBool(!v);
            }
        }
        return std::make_shared<UnExpr>(u.type(), u.op(), std::move(s));
      }
      case ExprKind::Cast: {
        const auto& c = static_cast<const CastExpr&>(*e);
        ExprPtr s = foldExpr(c.sub());
        if (isConst(s)) {
            if (s->type()->isIntegral() && c.type()->isIntegral()) {
                return zb::cVal(Value::intOf(
                    c.type(), zr_trunc(intBits(c.type()->kind()),
                                       constVal(s).asInt())));
            }
            if (s->type()->isIntegral() && c.type()->isDouble()) {
                return zb::cDouble(
                    static_cast<double>(constVal(s).asInt()));
            }
        }
        return std::make_shared<CastExpr>(c.type(), std::move(s));
      }
      case ExprKind::Index: {
        const auto& i = static_cast<const IndexExpr&>(*e);
        ExprPtr a = foldExpr(i.arr());
        ExprPtr ix = foldExpr(i.idx());
        if (isConst(a) && isConst(ix)) {
            int64_t k = constVal(ix).asInt();
            if (k >= 0 && k < a->type()->len())
                return zb::cVal(constVal(a).at(static_cast<int>(k)));
        }
        return std::make_shared<IndexExpr>(i.type(), std::move(a),
                                           std::move(ix));
      }
      case ExprKind::Slice: {
        const auto& s = static_cast<const SliceExpr&>(*e);
        return std::make_shared<SliceExpr>(s.type(), foldExpr(s.arr()),
                                           foldExpr(s.base()),
                                           s.sliceLen());
      }
      case ExprKind::Field: {
        const auto& f = static_cast<const FieldExpr&>(*e);
        ExprPtr r = foldExpr(f.rec());
        if (isConst(r))
            return zb::cVal(constVal(r).field(f.field()));
        return std::make_shared<FieldExpr>(f.type(), std::move(r),
                                           f.field());
      }
      case ExprKind::Call: {
        const auto& c = static_cast<const CallExpr&>(*e);
        std::vector<ExprPtr> args;
        for (const auto& a : c.args())
            args.push_back(foldExpr(a));
        return std::make_shared<CallExpr>(c.type(), c.fun(),
                                          std::move(args));
      }
      case ExprKind::ArrayLit: {
        const auto& a = static_cast<const ArrayLitExpr&>(*e);
        std::vector<ExprPtr> elems;
        bool allConst = true;
        for (const auto& el : a.elems()) {
            elems.push_back(foldExpr(el));
            allConst = allConst && isConst(elems.back());
        }
        if (allConst) {
            std::vector<Value> vals;
            for (const auto& el : elems)
                vals.push_back(constVal(el));
            return zb::cVal(
                Value::arrayOf(a.type()->elem(), vals));
        }
        return std::make_shared<ArrayLitExpr>(a.type(), std::move(elems));
      }
      case ExprKind::StructLit: {
        const auto& sl = static_cast<const StructLitExpr&>(*e);
        std::vector<ExprPtr> fields;
        for (const auto& fe : sl.fieldExprs())
            fields.push_back(foldExpr(fe));
        return std::make_shared<StructLitExpr>(sl.type(),
                                               std::move(fields));
      }
      case ExprKind::Cond: {
        const auto& c = static_cast<const CondExpr&>(*e);
        ExprPtr g = foldExpr(c.cond());
        if (isConst(g)) {
            return constVal(g).asInt() ? foldExpr(c.thenE())
                                       : foldExpr(c.elseE());
        }
        return std::make_shared<CondExpr>(c.type(), std::move(g),
                                          foldExpr(c.thenE()),
                                          foldExpr(c.elseE()));
      }
    }
    panic("foldExpr: unknown kind");
}

CompPtr
foldComp(const CompPtr& c)
{
    switch (c->kind()) {
      case CompKind::Take:
      case CompKind::TakeMany:
      case CompKind::Map:
      case CompKind::Filter:
        return c;
      case CompKind::Emit:
        return std::make_shared<EmitComp>(
            foldExpr(static_cast<const EmitComp&>(*c).expr()));
      case CompKind::Emits:
        return std::make_shared<EmitsComp>(
            foldExpr(static_cast<const EmitsComp&>(*c).expr()));
      case CompKind::Return: {
        const auto& r = static_cast<const ReturnComp&>(*c);
        return std::make_shared<ReturnComp>(
            foldStmtList(r.stmts()),
            r.ret() ? foldExpr(r.ret()) : nullptr);
      }
      case CompKind::Seq: {
        const auto& s = static_cast<const SeqComp&>(*c);
        std::vector<SeqComp::Item> items;
        for (const auto& it : s.items())
            items.push_back(SeqComp::Item{it.bind, foldComp(it.comp)});
        return std::make_shared<SeqComp>(std::move(items));
      }
      case CompKind::Pipe: {
        const auto& p = static_cast<const PipeComp&>(*c);
        CompPtr l = foldComp(p.left());
        CompPtr r = foldComp(p.right());
        return std::make_shared<PipeComp>(std::move(l), std::move(r),
                                          p.threaded());
      }
      case CompKind::If: {
        const auto& i = static_cast<const IfComp&>(*c);
        ExprPtr g = foldExpr(i.cond());
        if (g->kind() == ExprKind::Const) {
            bool taken = constVal(g).asInt() != 0;
            if (taken)
                return foldComp(i.thenC());
            if (i.elseC())
                return foldComp(i.elseC());
            return zb::ret(zb::cUnit());
        }
        CompPtr t = foldComp(i.thenC());
        CompPtr e = i.elseC() ? foldComp(i.elseC()) : nullptr;
        return std::make_shared<IfComp>(std::move(g), std::move(t),
                                        std::move(e));
      }
      case CompKind::Repeat: {
        const auto& r = static_cast<const RepeatComp&>(*c);
        return std::make_shared<RepeatComp>(foldComp(r.body()), r.hint());
      }
      case CompKind::Times: {
        const auto& t = static_cast<const TimesComp&>(*c);
        return std::make_shared<TimesComp>(foldExpr(t.count()),
                                           t.inductionVar(),
                                           foldComp(t.body()));
      }
      case CompKind::While: {
        const auto& w = static_cast<const WhileComp&>(*c);
        return std::make_shared<WhileComp>(foldExpr(w.cond()),
                                           foldComp(w.body()));
      }
      case CompKind::LetVar: {
        const auto& l = static_cast<const LetVarComp&>(*c);
        return std::make_shared<LetVarComp>(
            l.var(), l.init() ? foldExpr(l.init()) : nullptr,
            foldComp(l.body()));
      }
      case CompKind::Native: {
        const auto& n = static_cast<const NativeComp&>(*c);
        std::vector<ExprPtr> args;
        for (const auto& a : n.args())
            args.push_back(foldExpr(a));
        return std::make_shared<NativeComp>(n.spec(), std::move(args));
      }
      case CompKind::CallComp: {
        const auto& cc = static_cast<const CallCompComp&>(*c);
        std::vector<ExprPtr> args;
        for (const auto& a : cc.args())
            args.push_back(foldExpr(a));
        return std::make_shared<CallCompComp>(cc.fun(), std::move(args));
      }
    }
    panic("foldComp: unknown kind");
}

} // namespace ziria
