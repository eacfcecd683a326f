#include "zopt/passes.h"

#include <atomic>

#include "support/panic.h"
#include "zast/builder.h"
#include "zvect/simple_comp.h"

namespace ziria {

namespace {

std::atomic<int> autoMapCounter{1};

bool callsNoLut(const StmtList& stmts);

/**
 * Does @p e call a function annotated noLut?  Callee bodies are not
 * searched: `map f` itself LUTs unless f carries the annotation.
 */
bool
callsNoLut(const ExprPtr& e)
{
    if (!e)
        return false;
    switch (e->kind()) {
      case ExprKind::Const:
      case ExprKind::Var:
        return false;
      case ExprKind::Bin: {
        const auto& b = static_cast<const BinExpr&>(*e);
        return callsNoLut(b.lhs()) || callsNoLut(b.rhs());
      }
      case ExprKind::Un:
        return callsNoLut(static_cast<const UnExpr&>(*e).sub());
      case ExprKind::Cast:
        return callsNoLut(static_cast<const CastExpr&>(*e).sub());
      case ExprKind::Index: {
        const auto& i = static_cast<const IndexExpr&>(*e);
        return callsNoLut(i.arr()) || callsNoLut(i.idx());
      }
      case ExprKind::Slice: {
        const auto& s = static_cast<const SliceExpr&>(*e);
        return callsNoLut(s.arr()) || callsNoLut(s.base());
      }
      case ExprKind::Field:
        return callsNoLut(static_cast<const FieldExpr&>(*e).rec());
      case ExprKind::Call: {
        const auto& c = static_cast<const CallExpr&>(*e);
        if (c.fun()->noLut)
            return true;
        for (const auto& a : c.args())
            if (callsNoLut(a))
                return true;
        return false;
      }
      case ExprKind::ArrayLit:
        for (const auto& el : static_cast<const ArrayLitExpr&>(*e).elems())
            if (callsNoLut(el))
                return true;
        return false;
      case ExprKind::StructLit:
        for (const auto& fe :
             static_cast<const StructLitExpr&>(*e).fieldExprs())
            if (callsNoLut(fe))
                return true;
        return false;
      case ExprKind::Cond: {
        const auto& c = static_cast<const CondExpr&>(*e);
        return callsNoLut(c.cond()) || callsNoLut(c.thenE()) ||
               callsNoLut(c.elseE());
      }
    }
    return false;
}

bool
callsNoLut(const StmtList& stmts)
{
    for (const auto& s : stmts) {
        switch (s->kind()) {
          case StmtKind::Assign: {
            const auto& a = static_cast<const AssignStmt&>(*s);
            if (callsNoLut(a.lhs()) || callsNoLut(a.rhs()))
                return true;
            break;
          }
          case StmtKind::If: {
            const auto& i = static_cast<const IfStmt&>(*s);
            if (callsNoLut(i.cond()) || callsNoLut(i.thenStmts()) ||
                callsNoLut(i.elseStmts()))
                return true;
            break;
          }
          case StmtKind::For: {
            const auto& f = static_cast<const ForStmt&>(*s);
            if (callsNoLut(f.lo()) || callsNoLut(f.hi()) ||
                callsNoLut(f.body()))
                return true;
            break;
          }
          case StmtKind::While: {
            const auto& w = static_cast<const WhileStmt&>(*s);
            if (callsNoLut(w.cond()) || callsNoLut(w.body()))
                return true;
            break;
          }
          case StmtKind::VarDecl:
            if (callsNoLut(static_cast<const VarDeclStmt&>(*s).init()))
                return true;
            break;
          case StmtKind::Eval:
            if (callsNoLut(static_cast<const EvalStmt&>(*s).expr()))
                return true;
            break;
        }
    }
    return false;
}

/**
 * A kernel the passes build around calls to a noLut function (the
 * vectorizer's repeat over `map f`, a fused `f_then_g`) is itself never
 * LUT'd: the annotation survives the rewrite.
 */
FunRef
kernelFun(std::string name, VarRef param, StmtList body, ExprPtr ret)
{
    bool noLut = callsNoLut(body) || callsNoLut(ret);
    FunRef f = zb::fun(std::move(name), {std::move(param)}, std::move(body),
                       std::move(ret));
    std::const_pointer_cast<FunDef>(f)->noLut = noLut;
    return f;
}

/**
 * Attempt to turn a repeat body into a map kernel.  The body must take
 * exactly one element and emit exactly one element per iteration.
 */
FunRef
tryMakeMapFun(const CompPtr& body)
{
    auto norm = normalizeComp(body, 4096);
    if (!norm)
        return nullptr;
    const SimpleComp& sc = *norm;
    if (sc.takes != 1 || sc.emits != 1)
        return nullptr;
    if (sc.retExpr && !sc.retExpr->type()->isUnit())
        return nullptr;

    // Build the kernel: statements up to the emit; the emitted value is
    // staged into a scratch temp when statements follow it.
    VarRef param;
    StmtList stmts;
    ExprPtr retE;
    VarRef retTmp;
    bool sawTake = false;
    bool sawEmit = false;
    for (const auto& st : sc.steps) {
        switch (st.kind) {
          case SimpleStep::Kind::TakeBind:
            if (sawTake)
                return nullptr;
            sawTake = true;
            // Statements before the take would run before input arrives
            // in the repeat form; as a map they run after.  That is only
            // observable through state shared with other components,
            // which the >>> race rule forbids, so reordering is safe.
            if (st.intoLhs) {
                // `takes(T, 1)` normalizes to a take whose destination
                // is an lvalue (a[0]); route the parameter into it.
                param = freshVar("x", st.takeType);
                stmts.push_back(zb::assign(st.intoLhs, zb::var(param)));
            } else {
                param = st.bind ? st.bind : freshVar("x", st.takeType);
            }
            break;
          case SimpleStep::Kind::Emit:
            sawEmit = true;
            retE = st.expr;
            break;
          case SimpleStep::Kind::Do:
            if (sawEmit && retE && !retTmp) {
                // Stage the output before trailing state updates.
                retTmp = freshVar("map_out", retE->type());
                retTmp->scratch = true;
                stmts.push_back(zb::sDecl(retTmp, retE));
                retE = zb::var(retTmp);
            }
            for (const auto& s : st.stmts)
                stmts.push_back(s);
            break;
        }
    }
    if (!sawTake || !sawEmit || !retE)
        return nullptr;

    // Demote the vectorizer's per-iteration staging variables to kernel
    // locals so they stay out of auto-LUT keys.
    std::vector<VarRef> frees;
    freeVarsStmts(stmts, frees);
    freeVarsExpr(retE, frees);
    StmtList decls;
    for (const auto& v : frees) {
        if (v->scratch && v.get() != param.get())
            decls.push_back(zb::sDecl(v, nullptr));
    }
    StmtList body;
    body.reserve(decls.size() + stmts.size());
    for (auto& d : decls)
        body.push_back(std::move(d));
    for (auto& s : stmts)
        body.push_back(std::move(s));

    std::string name =
        "auto_map_" + std::to_string(autoMapCounter.fetch_add(1));
    return kernelFun(std::move(name), param, std::move(body), retE);
}

CompPtr
amap(const CompPtr& c, MapStats* stats)
{
    switch (c->kind()) {
      case CompKind::Repeat: {
        const auto& r = static_cast<const RepeatComp&>(*c);
        if (FunRef f = tryMakeMapFun(r.body())) {
            if (stats)
                ++stats->autoMapped;
            return zb::mapc(f);
        }
        return std::make_shared<RepeatComp>(amap(r.body(), stats),
                                            r.hint());
      }
      case CompKind::Seq: {
        const auto& s = static_cast<const SeqComp&>(*c);
        std::vector<SeqComp::Item> items;
        for (const auto& it : s.items())
            items.push_back(SeqComp::Item{it.bind, amap(it.comp, stats)});
        return std::make_shared<SeqComp>(std::move(items));
      }
      case CompKind::Pipe: {
        const auto& p = static_cast<const PipeComp&>(*c);
        CompPtr l = amap(p.left(), stats);
        CompPtr r = amap(p.right(), stats);
        return std::make_shared<PipeComp>(std::move(l), std::move(r),
                                          p.threaded());
      }
      case CompKind::If: {
        const auto& i = static_cast<const IfComp&>(*c);
        CompPtr t = amap(i.thenC(), stats);
        CompPtr e = i.elseC() ? amap(i.elseC(), stats) : nullptr;
        return std::make_shared<IfComp>(i.cond(), std::move(t),
                                        std::move(e));
      }
      case CompKind::Times: {
        const auto& t = static_cast<const TimesComp&>(*c);
        return std::make_shared<TimesComp>(t.count(), t.inductionVar(),
                                           amap(t.body(), stats));
      }
      case CompKind::While: {
        const auto& w = static_cast<const WhileComp&>(*c);
        return std::make_shared<WhileComp>(w.cond(),
                                           amap(w.body(), stats));
      }
      case CompKind::LetVar: {
        const auto& l = static_cast<const LetVarComp&>(*c);
        return std::make_shared<LetVarComp>(l.var(), l.init(),
                                            amap(l.body(), stats));
      }
      default:
        return c;
    }
}

} // namespace

CompPtr
autoMapComp(const CompPtr& c, MapStats* stats)
{
    return amap(c, stats);
}

CompPtr
fuseMaps(const CompPtr& c, MapStats* stats)
{
    switch (c->kind()) {
      case CompKind::Pipe: {
        const auto& p = static_cast<const PipeComp&>(*c);
        CompPtr l = fuseMaps(p.left(), stats);
        CompPtr r = fuseMaps(p.right(), stats);
        if (!p.threaded() && l->kind() == CompKind::Map &&
            r->kind() == CompKind::Map) {
            const FunRef& f = static_cast<const MapComp&>(*l).fun();
            const FunRef& g = static_cast<const MapComp&>(*r).fun();
            bool refless = !f->paramByRef(0) && !g->paramByRef(0);
            if (refless) {
                VarRef x = freshVar("x", f->params[0]->type);
                ExprPtr body = zb::call(g, {zb::call(f, {zb::var(x)})});
                FunRef h = kernelFun(f->name + "_then_" + g->name, x, {},
                                     std::move(body));
                if (stats)
                    ++stats->fused;
                return zb::mapc(h);
            }
        }
        return std::make_shared<PipeComp>(std::move(l), std::move(r),
                                          p.threaded());
      }
      case CompKind::Seq: {
        const auto& s = static_cast<const SeqComp&>(*c);
        std::vector<SeqComp::Item> items;
        for (const auto& it : s.items())
            items.push_back(
                SeqComp::Item{it.bind, fuseMaps(it.comp, stats)});
        return std::make_shared<SeqComp>(std::move(items));
      }
      case CompKind::If: {
        const auto& i = static_cast<const IfComp&>(*c);
        CompPtr t = fuseMaps(i.thenC(), stats);
        CompPtr e = i.elseC() ? fuseMaps(i.elseC(), stats) : nullptr;
        return std::make_shared<IfComp>(i.cond(), std::move(t),
                                        std::move(e));
      }
      case CompKind::Repeat: {
        const auto& r = static_cast<const RepeatComp&>(*c);
        return std::make_shared<RepeatComp>(fuseMaps(r.body(), stats),
                                            r.hint());
      }
      case CompKind::LetVar: {
        const auto& l = static_cast<const LetVarComp&>(*c);
        return std::make_shared<LetVarComp>(l.var(), l.init(),
                                            fuseMaps(l.body(), stats));
      }
      default:
        return c;
    }
}

} // namespace ziria
