#include "zir/program_cache.h"

#include <algorithm>
#include <cstring>

#include "zir/compiler.h"

namespace ziria {

namespace {

/**
 * Writes the canonical key.  Every node kind and field is written, so
 * two programs share a key only if the passes cannot tell them apart.
 * Integers are decimal and ','-terminated; strings are length-prefixed;
 * a null child is '-'.  The switches have no default, so a new kind
 * does not compile until it is written here.
 */
class KeyWriter
{
  public:
    explicit KeyWriter(std::vector<std::shared_ptr<const void>>* pins)
        : pins_(pins)
    {
    }

    std::string take() { return std::move(out_); }

    void
    num(int64_t v)
    {
        out_ += std::to_string(v);
        out_ += ',';
    }

    void
    str(const std::string& s)
    {
        num(static_cast<int64_t>(s.size()));
        out_ += s;
    }

    void
    flag(bool b)
    {
        out_ += b ? '1' : '0';
    }

    void
    real(double d)
    {
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        out_ += std::to_string(bits);
        out_ += ',';
    }

    void
    type(const TypePtr& t)
    {
        if (!t) {
            out_ += '-';
            return;
        }
        auto [it, fresh] = types_.try_emplace(t.get());
        if (fresh)
            it->second = typeText(*t);
        out_ += it->second;
    }

    void
    compType(const CompType& ct)
    {
        flag(ct.isComputer);
        type(ct.ctrl);
        type(ct.in);
        type(ct.out);
    }

    /** Variables are numbered by first occurrence (alpha-renaming). */
    void
    var(const VarRef& v)
    {
        if (!v) {
            out_ += '-';
            return;
        }
        auto [it, fresh] = vars_.try_emplace(v.get(), vars_.size());
        if (!fresh) {
            out_ += 'v';
            num(static_cast<int64_t>(it->second));
            return;
        }
        out_ += 'V';
        str(v->name);
        type(v->type);
        flag(v->isMutable);
        flag(v->scratch);
    }

    void
    fun(const FunRef& f)
    {
        if (f->isNative()) {
            // Native bodies are opaque: the object itself is the key.
            out_ += 'N';
            address(f.get(), f);
            str(f->name);
            return;
        }
        auto [it, fresh] = funs_.try_emplace(f.get(), funs_.size());
        if (!fresh) {
            out_ += 'f';
            num(static_cast<int64_t>(it->second));
            return;
        }
        out_ += 'F';
        str(f->name);
        num(static_cast<int64_t>(f->params.size()));
        for (const auto& p : f->params)
            var(p);
        num(static_cast<int64_t>(f->byRef.size()));
        for (bool b : f->byRef)
            flag(b);
        stmts(f->body);
        expr(f->ret);
        type(f->retType);
        flag(f->noLut);
    }

    void
    expr(const ExprPtr& e)
    {
        if (!e) {
            out_ += '-';
            return;
        }
        out_ += 'E';
        num(static_cast<int64_t>(e->kind()));
        type(e->type());
        switch (e->kind()) {
          case ExprKind::Const: {
            const Value& v = static_cast<const ConstExpr&>(*e).value();
            type(v.type());
            str(std::string(reinterpret_cast<const char*>(v.data()),
                            v.size()));
            break;
          }
          case ExprKind::Var:
            var(static_cast<const VarExpr&>(*e).var());
            break;
          case ExprKind::Bin: {
            const auto& b = static_cast<const BinExpr&>(*e);
            num(static_cast<int64_t>(b.op()));
            expr(b.lhs());
            expr(b.rhs());
            break;
          }
          case ExprKind::Un: {
            const auto& u = static_cast<const UnExpr&>(*e);
            num(static_cast<int64_t>(u.op()));
            expr(u.sub());
            break;
          }
          case ExprKind::Cast:
            expr(static_cast<const CastExpr&>(*e).sub());
            break;
          case ExprKind::Index: {
            const auto& i = static_cast<const IndexExpr&>(*e);
            expr(i.arr());
            expr(i.idx());
            break;
          }
          case ExprKind::Slice: {
            const auto& s = static_cast<const SliceExpr&>(*e);
            expr(s.arr());
            expr(s.base());
            num(s.sliceLen());
            break;
          }
          case ExprKind::Field: {
            const auto& f = static_cast<const FieldExpr&>(*e);
            expr(f.rec());
            str(f.field());
            break;
          }
          case ExprKind::Call: {
            const auto& c = static_cast<const CallExpr&>(*e);
            fun(c.fun());
            exprs(c.args());
            break;
          }
          case ExprKind::ArrayLit:
            exprs(static_cast<const ArrayLitExpr&>(*e).elems());
            break;
          case ExprKind::StructLit:
            exprs(static_cast<const StructLitExpr&>(*e).fieldExprs());
            break;
          case ExprKind::Cond: {
            const auto& c = static_cast<const CondExpr&>(*e);
            expr(c.cond());
            expr(c.thenE());
            expr(c.elseE());
            break;
          }
        }
    }

    void
    exprs(const std::vector<ExprPtr>& es)
    {
        num(static_cast<int64_t>(es.size()));
        for (const auto& e : es)
            expr(e);
    }

    void
    stmts(const StmtList& ss)
    {
        num(static_cast<int64_t>(ss.size()));
        for (const auto& s : ss)
            stmt(*s);
    }

    void
    stmt(const Stmt& s)
    {
        out_ += 'S';
        num(static_cast<int64_t>(s.kind()));
        switch (s.kind()) {
          case StmtKind::Assign: {
            const auto& a = static_cast<const AssignStmt&>(s);
            expr(a.lhs());
            expr(a.rhs());
            break;
          }
          case StmtKind::If: {
            const auto& i = static_cast<const IfStmt&>(s);
            expr(i.cond());
            stmts(i.thenStmts());
            stmts(i.elseStmts());
            break;
          }
          case StmtKind::For: {
            const auto& f = static_cast<const ForStmt&>(s);
            var(f.inductionVar());
            expr(f.lo());
            expr(f.hi());
            stmts(f.body());
            break;
          }
          case StmtKind::While: {
            const auto& w = static_cast<const WhileStmt&>(s);
            expr(w.cond());
            stmts(w.body());
            break;
          }
          case StmtKind::VarDecl: {
            const auto& d = static_cast<const VarDeclStmt&>(s);
            var(d.var());
            expr(d.init());
            break;
          }
          case StmtKind::Eval:
            expr(static_cast<const EvalStmt&>(s).expr());
            break;
        }
    }

    void
    comp(const CompPtr& c)
    {
        if (!c) {
            out_ += '-';
            return;
        }
        out_ += 'C';
        num(static_cast<int64_t>(c->kind()));
        compType(c->ctype());
        switch (c->kind()) {
          case CompKind::Take:
            type(static_cast<const TakeComp&>(*c).valType());
            break;
          case CompKind::TakeMany: {
            const auto& t = static_cast<const TakeManyComp&>(*c);
            type(t.elemType());
            num(t.count());
            break;
          }
          case CompKind::Emit:
            expr(static_cast<const EmitComp&>(*c).expr());
            break;
          case CompKind::Emits:
            expr(static_cast<const EmitsComp&>(*c).expr());
            break;
          case CompKind::Return: {
            const auto& r = static_cast<const ReturnComp&>(*c);
            stmts(r.stmts());
            expr(r.ret());
            break;
          }
          case CompKind::Seq: {
            const auto& s = static_cast<const SeqComp&>(*c);
            num(static_cast<int64_t>(s.items().size()));
            for (const auto& item : s.items()) {
                var(item.bind);
                comp(item.comp);
            }
            break;
          }
          case CompKind::Pipe: {
            const auto& p = static_cast<const PipeComp&>(*c);
            flag(p.threaded());
            comp(p.left());
            comp(p.right());
            break;
          }
          case CompKind::If: {
            const auto& i = static_cast<const IfComp&>(*c);
            expr(i.cond());
            comp(i.thenC());
            comp(i.elseC());
            break;
          }
          case CompKind::Repeat: {
            const auto& r = static_cast<const RepeatComp&>(*c);
            flag(r.hint().has_value());
            if (r.hint()) {
                num(r.hint()->in);
                num(r.hint()->out);
            }
            comp(r.body());
            break;
          }
          case CompKind::Times: {
            const auto& t = static_cast<const TimesComp&>(*c);
            expr(t.count());
            var(t.inductionVar());
            comp(t.body());
            break;
          }
          case CompKind::While: {
            const auto& w = static_cast<const WhileComp&>(*c);
            expr(w.cond());
            comp(w.body());
            break;
          }
          case CompKind::Map:
            fun(static_cast<const MapComp&>(*c).fun());
            break;
          case CompKind::Filter:
            fun(static_cast<const FilterComp&>(*c).pred());
            break;
          case CompKind::LetVar: {
            const auto& l = static_cast<const LetVarComp&>(*c);
            var(l.var());
            expr(l.init());
            comp(l.body());
            break;
          }
          case CompKind::Native: {
            const auto& n = static_cast<const NativeComp&>(*c);
            address(n.spec().get(), n.spec());
            str(n.spec()->name);
            exprs(n.args());
            break;
          }
          case CompKind::CallComp: {
            const auto& k = static_cast<const CallCompComp&>(*c);
            compFun(k.fun());
            exprs(k.args());
            break;
          }
        }
    }

  private:
    /** Structural text of a type (cached per object: it is immutable). */
    static std::string
    typeText(const Type& t)
    {
        std::string s = std::to_string(static_cast<int>(t.kind()));
        switch (t.kind()) {
          case TypeKind::Array:
            s += '[' + std::to_string(t.len()) + ']' + typeText(*t.elem());
            break;
          case TypeKind::Struct:
            s += '{' + std::to_string(t.structName().size()) + ':' +
                 t.structName();
            for (const auto& [name, ft] : t.fields())
                s += std::to_string(name.size()) + ':' + name +
                     typeText(*ft);
            s += '}';
            break;
          default:
            break;
        }
        return s + ';';
    }

    /** Name an opaque object by address and keep it alive with the
     *  entry, so the address cannot be reused while the key exists. */
    void
    address(const void* p, std::shared_ptr<const void> owner)
    {
        out_ += '@';
        num(static_cast<int64_t>(reinterpret_cast<uintptr_t>(p)));
        if (pins_)
            pins_->push_back(std::move(owner));
    }

    void
    compFun(const CompFunRef& f)
    {
        auto [it, fresh] = compFuns_.try_emplace(f.get(), compFuns_.size());
        if (!fresh) {
            out_ += 'k';
            num(static_cast<int64_t>(it->second));
            return;
        }
        out_ += 'K';
        str(f->name);
        num(static_cast<int64_t>(f->params.size()));
        for (const auto& p : f->params)
            var(p);
        comp(f->body);
    }

    std::string out_;
    std::vector<std::shared_ptr<const void>>* pins_;
    std::unordered_map<const Type*, std::string> types_;
    std::unordered_map<const VarSym*, size_t> vars_;
    std::unordered_map<const FunDef*, size_t> funs_;
    std::unordered_map<const CompFunDef*, size_t> compFuns_;
};

} // namespace

std::string
programKey(const CompPtr& program, const CompilerOptions& opt,
           std::vector<std::shared_ptr<const void>>* pins)
{
    KeyWriter w(pins);
    w.flag(opt.fold);
    w.flag(opt.vectorize);
    w.flag(opt.autoMap);
    w.flag(opt.fuse);
    w.flag(opt.autoLut);
    const VectConfig& v = opt.vect;
    w.num(v.maxWidth);
    w.num(v.maxWidthBytes);
    w.num(v.maxSteps);
    w.num(v.maxScale);
    w.num(static_cast<int64_t>(v.utility));
    w.real(v.lutBonus);
    w.num(v.lutKeyBits);
    w.flag(v.prune);
    w.num(v.candidateCap);
    w.num(opt.lut.maxKeyBits);
    w.num(static_cast<int64_t>(opt.lut.maxTableBytes));
    w.num(opt.lut.minKeyBits);
    w.comp(program);
    return w.take();
}

ProgramCache&
ProgramCache::global()
{
    static ProgramCache cache;
    return cache;
}

std::shared_ptr<const CompiledProgram>
ProgramCache::find(const std::string& key)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = slots_.find(key);
    if (it == slots_.end())
        return nullptr;
    it->second.lastUse = ++tick_;
    auto prog = it->second.prog;
    trimLocked();
    return prog;
}

std::shared_ptr<const CompiledProgram>
ProgramCache::insert(std::string key,
                     std::shared_ptr<const CompiledProgram> prog)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto [it, fresh] = slots_.try_emplace(std::move(key));
    if (fresh)
        it->second.prog = std::move(prog);
    it->second.lastUse = ++tick_;
    auto kept = it->second.prog;
    trimLocked();
    return kept;
}

void
ProgramCache::trimLocked()
{
    // Tables fill in after insertion, so the byte total is re-summed on
    // every visit; the most recently used entry is never dropped.
    size_t bytes = 0;
    for (const auto& [key, slot] : slots_)
        bytes += slot.prog->luts.tableBytes();
    while (slots_.size() > 1 && (slots_.size() > kProgramCacheEntries ||
                                 bytes > kProgramCacheTableBytes)) {
        auto oldest = slots_.begin();
        for (auto it = slots_.begin(); it != slots_.end(); ++it)
            if (it->second.lastUse < oldest->second.lastUse)
                oldest = it;
        bytes -= std::min(bytes, oldest->second.prog->luts.tableBytes());
        slots_.erase(oldest);
    }
}

size_t
ProgramCache::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return slots_.size();
}

void
ProgramCache::clear()
{
    std::lock_guard<std::mutex> lk(mu_);
    slots_.clear();
}

} // namespace ziria
