/**
 * @file
 * The fused bytecode interpreter.
 *
 * One FusedNode::advance() call executes straight-line bytecode until it
 * must touch the outside world: an external take parks the pc on the
 * take instruction and returns NeedInput (supply() then writes directly
 * into the take's destination and re-arms it), an external emit returns
 * Yield with out() pointing into the state block, and Halt returns Done
 * with ctrl() set by the preceding Ctrl instruction.  Internal `>>>`
 * boundaries never leave the loop: they are two saved program counters
 * and a one-element buffer (see zfuse/bytecode.h for the protocol).
 *
 * Dispatch is computed-goto under GCC/Clang (one indirect branch per
 * instruction, the classic direct-threaded interpreter) with a switch
 * fallback elsewhere.  The jump-table order must match `enum class Op`.
 *
 * A region bound to compiled code (src/zcgen/) runs the same protocol
 * over the same ZrCtx instead of the loop below; start(), supply(),
 * snapshot() and restore() do not care which of the two ran.
 */
#include "zfuse/fuse.h"

#include <algorithm>
#include <cstring>

#include "support/panic.h"
#include "zexec/nodes.h"
#include "ztype/value.h"

namespace ziria {

using namespace zfuse;

namespace {

/** One unstarted NativeNode per native site of @p p. */
std::vector<std::unique_ptr<NativeNode>>
freshSites(const FuseProgram& p)
{
    std::vector<std::unique_ptr<NativeNode>> out;
    out.reserve(p.sites.size());
    for (const FuseSite& s : p.sites)
        out.push_back(std::make_unique<NativeNode>(
            s.make, s.inWidth, s.outWidth, s.ctrlWidth, s.isComputer));
    return out;
}

} // namespace

FusedNode::FusedNode(std::shared_ptr<const FuseProgram> prog)
    : prog_(std::move(prog))
{
    regs_.resize(prog_->nRegs, 0);
    state_.resize(prog_->stateBytes, 0);
    chProdPc_.resize(prog_->channels.size(), 0);
    chConsPc_.resize(prog_->channels.size(), 0);
    chFull_.resize(prog_->channels.size(), 0);
    setInWidth(prog_->inWidth);
    setOutWidth(prog_->outWidth);
    setCtrlWidth(prog_->ctrlWidth);
    ctx_.st = state_.data();
    ctx_.regs = regs_.data();
    ctx_.chProdPc = chProdPc_.data();
    ctx_.chConsPc = chConsPc_.data();
    ctx_.chFull = chFull_.data();
    ctx_.ctrlWidth = prog_->ctrlWidth;
    ctx_.host = this;
    // Traps raise through the host functions the closures use, whether
    // the interpreter or bound native code runs the region.
    ctx_.trapMsg = hostTraps()->trapMsg;
    ctx_.trapIndex = hostTraps()->trapIndex;
    ctx_.trapSlice = hostTraps()->trapSlice;
    sites_ = freshSites(*prog_);
}

FusedNode::~FusedNode() = default;

void
FusedNode::bindNative(std::shared_ptr<zcgen::Library> lib,
                      zcgen::ZrRegionFn fn, const zcgen::ZrCtx& hostTable)
{
    lib_ = std::move(lib);
    fn_ = fn;
    ctx_.hostInto = hostTable.hostInto;
    ctx_.hostInt = hostTable.hostInt;
    ctx_.hostAction = hostTable.hostAction;
    ctx_.hostSite = hostTable.hostSite;
}

void
FusedNode::start(Frame&)
{
    std::fill(regs_.begin(), regs_.end(), 0);
    std::fill(state_.begin(), state_.end(), 0);
    std::fill(chProdPc_.begin(), chProdPc_.end(), 0);
    std::fill(chConsPc_.begin(), chConsPc_.end(), 0);
    std::fill(chFull_.begin(), chFull_.end(), 0);
    ctx_.pc = 0;
    ctx_.spins = 0;
    ctx_.outPtr = nullptr;
    ctx_.ctrlPtr = nullptr;
    // Each site is started when control reaches its SiteStart.
    sites_ = freshSites(*prog_);
}

namespace {

// (space, offset) tag for a pointer into the state block or the frame:
// 0 = null, 1 = state block, 2 = frame.
void
writePtrTag(StateWriter& w, const uint8_t* p, const Frame& f,
            const std::vector<uint8_t>& state)
{
    if (!p) {
        w.u8(0);
        w.u64(0);
    } else if (p >= state.data() && p < state.data() + state.size()) {
        w.u8(1);
        w.u64(static_cast<uint64_t>(p - state.data()));
    } else {
        const uint8_t* base = f.at(0);
        ZIRIA_ASSERT(p >= base && p < base + f.size(),
                     "fused pointer outside state block and frame");
        w.u8(2);
        w.u64(static_cast<uint64_t>(p - base));
    }
}

// @p width is how many bytes the caller will read through the pointer:
// the stream is untrusted on the zserve migration path, so the whole
// window must land inside its space (Frame::at is unchecked).
const uint8_t*
readPtrTag(StateReader& r, const Frame& f,
           const std::vector<uint8_t>& state, size_t width)
{
    uint8_t space = r.u8();
    uint64_t off = r.u64();
    switch (space) {
      case 0:
        return nullptr;
      case 1:
        if (off > state.size() || state.size() - off < width)
            throw StateFormatError("fused pointer outside state block");
        return state.data() + off;
      case 2:
        if (off > f.size() || f.size() - off < width)
            throw StateFormatError("fused pointer outside frame");
        return f.at(static_cast<size_t>(off));
      default:
        throw StateFormatError("bad fused pointer tag");
    }
}

} // namespace

void
FusedNode::snapshot(const Frame& f, StateWriter& w) const
{
    w.u64(regs_.size() * sizeof(int64_t));
    w.bytes(regs_.data(), regs_.size() * sizeof(int64_t));
    w.blob(state_.data(), state_.size());
    w.u64(chProdPc_.size());
    for (size_t i = 0; i < chProdPc_.size(); ++i) {
        w.u32(chProdPc_[i]);
        w.u32(chConsPc_[i]);
        w.u8(chFull_[i]);
    }
    w.u32(ctx_.pc);
    w.u64(ctx_.spins);
    w.u64(ctrlWidth_);  // the Ctrl op mutates it at run time
    writePtrTag(w, ctx_.outPtr, f, state_);
    writePtrTag(w, ctx_.ctrlPtr, f, state_);
    w.u64(sites_.size());
    for (const auto& n : sites_)
        n->snapshot(f, w);
}

void
FusedNode::restore(Frame& f, StateReader& r)
{
    uint64_t regBytes = r.u64();
    if (regBytes != regs_.size() * sizeof(int64_t))
        throw StateFormatError("fused register space size mismatch");
    r.bytes(regs_.data(), regBytes);
    std::vector<uint8_t> st = r.blob();
    if (st.size() != state_.size())
        throw StateFormatError("fused state block size mismatch");
    std::copy(st.begin(), st.end(), state_.begin());  // ctx_.st stays valid
    uint64_t nch = r.u64();
    if (nch != chProdPc_.size())
        throw StateFormatError("fused channel count mismatch");
    // Every pc in the stream is dispatched as an instruction index by
    // advance()/supply(); an out-of-range one from an untrusted stream
    // would fetch beyond the program (or hit compiled code's trap).
    const uint32_t nInstr = static_cast<uint32_t>(prog_->instrs.size());
    for (size_t i = 0; i < chProdPc_.size(); ++i) {
        chProdPc_[i] = r.u32();
        chConsPc_[i] = r.u32();
        chFull_[i] = r.u8();
        if (chProdPc_[i] >= nInstr || chConsPc_[i] >= nInstr)
            throw StateFormatError("fused channel pc out of range");
    }
    uint32_t pc = r.u32();
    if (pc >= nInstr)
        throw StateFormatError("fused pc out of range");
    ctx_.pc = pc;
    ctx_.spins = r.u64();
    ctx_.ctrlWidth = r.u64();
    setCtrlWidth(static_cast<size_t>(ctx_.ctrlWidth));
    ctx_.outPtr = readPtrTag(r, f, state_, outWidth());
    ctx_.ctrlPtr = readPtrTag(r, f, state_, ctrlWidth_);
    if (r.u64() != sites_.size())
        throw StateFormatError("fused native site count mismatch");
    // NativeNode::restore bound-checks each site's ring.
    for (auto& n : sites_)
        n->restore(f, r);
}

Status
FusedNode::site(Frame& f, uint32_t pc)
{
    const Instr& i = prog_->instrs[pc];
    NativeNode& n = *sites_[i.fn];
    switch (i.op) {
      case Op::SiteStart:
        n.start(f);
        return Status::Yield;
      case Op::SiteSupply:
        n.supply(f, loc(f, i.a));
        return Status::Yield;
      case Op::SitePull: {
        Status st = n.advance(f);
        if (st == Status::Yield)
            std::memcpy(loc(f, i.a), n.out(), n.outWidth());
        else if (st == Status::Done && i.b != kNoTarget)
            std::memcpy(loc(f, i.b), n.ctrl(), n.ctrlWidth());
        return st;
      }
      default:
        panic("FusedNode::site: not a site instruction");
    }
}

void
FusedNode::supply(Frame& f, const uint8_t* in)
{
    // advance() only returns NeedInput parked on an external take, so
    // the pc identifies exactly where the element goes — the VM's
    // supply-then-consume order collapses to one direct write.
    const Instr& i = prog_->instrs[ctx_.pc];
    switch (i.op) {
      case Op::TakeExt:
        std::memcpy(loc(f, i.a), in, i.b);
        regs_[i.c] = 1;
        break;
      case Op::TakeManyExt:
        std::memcpy(loc(f, i.a) + regs_[i.c] * i.b, in, i.b);
        ++regs_[i.c];
        break;
      default:
        panic("FusedNode::supply: not parked on an external take");
    }
}

Status
FusedNode::advance(Frame& f)
{
    if (!fn_)
        return interpret(f);
    ctx_.fr = f.at(0);
    frame_ = &f;
    int rc = fn_(&ctx_);
    setCtrlWidth(ctx_.ctrlWidth);
    return static_cast<Status>(rc);
}

Status
FusedNode::interpret(Frame& f)
{
    const Instr* code = prog_->instrs.data();
    const FuseChannel* chans = prog_->channels.data();
    uint32_t pc = ctx_.pc;

#if defined(__GNUC__) || defined(__clang__)
    // Direct-threaded dispatch; table order MUST match enum class Op.
    static const void* kJump[] = {
        &&op_TakeExt,   &&op_TakeManyExt, &&op_TakeCh,  &&op_TakeManyCh,
        &&op_EmitExt,   &&op_EmitChSig,   &&op_EmitCh,  &&op_EmitsExt,
        &&op_EmitsCh,   &&op_EvalInto,    &&op_EvalInt, &&op_Action,
        &&op_Lut,       &&op_SiteStart,   &&op_SiteSupply, &&op_SitePull,
        &&op_Copy,      &&op_Zero,        &&op_LoadByte, &&op_SetReg,
        &&op_IvWrite,   &&op_Jmp,         &&op_Jz,      &&op_JgeRR,
        &&op_TimesStep, &&op_PipeInit,    &&op_Spin,    &&op_Ctrl,
        &&op_Halt,
    };
#define OP(name) op_##name:
#define NEXT() goto* kJump[static_cast<size_t>(code[pc].op)]
    NEXT();
#else
#define OP(name) case Op::name:
#define NEXT() continue
    for (;;) {
        switch (code[pc].op) {
#endif

    OP(TakeExt)
    {
        const Instr& i = code[pc];
        if (regs_[i.c]) {
            regs_[i.c] = 0;
            ctx_.spins = 0;
            ++pc;
            NEXT();
        }
        ctx_.pc = pc;
        return Status::NeedInput;
    }
    OP(TakeManyExt)
    {
        const Instr& i = code[pc];
        if (regs_[i.c] >= static_cast<int64_t>(i.d)) {
            ctx_.spins = 0;
            ++pc;
            NEXT();
        }
        ctx_.pc = pc;
        return Status::NeedInput;
    }
    OP(TakeCh)
    {
        const Instr& i = code[pc];
        if (chFull_[i.c]) {
            std::memcpy(loc(f, i.a), state_.data() + chans[i.c].bufOff,
                        i.b);
            chFull_[i.c] = 0;
            ctx_.spins = 0;
            ++pc;
        } else {
            chConsPc_[i.c] = pc;
            pc = chProdPc_[i.c];
            ctx_.spins = 0;
        }
        NEXT();
    }
    OP(TakeManyCh)
    {
        const Instr& i = code[pc];
        if (regs_[i.e] >= static_cast<int64_t>(i.d)) {
            ctx_.spins = 0;
            ++pc;
        } else if (chFull_[i.c]) {
            std::memcpy(loc(f, i.a) + regs_[i.e] * i.b,
                        state_.data() + chans[i.c].bufOff, i.b);
            ++regs_[i.e];
            chFull_[i.c] = 0;
            ctx_.spins = 0;
            // pc unchanged: re-run until all n elements are in.
        } else {
            chConsPc_[i.c] = pc;
            pc = chProdPc_[i.c];
        }
        NEXT();
    }
    OP(EmitExt)
    {
        ctx_.outPtr = loc(f, code[pc].a);
        ctx_.spins = 0;
        ctx_.pc = pc + 1;
        return Status::Yield;
    }
    OP(EmitChSig)
    {
        const Instr& i = code[pc];
        chFull_[i.a] = 1;
        chProdPc_[i.a] = pc + 1;
        pc = chConsPc_[i.a];
        ctx_.spins = 0;
        NEXT();
    }
    OP(EmitCh)
    {
        const Instr& i = code[pc];
        std::memcpy(state_.data() + chans[i.c].bufOff, loc(f, i.a), i.b);
        chFull_[i.c] = 1;
        chProdPc_[i.c] = pc + 1;
        pc = chConsPc_[i.c];
        ctx_.spins = 0;
        NEXT();
    }
    OP(EmitsExt)
    {
        const Instr& i = code[pc];
        if (regs_[i.c] >= static_cast<int64_t>(i.d)) {
            pc = i.e;
            NEXT();
        }
        ctx_.outPtr = loc(f, i.a) + regs_[i.c] * i.b;
        ++regs_[i.c];
        ctx_.spins = 0;
        ctx_.pc = pc;  // self-loop: next advance re-runs this instruction
        return Status::Yield;
    }
    OP(EmitsCh)
    {
        const Instr& i = code[pc];
        if (regs_[i.c] >= static_cast<int64_t>(i.d)) {
            pc = i.e;
        } else {
            uint32_t ch = static_cast<uint32_t>(i.fn);
            std::memcpy(state_.data() + chans[ch].bufOff,
                        loc(f, i.a) + regs_[i.c] * i.b, i.b);
            ++regs_[i.c];
            chFull_[ch] = 1;
            chProdPc_[ch] = pc;  // self-loop for the next element
            pc = chConsPc_[ch];
            ctx_.spins = 0;
        }
        NEXT();
    }
    OP(EvalInto)
    {
        const Instr& i = code[pc];
        prog_->intoFns[i.fn](f, loc(f, i.a));
        ++pc;
        NEXT();
    }
    OP(EvalInt)
    {
        const Instr& i = code[pc];
        regs_[i.a] = prog_->intFns[i.fn](f);
        ++pc;
        NEXT();
    }
    OP(Action)
    {
        prog_->actions[code[pc].fn](f);
        ++pc;
        NEXT();
    }
    OP(Lut)
    {
        const Instr& i = code[pc];
        prog_->luts[i.fn]->apply(f, loc(f, i.a));
        ++pc;
        NEXT();
    }
    OP(SiteStart)
    OP(SiteSupply)
    OP(SitePull)
    {
        // Start and supply report Yield: fall through like a pull.
        Status st = site(f, pc);
        pc = st == Status::Yield       ? pc + 1
             : st == Status::NeedInput ? code[pc].c
                                       : code[pc].d;
        NEXT();
    }
    OP(Copy)
    {
        const Instr& i = code[pc];
        std::memcpy(loc(f, i.a), loc(f, i.b), i.c);
        ++pc;
        NEXT();
    }
    OP(Zero)
    {
        const Instr& i = code[pc];
        std::memset(loc(f, i.a), 0, i.b);
        ++pc;
        NEXT();
    }
    OP(LoadByte)
    {
        const Instr& i = code[pc];
        regs_[i.a] = *loc(f, i.b);
        ++pc;
        NEXT();
    }
    OP(SetReg)
    {
        const Instr& i = code[pc];
        regs_[i.a] = i.b;
        ++pc;
        NEXT();
    }
    OP(IvWrite)
    {
        const Instr& i = code[pc];
        writeIntRaw(static_cast<TypeKind>(i.b), f.at(i.a), regs_[i.c]);
        ++pc;
        NEXT();
    }
    OP(Jmp)
    {
        pc = code[pc].a;
        NEXT();
    }
    OP(Jz)
    {
        const Instr& i = code[pc];
        pc = regs_[i.a] ? pc + 1 : i.b;
        NEXT();
    }
    OP(JgeRR)
    {
        const Instr& i = code[pc];
        pc = regs_[i.a] >= regs_[i.b] ? i.c : pc + 1;
        NEXT();
    }
    OP(TimesStep)
    {
        const Instr& i = code[pc];
        ++regs_[i.a];
        if (regs_[i.a] >= regs_[i.b]) {
            ++pc;  // falls through to the loop's done label
        } else {
            if (i.d != kNoTarget)
                writeIntRaw(static_cast<TypeKind>(i.e), f.at(i.d),
                            regs_[i.a]);
            pc = i.c;  // body entry: re-running it is body->start()
        }
        NEXT();
    }
    OP(PipeInit)
    {
        const Instr& i = code[pc];
        chProdPc_[i.a] = i.b;
        chConsPc_[i.a] = 0;
        chFull_[i.a] = 0;
        ++pc;
        NEXT();
    }
    OP(Spin)
    {
        zr_spin(&ctx_, &ctx_.spins);
        ++pc;
        NEXT();
    }
    OP(Ctrl)
    {
        const Instr& i = code[pc];
        ctx_.ctrlPtr = i.b ? loc(f, i.a) : nullptr;
        ctx_.ctrlWidth = i.b;
        setCtrlWidth(i.b);
        ++pc;
        NEXT();
    }
    OP(Halt)
    {
        ctx_.pc = pc;  // stay parked: a stray advance re-reports Done
        return Status::Done;
    }

#if defined(__GNUC__) || defined(__clang__)
#else
        }
    }
#endif
#undef OP
#undef NEXT
}

} // namespace ziria
