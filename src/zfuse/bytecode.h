/**
 * @file
 * Linear bytecode for the fused execution backend.
 *
 * A tick/proc computation lowers to one flat instruction array
 * executed by FusedNode with computed-goto dispatch (src/zfuse/
 * fused_node.cc).  The key idea — following "Stream Fusion, to
 * Completeness" — is that the VM's node-tree scheduling discipline
 * (pipes drain from the right, §2.6) is a *static* property of the
 * program, so it can be compiled away: every `>>>` boundary becomes a
 * one-element channel buffer plus a pair of saved program counters, and
 * the consumer/producer handoff that costs the VM a chain of virtual
 * advance()/supply() calls becomes two direct jumps.
 *
 * Control-transfer protocol at an internal channel:
 *   - consumer TAKE on an empty channel saves its own pc (consPc) and
 *     jumps to the producer's saved pc (prodPc);
 *   - producer EMIT fills the buffer, saves prodPc = its continuation,
 *     and jumps back to consPc, where the take now consumes.
 * This reproduces the VM's consumer-first lazy-pull order exactly, so
 * outputs and frame side effects are bit-identical (proved by the
 * differential oracle, tests/test_fuse.cpp).
 *
 * A native block (FFT, Viterbi, ...) is a *site*: the region owns one
 * NativeNode per site and drives it with the same three calls a VM
 * pipe would — start at the site's entry, pull the next output, supply
 * one input element — so the kernels run inside the region instead of
 * cutting it.
 */
#ifndef ZIRIA_ZFUSE_BYTECODE_H
#define ZIRIA_ZFUSE_BYTECODE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "zast/comp.h"
#include "zexpr/compile_expr.h"
#include "zexpr/lut.h"

namespace ziria {
namespace zfuse {

/**
 * Operand locations are encoded in 32 bits: bit 31 selects the byte
 * space (set = pipeline Frame, clear = the FusedNode's private state
 * block), the low bits are the byte offset.
 */
constexpr uint32_t kFrameBit = 0x80000000u;
constexpr uint32_t kNoTarget = 0xFFFFFFFFu;

inline uint32_t frameLoc(size_t off) { return kFrameBit | uint32_t(off); }
inline uint32_t stateLoc(size_t off) { return uint32_t(off); }

enum class Op : uint8_t {
    // --- stream I/O ---------------------------------------------------
    TakeExt,      ///< a=dst, b=width, c=pendingReg: external take
    TakeManyExt,  ///< a=dst, b=elemW, c=haveReg, d=n: external takes-n
    TakeCh,       ///< a=dst, b=width, c=channel: internal channel take
    TakeManyCh,   ///< a=dst, b=elemW, c=channel, d=n, e=haveReg
    EmitExt,      ///< a=src: yield one element to the driver
    EmitChSig,    ///< a=channel: buffer already written; hand to consumer
    EmitCh,       ///< a=src, b=width, c=channel: copy then hand over
    EmitsExt,     ///< a=base, b=elemW, c=idxReg, d=len, e=donePc
    EmitsCh,      ///< like EmitsExt, fn=channel
    // --- expression bridge --------------------------------------------
    EvalInto,     ///< fn=intoFns index, a=dst
    EvalInt,      ///< fn=intFns index, a=reg
    Action,       ///< fn=actions index
    Lut,          ///< fn=luts index, a=retDst; b=actions, c=intoFns
                  ///< index of the kernel the table replaces (or
                  ///< kNoTarget), which native code runs instead
    // --- native sites -------------------------------------------------
    SiteStart,    ///< fn=site: evaluate its arguments, make the kernel
    SiteSupply,   ///< fn=site, a=src: feed one input element
    SitePull,     ///< fn=site, a=outDst, b=ctrlDst|kNoTarget: next output
                  ///< copied to a and fall through; NeedInput jumps to
                  ///< c (the take), Done copies the control value to b
                  ///< and jumps to d (the control tail)
    // --- data movement ------------------------------------------------
    Copy,         ///< a=dst, b=src, c=width
    Zero,         ///< a=dst, b=width
    LoadByte,     ///< a=reg, b=src: reg = *src (filter predicate)
    SetReg,       ///< a=reg, b=imm
    IvWrite,      ///< a=frameOff, b=TypeKind, c=reg: induction variable
    // --- control flow -------------------------------------------------
    Jmp,          ///< a=target
    Jz,           ///< a=reg, b=target
    JgeRR,        ///< a=reg1, b=reg2, c=target: jump if r1 >= r2
    TimesStep,    ///< a=iReg, b=nReg, c=bodyPc, d=ivOff|kNoTarget, e=kind
    PipeInit,     ///< a=channel, b=producerEntryPc
    Spin,         ///< repeat loop-back livelock guard
    Ctrl,         ///< a=src, b=width: expose the control value
    Halt,         ///< computer finished
};

/** One fixed-width instruction; unused operands are zero. */
struct Instr
{
    Op op;
    uint32_t a = 0;
    uint32_t b = 0;
    uint32_t c = 0;
    uint32_t d = 0;
    uint32_t e = 0;
    int32_t fn = -1;  ///< closure/LUT table index (or EmitsCh channel)
};

/** Static description of one internal `>>>` boundary. */
struct FuseChannel
{
    uint32_t bufOff = 0;  ///< one-element buffer in the state block
    uint32_t width = 0;   ///< element byte width
};

/** Static description of one native block site. */
struct FuseSite
{
    /// Evaluates the block's arguments in the frame and makes the kernel.
    std::function<std::unique_ptr<NativeKernel>(Frame&)> make;
    uint32_t inWidth = 0;
    uint32_t outWidth = 0;
    uint32_t ctrlWidth = 0;
    bool isComputer = false;
};

/** A lowered program plus the closure tables it indexes into. */
struct FuseProgram
{
    std::vector<Instr> instrs;
    std::vector<FuseChannel> channels;
    uint32_t nRegs = 0;      ///< integer registers (counters, flags)
    uint32_t stateBytes = 0; ///< private state block (buffers, staging)
    size_t inWidth = 0;
    size_t outWidth = 0;
    size_t ctrlWidth = 0;

    std::vector<EvalInto> intoFns;
    std::vector<EvalInt> intFns;
    std::vector<ziria::Action> actions;
    std::vector<std::shared_ptr<const CompiledLut>> luts;
    std::vector<FuseSite> sites;

    /**
     * Source ASTs for the closure tables, index-parallel with
     * intoFns/intFns/actions.  The interpreter never touches these; the
     * native backend (src/zcgen/) re-emits them as straight-line C++.
     * An entry may be null/empty when no source form exists — the
     * emitter then falls back to calling the closure through a host
     * bridge, preserving semantics.
     */
    std::vector<ExprPtr> intoSrc;
    std::vector<ExprPtr> intSrc;
    std::vector<StmtList> actionSrc;

    /** Human-readable listing (docs/FUSION.md, test assertions). */
    std::string disassemble() const;

    /** Count of instructions with a given opcode (test assertions). */
    size_t countOp(Op op) const;
};

/** Short mnemonic for an opcode. */
const char* opName(Op op);

} // namespace zfuse
} // namespace ziria

#endif // ZIRIA_ZFUSE_BYTECODE_H
