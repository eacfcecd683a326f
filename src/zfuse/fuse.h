/**
 * @file
 * The fused execution backend: public entry points.
 *
 * `buildNodeFused` is the fused counterpart of `buildNode`
 * (zexec/pipeline.cc): it lowers the whole optimized computation into
 * one FusedNode (a flat bytecode program, zfuse/bytecode.h).  Native
 * stream blocks run inside the region as sites, and a `|>>>|` the
 * threaded driver did not split lowers as a plain pipe, so a build is
 * one region per pipeline (or per `|>>>|` partition of a threaded
 * compile).  The result sits behind the ExecNode interface, so
 * tracing, frame spans, fault injection, supervised and stage-scoped
 * restart and zserve sessions compose unchanged, and `reset()`
 * re-zeroes the fused state block (start == reset == zero state +
 * re-enter at the program entry).
 *
 * Selected via `CompilerOptions::backend` / `zirrun --backend=fused`.
 * The bytecode format is documented in docs/FUSION.md.
 */
#ifndef ZIRIA_ZFUSE_FUSE_H
#define ZIRIA_ZFUSE_FUSE_H

#include <memory>
#include <string>
#include <vector>

#include "zast/comp.h"
#include "zcgen/abi.h"
#include "zexec/pipeline.h"
#include "zfuse/bytecode.h"

namespace ziria {

/** Statistics from one fused build (CompileReport::fuse). */
struct FuseStats
{
    int nodesFused = 0;  ///< FusedNode instances created
    /// Always 0: every computation lowers into its region.  Kept so
    /// reports and benchmark readers that sum it stay valid.
    int fallbacks = 0;
    int fusedOps = 0;    ///< total bytecode instructions emitted
    int channels = 0;    ///< internal `>>>` boundaries compiled away
};

class FusedNode;

/**
 * Build the execution node with the fused backend: @p c (elaborated and
 * checked) lowers into one FusedNode, its kernels and LUTs compiled
 * against @p ec exactly as the VM build would.  Drop-in replacement for
 * buildNode (same instrumentation shim).  The region is stored in @p region when non-null (the native
 * backend binds compiled code to it) and reported to tracing shims as
 * @p regionKind.
 */
NodePtr buildNodeFused(const CompPtr& c, ExprCompiler& ec,
                       const BuildOptions& opt, BuildStats* stats,
                       FuseStats* fstats = nullptr,
                       const std::string& path = "root",
                       FusedNode** region = nullptr,
                       const char* regionKind = "fused");

namespace zcgen {
class Library;
}

class NativeNode;

/**
 * One fused region (behind ExecNode).  The node owns the region's only
 * state — registers, state block, channel continuations, the parked
 * pc and one NativeNode per native site — laid out as the ZrCtx that
 * compiled code reads (zcgen/abi.h).
 * advance() runs the bound compiled entry point when there is one and
 * interprets the bytecode otherwise; both read and write the same
 * fields, so snapshots are portable between them.
 */
class FusedNode : public ExecNode
{
  public:
    explicit FusedNode(std::shared_ptr<const zfuse::FuseProgram> prog);
    ~FusedNode() override;
    FusedNode(const FusedNode&) = delete;
    FusedNode& operator=(const FusedNode&) = delete;

    void start(Frame& f) override;
    /** Total by construction: zero state block + re-enter at entry. */
    void reset(Frame& f) override { start(f); }
    Status advance(Frame& f) override;
    void supply(Frame& f, const uint8_t* in) override;
    const uint8_t* out() const override { return ctx_.outPtr; }
    const uint8_t* ctrl() const override { return ctx_.ctrlPtr; }

    /**
     * Serialize the register / state-block / channel spaces plus the
     * parked pc.  The out/ctrl pointers are encoded as (space, offset)
     * tags so restore() can re-point them into the new instance.  Frame
     * cells written by compiled Action/EvalInto closures are NOT
     * enumerable from the instruction stream, so whole-frame coverage
     * comes from the PipelineSnapshot container, not from this node
     * (docs/ROBUSTNESS.md, "Checkpointing & migration").  Each native
     * site's NativeNode image follows.  The stream is the same bound or
     * not, so it restores across fused/native.
     */
    void snapshot(const Frame& f, StateWriter& w) const override;
    void restore(Frame& f, StateReader& r) override;

    const zfuse::FuseProgram& program() const { return *prog_; }

    /**
     * Run this region as compiled code from now on (src/zcgen/):
     * advance() calls @p fn over this node's state, with the bridge
     * callbacks (hostInto/hostInt/hostAction) taken from
     * @p hostTable; the trap callbacks are set at construction.  @p lib
     * keeps the shared object alive.
     */
    void bindNative(std::shared_ptr<zcgen::Library> lib,
                    zcgen::ZrRegionFn fn, const zcgen::ZrCtx& hostTable);
    bool bound() const { return fn_ != nullptr; }

    /** The frame of the compiled advance() in flight (host callbacks). */
    Frame& frame() const { return *frame_; }

    /**
     * Execute the site instruction at @p pc (SiteStart, SiteSupply or
     * SitePull) against its NativeNode; returns the pull's Status
     * (Yield for start and supply).  The interpreter and compiled code
     * (through ZrCtx::hostSite) share it.
     */
    Status site(Frame& f, uint32_t pc);

  private:
    Status interpret(Frame& f);

    uint8_t* loc(Frame& f, uint32_t enc)
    {
        return (enc & zfuse::kFrameBit)
            ? f.at(enc & ~zfuse::kFrameBit)
            : state_.data() + enc;
    }

    std::shared_ptr<const zfuse::FuseProgram> prog_;
    std::vector<int64_t> regs_;
    std::vector<uint8_t> state_;
    std::vector<uint32_t> chProdPc_;
    std::vector<uint32_t> chConsPc_;
    std::vector<uint8_t> chFull_;
    std::vector<std::unique_ptr<NativeNode>> sites_;
    /// Points at the spaces above; holds the parked pc, the repeat
    /// livelock guard, the out/ctrl pointers and the ctrl width.
    zcgen::ZrCtx ctx_{};
    Frame* frame_ = nullptr;
    std::shared_ptr<zcgen::Library> lib_;
    zcgen::ZrRegionFn fn_ = nullptr;
};

} // namespace ziria

#endif // ZIRIA_ZFUSE_FUSE_H
