/**
 * @file
 * The Ziria compiler driver: one call from a computation AST to a
 * runnable pipeline.
 *
 * Pass order (mirroring the paper's pipeline):
 *   elaborate -> fold/partial-evaluate -> type-check -> vectorize ->
 *   re-check -> auto-map -> map fusion -> re-check -> node build
 *   (with auto-LUT at map sites).
 *
 * Optimization levels used throughout the evaluation:
 *   None      — straight execution of the source AST (the paper's
 *               "no optimizations" baseline);
 *   Vectorize — vectorization plus the control-flow cleanups it rides on
 *               (folding, auto-map) — the green bars of Figure 5;
 *   All       — everything including LUT generation and map fusion — the
 *               yellow bars.
 */
#ifndef ZIRIA_ZIR_COMPILER_H
#define ZIRIA_ZIR_COMPILER_H

#include <memory>
#include <string>

#include "zast/comp.h"
#include "zcgen/cgen.h"
#include "zexec/pipeline.h"
#include "zexec/threaded.h"
#include "zfuse/fuse.h"
#include "zir/pass_trace.h"
#include "zvect/vectorize.h"
#include "zopt/passes.h"

namespace ziria {

/** Preset optimization levels used by the benchmarks. */
enum class OptLevel { None, Vectorize, All };

/**
 * Execution backend: the closure-tree VM (one ExecNode per computation
 * form), the fused bytecode interpreter (the whole pipeline flattened
 * into one linear program, docs/FUSION.md), or native code
 * generation (the fused region emitted as C++, compiled and dlopen'd with
 * an on-disk shared-object cache, docs/CODEGEN.md).  All sit behind
 * ExecNode, so every driver and decorator composes with any of them.
 */
enum class Backend { Vm, Fused, Native };

/** Full compiler configuration. */
struct CompilerOptions
{
    bool fold = true;
    bool vectorize = true;
    bool autoMap = true;
    bool fuse = true;
    bool autoLut = true;
    VectConfig vect;
    LutLimits lut;
    size_t queueCapacity = 4096;
    /** Watchdog deadline for threaded runs, in ms (0 = unsupervised);
     *  see ThreadedPipeline::setStallDeadline. */
    double stallDeadlineMs = 0;
    /** Self-healing restart policy applied to the built pipeline (both
     *  drivers); default: fail fast.  See docs/ROBUSTNESS.md. */
    RestartPolicy restart;
    /** Frame-boundary checkpointing applied to the built pipeline
     *  (`zirrun --checkpoint[=N]`); only meaningful with a restart
     *  policy.  See docs/ROBUSTNESS.md, "Checkpointing & migration". */
    CheckpointPolicy checkpoint;
    /** Observe each AST pass (timing, node counts, optional AST dumps).
     *  Null disables all tracing bookkeeping. */
    PassTracer* tracer = nullptr;
    /** Instrument the built nodes with per-node counters (zexec/trace.h);
     *  the resulting pipeline exposes metrics() and RunStats::metrics. */
    bool instrument = false;
    uint32_t sampleShift = 6;  ///< advance-time sampling rate (2^N)
    /** Node-construction backend (`zirrun --backend=vm|fused|native`). */
    Backend backend = Backend::Vm;
    /** Shared-object cache directory for Backend::Native ("" = default:
     *  $ZIRIA_CGEN_CACHE or ~/.cache/ziria/zcgen); `--cgen-cache-dir`. */
    std::string cgenCacheDir;

    static CompilerOptions forLevel(OptLevel level);
};

/** Timings and statistics from one compilation. */
struct CompileReport
{
    VectStats vect;
    MapStats maps;
    BuildStats build;
    FuseStats fuse;  ///< populated when compiled with Backend::Fused/Native
    CgenStats cgen;  ///< populated when compiled with Backend::Native
    double frontendSec = 0;  ///< elaborate + fold + check
    double vectorizeSec = 0;
    double optimizeSec = 0;  ///< auto-map + fusion + re-check
    double buildSec = 0;     ///< node build incl. LUT table generation
    size_t frameBytes = 0;
    CompType signature;
    /** The optimized program came from the program cache
     *  (zir/program_cache.h): the pass timings read 0 and vect/maps are
     *  the first compile's. */
    bool cacheHit = false;
    /** Per-pass records; filled only when compiled with a tracer. */
    std::vector<PassRecord> passes;

    double
    totalSec() const
    {
        return frontendSec + vectorizeSec + optimizeSec + buildSec;
    }

    /** Serialize (timings, stats, passes) into an open JSON object. */
    void writeJson(metrics::JsonWriter& w) const;
};

/**
 * Compile to a single-threaded pipeline (interior `|>>>|` markers are
 * executed as plain `>>>`).
 */
std::unique_ptr<Pipeline> compilePipeline(const CompPtr& program,
                                          const CompilerOptions& opt,
                                          CompileReport* report = nullptr);

/**
 * Compile to a multi-threaded pipeline: the program is split at its
 * top-level `|>>>|` combinators (one thread per partition), matching the
 * paper's supported form of pipeline parallelism.  A program without
 * top-level `|>>>|` yields a single stage.
 */
std::unique_ptr<ThreadedPipeline>
compileThreadedPipeline(const CompPtr& program, const CompilerOptions& opt,
                        CompileReport* report = nullptr);

/**
 * Run the AST-level passes only (for tests and dumps).  Goes through
 * the program cache like the compile entry points: the result may be
 * shared with other compiles and must not be modified.
 */
CompPtr optimizeComp(const CompPtr& program, const CompilerOptions& opt,
                     CompileReport* report = nullptr);

} // namespace ziria

#endif // ZIRIA_ZIR_COMPILER_H
