#include "zir/compiler.h"

#include "support/metrics.h"
#include "support/panic.h"
#include "support/timing.h"
#include "zcheck/check.h"
#include "zir/program_cache.h"

namespace ziria {

CompilerOptions
CompilerOptions::forLevel(OptLevel level)
{
    CompilerOptions opt;
    switch (level) {
      case OptLevel::None:
        opt.fold = false;
        opt.vectorize = false;
        opt.autoMap = false;
        opt.fuse = false;
        opt.autoLut = false;
        break;
      case OptLevel::Vectorize:
        opt.autoLut = false;
        opt.fuse = false;
        opt.vect.lutBonus = 0;
        break;
      case OptLevel::All:
        break;
    }
    return opt;
}

namespace {

/**
 * Run one AST pass with optional tracing.  All counting/timing
 * bookkeeping is skipped when no tracer is attached, so untraced
 * compiles (bench_compile_time) pay nothing.
 */
template <typename Fn>
CompPtr
runPass(const CompilerOptions& opt, CompileReport* report,
        const char* name, CompPtr c, Fn&& fn)
{
    if (!opt.tracer)
        return fn(std::move(c));
    int before = countComp(c);
    Stopwatch sw;
    CompPtr out = fn(std::move(c));
    double sec = sw.elapsedSec();
    int after = countComp(out);
    opt.tracer->onPass(name, sec, before, after, out);
    if (report)
        report->passes.push_back({name, sec, before, after});
    return out;
}

/** The AST passes, uncached. */
CompPtr
runPasses(const CompPtr& program, const CompilerOptions& opt,
          CompileReport* report)
{
    Stopwatch sw;
    CompPtr c = runPass(opt, report, "elaborate", program,
                        [](CompPtr x) { return elaborateComp(x); });
    if (opt.fold)
        c = runPass(opt, report, "fold", std::move(c),
                    [](CompPtr x) { return foldComp(x); });
    c = runPass(opt, report, "check", std::move(c), [](CompPtr x) {
        checkComp(x);
        return x;
    });
    if (report)
        report->frontendSec = sw.elapsedSec();

    if (opt.vectorize) {
        sw.reset();
        c = runPass(opt, report, "vectorize", std::move(c),
                    [&](CompPtr x) {
                        return vectorizeComp(
                            x, opt.vect, report ? &report->vect : nullptr);
                    });
        c = runPass(opt, report, "check", std::move(c), [](CompPtr x) {
            checkComp(x);
            return x;
        });
        if (report)
            report->vectorizeSec = sw.elapsedSec();
    }

    sw.reset();
    MapStats ms;
    if (opt.autoMap)
        c = runPass(opt, report, "auto-map", std::move(c),
                    [&](CompPtr x) { return autoMapComp(x, &ms); });
    if (opt.fuse)
        c = runPass(opt, report, "fuse", std::move(c),
                    [&](CompPtr x) { return fuseMaps(x, &ms); });
    c = runPass(opt, report, "check", std::move(c), [](CompPtr x) {
        checkComp(x);
        return x;
    });
    if (report) {
        report->maps = ms;
        report->optimizeSec = sw.elapsedSec();
        report->signature = c->ctype();
    }
    return c;
}

/**
 * The optimized program for (@p program, @p opt): from the program
 * cache when an earlier compile left it there (pass timings then read
 * 0), else by running the passes and caching the result.  A traced
 * compile runs its passes and leaves the cache alone.
 */
std::shared_ptr<const CompiledProgram>
compileProgram(const CompPtr& program, const CompilerOptions& opt,
               CompileReport* report)
{
    CompileReport local;
    CompileReport& rep = report ? *report : local;
    rep.cacheHit = false;
    auto prog = std::make_shared<CompiledProgram>();
    if (opt.tracer) {
        prog->ast = runPasses(program, opt, &rep);
        return prog;
    }

    std::string key = programKey(program, opt, &prog->pins);
    auto& reg = metrics::Registry::global();
    if (auto hit = ProgramCache::global().find(key)) {
        reg.counter("ziria.compile.cache_hits").inc();
        rep.cacheHit = true;
        rep.frontendSec = rep.vectorizeSec = rep.optimizeSec = 0;
        rep.vect = hit->vect;
        rep.maps = hit->maps;
        rep.signature = hit->signature;
        return hit;
    }
    reg.counter("ziria.compile.cache_misses").inc();
    rep.vect = VectStats{};
    prog->ast = runPasses(program, opt, &rep);
    prog->vect = rep.vect;
    prog->maps = rep.maps;
    prog->signature = rep.signature;
    return ProgramCache::global().insert(std::move(key), std::move(prog));
}

} // namespace

CompPtr
optimizeComp(const CompPtr& program, const CompilerOptions& opt,
             CompileReport* report)
{
    return compileProgram(program, opt, report)->ast;
}

namespace {

/** Split the top-level `|>>>|` chain into per-thread partitions. */
void
splitStages(const CompPtr& c, std::vector<CompPtr>& out)
{
    if (c->kind() == CompKind::Pipe) {
        const auto& p = static_cast<const PipeComp&>(*c);
        if (p.threaded()) {
            splitStages(p.left(), out);
            splitStages(p.right(), out);
            return;
        }
    }
    out.push_back(c);
}

} // namespace

std::unique_ptr<Pipeline>
compilePipeline(const CompPtr& program, const CompilerOptions& opt,
                CompileReport* report)
{
    auto prog = compileProgram(program, opt, report);
    const CompPtr& c = prog->ast;

    Stopwatch sw;
    FrameLayout layout;
    ExprCompiler ec(layout);
    std::shared_ptr<PipelineMetrics> pm;
    BuildOptions bo;
    bo.autoLut = opt.autoLut;
    bo.lutLimits = opt.lut;
    bo.lutCache = &prog->luts;
    if (opt.instrument) {
        pm = std::make_shared<PipelineMetrics>();
        bo.instrument = true;
        bo.sampleShift = opt.sampleShift;
        bo.metrics = pm.get();
    }
    BuildStats bs;
    NodePtr root;
    switch (opt.backend) {
      case Backend::Fused:
        root = buildNodeFused(c, ec, bo, &bs,
                              report ? &report->fuse : nullptr);
        break;
      case Backend::Native:
        root = buildNodeNative(c, ec, bo, &bs,
                               report ? &report->fuse : nullptr,
                               report ? &report->cgen : nullptr,
                               opt.cgenCacheDir);
        break;
      case Backend::Vm:
        root = buildNode(c, ec, bo, &bs);
        break;
    }
    size_t inW = root->inWidth();
    size_t outW = root->outWidth();
    auto p = std::make_unique<Pipeline>(std::move(root),
                                        layout.frameSize(), inW, outW,
                                        layout.stateSize());
    p->setRestartPolicy(opt.restart);
    p->setCheckpoint(opt.checkpoint);
    p->setMetrics(std::move(pm));
    if (report) {
        report->build = bs;
        report->buildSec = sw.elapsedSec();
        report->frameBytes = layout.frameSize();
    }
    return p;
}

std::unique_ptr<ThreadedPipeline>
compileThreadedPipeline(const CompPtr& program, const CompilerOptions& opt,
                        CompileReport* report)
{
    auto prog = compileProgram(program, opt, report);

    Stopwatch sw;
    std::vector<CompPtr> parts;
    splitStages(prog->ast, parts);

    FrameLayout layout;
    ExprCompiler ec(layout);
    std::shared_ptr<PipelineMetrics> pm;
    BuildOptions bo;
    bo.autoLut = opt.autoLut;
    bo.lutLimits = opt.lut;
    bo.lutCache = &prog->luts;
    if (opt.instrument) {
        pm = std::make_shared<PipelineMetrics>();
        bo.instrument = true;
        bo.sampleShift = opt.sampleShift;
        bo.metrics = pm.get();
    }
    BuildStats bs;
    std::vector<NodePtr> stages;
    std::vector<std::pair<size_t, size_t>> stageFrames;
    stages.reserve(parts.size());
    for (size_t i = 0; i < parts.size(); ++i) {
        std::string stagePath = "stage" + std::to_string(i);
        size_t frameLo = layout.frameSize();
        switch (opt.backend) {
          case Backend::Fused:
            stages.push_back(buildNodeFused(
                parts[i], ec, bo, &bs,
                report ? &report->fuse : nullptr, stagePath));
            break;
          case Backend::Native:
            stages.push_back(buildNodeNative(
                parts[i], ec, bo, &bs,
                report ? &report->fuse : nullptr,
                report ? &report->cgen : nullptr, opt.cgenCacheDir,
                stagePath));
            break;
          case Backend::Vm:
            stages.push_back(buildNode(parts[i], ec, bo, &bs, stagePath));
            break;
        }
        stageFrames.emplace_back(frameLo, layout.frameSize());
    }

    size_t inW = stages.front()->inWidth();
    size_t outW = stages.back()->outWidth();
    // Stage boundary widths must agree (checked stream types guarantee
    // it); queue widths are derived per boundary inside ThreadedPipeline.
    auto p = std::make_unique<ThreadedPipeline>(std::move(stages),
                                                layout.frameSize(), inW,
                                                outW, opt.queueCapacity);
    p->setStallDeadline(opt.stallDeadlineMs);
    p->setRestartPolicy(opt.restart);
    p->setStageFrames(std::move(stageFrames));
    // Stage/queue telemetry is recorded on every run once a metrics
    // object is attached; node-level counters ride the same object.
    if (!pm)
        pm = std::make_shared<PipelineMetrics>();
    p->setMetrics(std::move(pm));
    if (report) {
        report->build = bs;
        report->buildSec = sw.elapsedSec();
        report->frameBytes = layout.frameSize();
    }
    return p;
}

void
CompileReport::writeJson(metrics::JsonWriter& w) const
{
    w.field("cache_hit", cacheHit);
    w.field("total_sec", totalSec());
    w.field("frontend_sec", frontendSec);
    w.field("vectorize_sec", vectorizeSec);
    w.field("optimize_sec", optimizeSec);
    w.field("build_sec", buildSec);
    w.field("frame_bytes", frameBytes);
    w.field("signature", signature.show());
    w.beginObject("vect");
    w.field("candidates", static_cast<int64_t>(vect.generated));
    w.field("kept", static_cast<int64_t>(vect.kept));
    w.field("capped", vect.capped);
    w.field("chosen_in", vect.chosenIn);
    w.field("chosen_out", vect.chosenOut);
    w.endObject();
    w.beginObject("maps");
    w.field("auto_mapped", maps.autoMapped);
    w.field("fused", maps.fused);
    w.endObject();
    w.beginObject("build");
    w.field("nodes", build.nodes);
    w.field("map_nodes", build.mapNodes);
    w.field("luts_built", build.lutsBuilt);
    w.field("lut_bytes", build.lutBytes);
    w.endObject();
    w.beginObject("fuse");
    w.field("nodes_fused", fuse.nodesFused);
    w.field("fallbacks", fuse.fallbacks);
    w.field("fused_ops", fuse.fusedOps);
    w.field("channels", fuse.channels);
    w.endObject();
    w.beginObject("cgen");
    w.field("regions", cgen.regions);
    w.field("emitted", cgen.emitted);
    w.field("compiled", cgen.compiled);
    w.field("cache_hits", cgen.cacheHits);
    w.field("cache_misses", cgen.cacheMisses);
    w.field("fallbacks", cgen.fallbacks);
    w.field("host_bridges", cgen.hostBridges);
    w.field("compile_sec", cgen.compileSec);
    w.field("compiler", cgen.compiler);
    w.field("cache_key", cgen.cacheKey);
    w.endObject();
    w.beginArray("passes");
    for (const auto& p : passes) {
        w.beginObject();
        w.field("name", p.name);
        w.field("sec", p.sec);
        w.field("nodes_before", p.nodesBefore);
        w.field("nodes_after", p.nodesAfter);
        w.endObject();
    }
    w.endArray();
}

} // namespace ziria
