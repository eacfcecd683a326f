/**
 * @file
 * The native build driver and the host side of the ZrCtx ABI.
 *
 * buildNodeNative runs the fused build unchanged, then emits + compiles
 * ONE translation unit covering every region it created, so a pipeline
 * pays at most one compiler invocation (usually zero: the shared-object
 * cache in jit.cc), and binds each region's `zr_region_<i>` to its
 * FusedNode.  The node keeps its one state either way; a region left
 * unbound — no compiler on the host, a failed compile, a missing symbol
 * — simply interprets, so the fallback ladder (native -> fused) never
 * changes observable behaviour, only speed.
 */
#include "zcgen/cgen.h"

#include <cstdio>

#include "support/metrics.h"
#include "zcgen/abi.h"
#include "zcgen/emit.h"

namespace ziria {

using zfuse::FuseProgram;

namespace {

// ---- host callbacks from generated code (host = the FusedNode) -------

FusedNode&
node(void* host)
{
    return *static_cast<FusedNode*>(host);
}

void
cbInto(void* host, int32_t idx, uint8_t* dst)
{
    node(host).program().intoFns[idx](node(host).frame(), dst);
}

int64_t
cbInt(void* host, int32_t idx)
{
    return node(host).program().intFns[idx](node(host).frame());
}

void
cbAction(void* host, int32_t idx)
{
    node(host).program().actions[idx](node(host).frame());
}

} // namespace

NodePtr
buildNodeNative(const CompPtr& c, ExprCompiler& ec,
                const BuildOptions& opt, BuildStats* stats,
                FuseStats* fstats, CgenStats* cstats,
                const std::string& cacheDir, const std::string& path)
{
    std::vector<FusedNode*> regions;
    NodePtr root =
        buildNodeFused(c, ec, opt, stats, fstats, path, &regions, "cgen");

    CgenStats local;
    CgenStats* cs = cstats ? cstats : &local;
    cs->regions += static_cast<int>(regions.size());
    auto& reg = metrics::Registry::global();

    if (regions.empty())
        return root;

    if (!zcgen::compilerAvailable()) {
        std::fprintf(stderr,
                     "ziria: cgen: no C++ compiler found; %zu region(s) "
                     "fall back to the fused interpreter\n",
                     regions.size());
        cs->fallbacks += static_cast<int>(regions.size());
        reg.counter("ziria.cgen.fallbacks").add(regions.size());
        return root;
    }

    std::vector<const FuseProgram*> progs;
    progs.reserve(regions.size());
    for (FusedNode* n : regions)
        progs.push_back(&n->program());
    ec.layout().beginScratch();
    zcgen::EmitUnit unit = zcgen::emitUnit(progs, ec);
    cs->emitted += static_cast<int>(regions.size());
    cs->hostBridges += unit.hostBridges;
    reg.counter("ziria.cgen.emitted").add(regions.size());

    zcgen::JitResult jr = zcgen::compileUnit(
        unit.source, zcgen::resolveCacheDir(cacheDir));
    cs->cacheKey = jr.key;
    cs->compiler = zcgen::compilerVersion();
    cs->compileSec += jr.compileSec;
    if (jr.cacheHit) {
        ++cs->cacheHits;
        reg.counter("ziria.cgen.cache_hits").inc();
    } else {
        ++cs->cacheMisses;
        reg.counter("ziria.cgen.cache_misses").inc();
        if (jr.lib) {
            ++cs->compiled;
            reg.counter("ziria.cgen.compiled").inc();
        }
    }
    if (!jr.lib) {
        std::fprintf(stderr,
                     "ziria: cgen: native compilation failed; %zu "
                     "region(s) fall back to the fused interpreter: %s\n",
                     regions.size(), jr.error.c_str());
        cs->fallbacks += static_cast<int>(regions.size());
        reg.counter("ziria.cgen.fallbacks").add(regions.size());
        return root;
    }

    zcgen::ZrCtx host{};
    host.hostInto = &cbInto;
    host.hostInt = &cbInt;
    host.hostAction = &cbAction;
    for (size_t i = 0; i < regions.size(); ++i) {
        std::string sym = "zr_region_" + std::to_string(i);
        void* fp = jr.lib->sym(sym.c_str());
        if (!fp) {
            std::fprintf(stderr,
                         "ziria: cgen: symbol %s missing; region falls "
                         "back to the fused interpreter\n", sym.c_str());
            ++cs->fallbacks;
            reg.counter("ziria.cgen.fallbacks").inc();
            continue;
        }
        regions[i]->bindNative(
            jr.lib, reinterpret_cast<zcgen::ZrRegionFn>(fp), host);
    }
    return root;
}

} // namespace ziria
