/**
 * @file
 * The native build driver and the host side of the ZrCtx ABI.
 *
 * buildNodeNative runs the fused build unchanged, then emits + compiles
 * ONE translation unit for the one region it created, so a pipeline
 * (or `|>>>|` partition) pays at most one compiler invocation (usually
 * zero: the shared-object cache in jit.cc), and binds the unit's
 * `zr_region` to the FusedNode.  The node keeps its one state either
 * way; a region left unbound — no compiler on the host, a failed
 * compile, a missing symbol — simply interprets, so the fallback ladder
 * (native -> fused) never changes observable behaviour, only speed.
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

int
cbSite(void* host, uint32_t pc)
{
    return static_cast<int>(node(host).site(node(host).frame(), pc));
}

} // namespace

NodePtr
buildNodeNative(const CompPtr& c, ExprCompiler& ec,
                const BuildOptions& opt, BuildStats* stats,
                FuseStats* fstats, CgenStats* cstats,
                const std::string& cacheDir, const std::string& path)
{
    FusedNode* region = nullptr;
    NodePtr root =
        buildNodeFused(c, ec, opt, stats, fstats, path, &region, "cgen");

    CgenStats local;
    CgenStats* cs = cstats ? cstats : &local;
    ++cs->regions;
    auto& reg = metrics::Registry::global();
    auto fallBack = [&](const std::string& why) {
        std::fprintf(stderr,
                     "ziria: cgen: %s; the region falls back to the fused "
                     "interpreter\n", why.c_str());
        ++cs->fallbacks;
        reg.counter("ziria.cgen.fallbacks").inc();
        return std::move(root);
    };

    if (!zcgen::compilerAvailable())
        return fallBack("no C++ compiler found");

    ec.layout().beginScratch();
    zcgen::EmitUnit unit = zcgen::emitUnit(region->program(), ec);
    ++cs->emitted;
    cs->hostBridges += unit.hostBridges;
    reg.counter("ziria.cgen.emitted").inc();

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
    if (!jr.lib)
        return fallBack("native compilation failed: " + jr.error);

    void* fp = jr.lib->sym("zr_region");
    if (!fp)
        return fallBack("symbol zr_region missing");
    zcgen::ZrCtx host{};
    host.hostInto = &cbInto;
    host.hostInt = &cbInt;
    host.hostAction = &cbAction;
    host.hostSite = &cbSite;
    region->bindNative(jr.lib, reinterpret_cast<zcgen::ZrRegionFn>(fp),
                       host);
    return root;
}

} // namespace ziria
