/**
 * @file
 * Program cache tests (ctest labels `tier1;sanitizer`), zir/program_cache.h:
 *
 *  - two fresh builds of the WiFi TX program share one cache entry and
 *    the second compile computes no tables;
 *  - every input the passes can tell apart is a miss: constant type,
 *    vectorization hints, noLut, `|>>>|` vs `>>>`, two native block
 *    specs of the same name, and every option the passes and tables
 *    read; options they do not read (backend, queue capacity) hit;
 *  - generated programs over three domains on every backend produce,
 *    after a hit, exactly the bytes of the miss-compile and of the
 *    unoptimized VM;
 *  - four threads compiling one program at once agree (run under
 *    `scripts/run_all.sh --sanitize=tsan`).
 */
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/metrics.h"
#include "support/rng.h"
#include "wifi/tx.h"
#include "zast/builder.h"
#include "zcgen/cgen.h"
#include "zgen/generator.h"
#include "zir/compiler.h"
#include "zir/program_cache.h"
#include "zparse/parser.h"

namespace ziria {
namespace {

using namespace zb;

/** The paper's Figure 3 scrambler: vectorizes and LUTs (2^15 entries). */
const char* kScramblerSrc = R"(
let comp scrambler() =
    var scrmbl_st : arr[7] bit := {'1,'1,'1,'1,'1,'1,'1} in
    repeat {
        seq { (x : bit) <- take : bit
            ; (tmp : bit) <- return (scrmbl_st[3] ^ scrmbl_st[0])
            ; do { scrmbl_st[0, 6] := scrmbl_st[1, 6];
                   scrmbl_st[6] := tmp; }
            ; emit (x ^ tmp)
            }
    }

scrambler()
)";

using Make = std::function<CompPtr()>;

uint64_t
counter(const char* name)
{
    return metrics::Registry::global().counter(name).value();
}

std::vector<uint8_t>
randomBits(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> out(n);
    for (auto& b : out)
        b = rng.bit();
    return out;
}

// --------------------------------------------------------------- hits

TEST(ProgramCache, FreshWifiTxBuildsHitAndComputeNoTables)
{
    ProgramCache::global().clear();
    const auto opt = CompilerOptions::forLevel(OptLevel::All);
    auto make = [] { return wifi::wifiTxDataComp(wifi::Rate::R24); };

    uint64_t hits0 = counter("ziria.compile.cache_hits");
    uint64_t misses0 = counter("ziria.compile.cache_misses");
    uint64_t luts0 = counter("ziria.luts_built");
    CompileReport first;
    auto p1 = compilePipeline(make(), opt, &first);
    EXPECT_FALSE(first.cacheHit);
    EXPECT_EQ(counter("ziria.compile.cache_misses"), misses0 + 1);
    ASSERT_GT(first.build.lutsBuilt, 0);
    EXPECT_EQ(counter("ziria.luts_built"),
              luts0 + static_cast<uint64_t>(first.build.lutsBuilt));

    uint64_t luts1 = counter("ziria.luts_built");
    CompileReport again;
    auto p2 = compilePipeline(make(), opt, &again);
    EXPECT_TRUE(again.cacheHit);
    EXPECT_EQ(counter("ziria.compile.cache_hits"), hits0 + 1);
    EXPECT_EQ(counter("ziria.luts_built"), luts1)
        << "a cache hit recomputed a table";

    // The report still describes this pipeline and the first compile.
    EXPECT_EQ(again.build.lutsBuilt, first.build.lutsBuilt);
    EXPECT_EQ(again.build.lutBytes, first.build.lutBytes);
    EXPECT_EQ(again.vect.generated, first.vect.generated);
    EXPECT_EQ(again.vect.chosenIn, first.vect.chosenIn);
    EXPECT_EQ(again.maps.autoMapped, first.maps.autoMapped);
    EXPECT_EQ(again.signature.show(), first.signature.show());
    EXPECT_EQ(again.frontendSec, 0.0);
    EXPECT_EQ(again.vectorizeSec, 0.0);
    EXPECT_EQ(again.optimizeSec, 0.0);

    // Two pipelines, one set of tables, independent state.
    auto bits = randomBits(p1->inWidth() * 400, 7);
    auto out1 = p1->runBytes(bits);
    ASSERT_FALSE(out1.empty());
    EXPECT_EQ(p2->runBytes(bits), out1);
    EXPECT_EQ(compilePipeline(make(), opt)->runBytes(bits), out1);
}

TEST(ProgramCache, TracedCompileBypassesTheCache)
{
    ProgramCache::global().clear();
    const auto opt = CompilerOptions::forLevel(OptLevel::All);
    compilePipeline(parseComp(kScramblerSrc), opt);

    PassTracer tracer(0);
    CompilerOptions traced = opt;
    traced.tracer = &tracer;
    uint64_t hits0 = counter("ziria.compile.cache_hits");
    uint64_t luts0 = counter("ziria.luts_built");
    CompileReport rep;
    compilePipeline(parseComp(kScramblerSrc), traced, &rep);
    EXPECT_FALSE(rep.cacheHit);
    EXPECT_FALSE(rep.passes.empty()) << "the passes did not run";
    EXPECT_EQ(counter("ziria.compile.cache_hits"), hits0);
    EXPECT_EQ(counter("ziria.luts_built"), luts0 + 1);
    EXPECT_EQ(ProgramCache::global().size(), 1u);
}

TEST(ProgramCache, OptimizeCompSharesTheEntry)
{
    ProgramCache::global().clear();
    const auto opt = CompilerOptions::forLevel(OptLevel::All);
    CompPtr a = optimizeComp(parseComp(kScramblerSrc), opt);
    CompileReport rep;
    compilePipeline(parseComp(kScramblerSrc), opt, &rep);
    EXPECT_TRUE(rep.cacheHit);
    EXPECT_EQ(optimizeComp(parseComp(kScramblerSrc), opt), a);
}

TEST(ProgramCache, ReportJsonCarriesCacheHit)
{
    ProgramCache::global().clear();
    const auto opt = CompilerOptions::forLevel(OptLevel::Vectorize);
    CompileReport rep;
    compilePipeline(parseComp(kScramblerSrc), opt, &rep);
    compilePipeline(parseComp(kScramblerSrc), opt, &rep);
    metrics::JsonWriter w;
    w.beginObject();
    rep.writeJson(w);
    w.endObject();
    EXPECT_NE(w.str().find("\"cache_hit\":true"), std::string::npos)
        << w.str();
}

// ------------------------------------------------------------- misses

/**
 * Compile @p a twice (the second must hit), then @p b: it must miss,
 * whatever the two programs compute.
 */
void
expectDistinct(const Make& a, const Make& b,
               const CompilerOptions& optA, const CompilerOptions& optB)
{
    ProgramCache::global().clear();
    CompileReport rep;
    compilePipeline(a(), optA, &rep);
    EXPECT_FALSE(rep.cacheHit);
    compilePipeline(a(), optA, &rep);
    EXPECT_TRUE(rep.cacheHit) << "the same program did not hit";
    compilePipeline(b(), optB, &rep);
    EXPECT_FALSE(rep.cacheHit) << "a different program hit";
    EXPECT_NE(programKey(a(), optA, nullptr), programKey(b(), optB, nullptr));
}

void
expectDistinct(const Make& a, const Make& b)
{
    const auto opt = CompilerOptions::forLevel(OptLevel::All);
    expectDistinct(a, b, opt, opt);
}

/** `repeat { x <- take int32; emit x + k }` for an int32 expression k. */
CompPtr
addConst(ExprPtr k)
{
    VarRef x = freshVar("x", Type::int32());
    return repeatc(seqc({bindc(x, take(Type::int32())),
                         just(emit(var(x) + std::move(k)))}));
}

TEST(ProgramCache, ConstantTypeWithTheSameBitsMisses)
{
    // `repeat { x <- take int64; emit x + (int64) k }`: both add 1 and
    // differ only in the literal's type (int16 1 vs int32 1).
    auto add = [](ExprPtr k) {
        VarRef x = freshVar("x", Type::int64());
        return repeatc(seqc({bindc(x, take(Type::int64())),
                             just(emit(var(x) +
                                       cast(Type::int64(), std::move(k))))}));
    };
    expectDistinct([&] { return add(cI16(1)); },
                   [&] { return add(cInt(1)); });
}

/** Bit scrambler-like body under an optional vectorization hint. */
CompPtr
xorRepeat(std::optional<VectHint> hint)
{
    VarRef x = freshVar("x", Type::bit());
    return repeatc(seqc({bindc(x, take(Type::bit())),
                         just(emit(var(x) ^ cBit(1)))}),
                   hint);
}

TEST(ProgramCache, VectHintMisses)
{
    expectDistinct([] { return xorRepeat(std::nullopt); },
                   [] { return xorRepeat(VectHint{8, 8}); });
    expectDistinct([] { return xorRepeat(VectHint{8, 8}); },
                   [] { return xorRepeat(VectHint{4, 4}); });
    expectDistinct([] { return xorRepeat(VectHint{8, 8}); },
                   [] { return xorRepeat(VectHint{8, 0}); });
}

/** `map f` over bytes, f annotated noLut or not. */
CompPtr
byteMap(bool noLut)
{
    VarRef x = freshVar("x", Type::int8());
    auto f = std::make_shared<FunDef>(
        *fun("flip", {x}, {}, var(x) ^ lit(Type::int8(), 0x5a)));
    f->noLut = noLut;
    return mapc(f);
}

TEST(ProgramCache, NoLutMisses)
{
    expectDistinct([] { return byteMap(false); },
                   [] { return byteMap(true); });
    // ... and the miss matters: only the first one LUTs.
    ProgramCache::global().clear();
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::All);
    CompileReport lut, plain;
    compilePipeline(byteMap(false), opt, &lut);
    compilePipeline(byteMap(true), opt, &plain);
    EXPECT_EQ(lut.build.lutsBuilt, 1);
    EXPECT_EQ(plain.build.lutsBuilt, 0);
}

TEST(ProgramCache, ThreadedPipeMisses)
{
    expectDistinct([] { return pipe(addConst(cInt(1)), addConst(cInt(2))); },
                   [] { return ppipe(addConst(cInt(1)), addConst(cInt(2))); });
}

std::shared_ptr<const NativeBlockSpec>
negateSpec()
{
    class Negate : public NativeKernel
    {
      public:
        bool
        consume(const uint8_t* in, Emitter& em) override
        {
            int32_t v;
            std::memcpy(&v, in, 4);
            v = static_cast<int32_t>(0u - static_cast<uint32_t>(v));
            em.emit(reinterpret_cast<const uint8_t*>(&v));
            return false;
        }
    };
    auto spec = std::make_shared<NativeBlockSpec>();
    spec->name = "Negate";
    spec->ctype = CompType{false, nullptr, Type::int32(), Type::int32()};
    spec->make = [](const std::vector<Value>&) {
        return std::make_unique<Negate>();
    };
    return spec;
}

TEST(ProgramCache, NativeSpecsAreKeyedByIdentityAndPinned)
{
    auto s1 = negateSpec();
    auto s2 = negateSpec();  // same name, same signature, other object
    expectDistinct([&] { return pipe(addConst(cInt(1)), native(s1)); },
                   [&] { return pipe(addConst(cInt(1)), native(s2)); });

    // The entry keeps its spec alive, so the address in its key cannot
    // be reused by another object while the entry exists.
    ProgramCache::global().clear();
    std::weak_ptr<const NativeBlockSpec> weak;
    {
        auto s3 = negateSpec();
        weak = s3;
        compilePipeline(pipe(addConst(cInt(1)), native(s3)),
                        CompilerOptions::forLevel(OptLevel::All));
    }
    EXPECT_FALSE(weak.expired());
    ProgramCache::global().clear();
    EXPECT_TRUE(weak.expired());
}

TEST(ProgramCache, EveryPassOptionMisses)
{
    const Make scr = [] { return parseComp(kScramblerSrc); };
    const auto base = CompilerOptions::forLevel(OptLevel::All);
    const std::vector<std::pair<const char*,
                                std::function<void(CompilerOptions&)>>>
        knobs = {
            {"fold", [](CompilerOptions& o) { o.fold = false; }},
            {"vectorize", [](CompilerOptions& o) { o.vectorize = false; }},
            {"autoMap", [](CompilerOptions& o) { o.autoMap = false; }},
            {"fuse", [](CompilerOptions& o) { o.fuse = false; }},
            {"autoLut", [](CompilerOptions& o) { o.autoLut = false; }},
            {"vect.maxWidth", [](CompilerOptions& o) { o.vect.maxWidth = 64; }},
            {"vect.maxWidthBytes",
             [](CompilerOptions& o) { o.vect.maxWidthBytes = 64; }},
            {"vect.maxSteps", [](CompilerOptions& o) { o.vect.maxSteps = 64; }},
            {"vect.maxScale", [](CompilerOptions& o) { o.vect.maxScale = 4; }},
            {"vect.utility",
             [](CompilerOptions& o) { o.vect.utility = VectUtility::Sum; }},
            {"vect.lutBonus", [](CompilerOptions& o) { o.vect.lutBonus = 1; }},
            {"vect.lutKeyBits",
             [](CompilerOptions& o) { o.vect.lutKeyBits = 10; }},
            {"vect.prune", [](CompilerOptions& o) { o.vect.prune = false; }},
            {"vect.candidateCap",
             [](CompilerOptions& o) { o.vect.candidateCap = 1000; }},
            {"lut.maxKeyBits", [](CompilerOptions& o) { o.lut.maxKeyBits = 8; }},
            {"lut.maxTableBytes",
             [](CompilerOptions& o) { o.lut.maxTableBytes = 1024; }},
            {"lut.minKeyBits", [](CompilerOptions& o) { o.lut.minKeyBits = 4; }},
        };
    for (const auto& [name, set] : knobs) {
        SCOPED_TRACE(name);
        CompilerOptions o = base;
        set(o);
        expectDistinct(scr, scr, base, o);
    }
}

TEST(ProgramCache, BackendAndRuntimeOptionsShareTheEntry)
{
    ProgramCache::global().clear();
    auto input = randomBits(8 * 512, 3);
    const auto base = CompilerOptions::forLevel(OptLevel::All);
    auto ref = compilePipeline(parseComp(kScramblerSrc), base)
                   ->runBytes(input);
    for (Backend b : {Backend::Fused, Backend::Native}) {
        CompilerOptions o = base;
        o.backend = b;
        o.queueCapacity = 64;
        CompileReport rep;
        auto p = compilePipeline(parseComp(kScramblerSrc), o, &rep);
        EXPECT_TRUE(rep.cacheHit);
        EXPECT_EQ(rep.build.lutsBuilt, 1);
        EXPECT_EQ(p->runBytes(input), ref);
    }
}

TEST(ProgramCache, BoundedByEntries)
{
    ProgramCache::global().clear();
    const auto opt = CompilerOptions::forLevel(OptLevel::None);
    for (size_t i = 0; i < kProgramCacheEntries + 8; ++i)
        compilePipeline(addConst(cInt(static_cast<int32_t>(i))), opt);
    EXPECT_EQ(ProgramCache::global().size(), kProgramCacheEntries);
    // Least recently used first: the newest is still there.
    CompileReport rep;
    compilePipeline(
        addConst(cInt(static_cast<int32_t>(kProgramCacheEntries + 7))), opt,
        &rep);
    EXPECT_TRUE(rep.cacheHit);
    compilePipeline(addConst(cInt(0)), opt, &rep);
    EXPECT_FALSE(rep.cacheHit);
}

// ------------------------------------------- generated programs, e2e

/** Longest common prefix of two byte strings. */
size_t
commonPrefix(const std::vector<uint8_t>& a, const std::vector<uint8_t>& b)
{
    size_t n = std::min(a.size(), b.size());
    size_t i = 0;
    while (i < n && a[i] == b[i])
        ++i;
    return i;
}

class GeneratedPrograms
    : public ::testing::TestWithParam<std::tuple<zgen::GenDomain, Backend>>
{
};

TEST_P(GeneratedPrograms, HitMatchesMissAndUnoptimizedVm)
{
    auto [domain, backend] = GetParam();
    if (backend == Backend::Native && !zcgen::compilerAvailable())
        GTEST_SKIP() << "no C++ compiler for the native backend";
    zgen::GenConfig cfg;
    cfg.domain = domain;
    cfg.maxStages = 3;
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::All);
    opt.backend = backend;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        auto make = [&] { return zgen::genProgram(cfg, seed).comp; };
        auto gp = zgen::genProgram(cfg, seed);
        auto input = zgen::genInput(gp.inDomain, 6 * 288, seed ^ 0xCAC4E);
        auto ref = compilePipeline(make(), CompilerOptions::forLevel(
                                               OptLevel::None))
                       ->runBytes(input);

        ProgramCache::global().clear();
        CompileReport miss, hit;
        auto missOut = compilePipeline(make(), opt, &miss)->runBytes(input);
        auto hitOut = compilePipeline(make(), opt, &hit)->runBytes(input);
        EXPECT_FALSE(miss.cacheHit);
        EXPECT_TRUE(hit.cacheHit);
        EXPECT_EQ(hit.build.lutsBuilt, miss.build.lutsBuilt);
        EXPECT_EQ(hitOut, missOut) << gp.describe;
        // Vectorized programs may hold back a partial last array, as in
        // the differential oracle; what they do emit matches the VM.
        EXPECT_EQ(commonPrefix(hitOut, ref), hitOut.size()) << gp.describe;
        EXPECT_LE(ref.size() - std::min(ref.size(), hitOut.size()), 4096u)
            << gp.describe;
    }
}

INSTANTIATE_TEST_SUITE_P(
    DomainsByBackend, GeneratedPrograms,
    ::testing::Combine(::testing::Values(zgen::GenDomain::Bits,
                                         zgen::GenDomain::Int32,
                                         zgen::GenDomain::Mixed),
                       ::testing::Values(Backend::Vm, Backend::Fused,
                                         Backend::Native)));

// -------------------------------------------------------- concurrency

TEST(ProgramCache, ConcurrentCompilesOfOneProgramAgree)
{
    ProgramCache::global().clear();
    const auto opt = CompilerOptions::forLevel(OptLevel::All);
    auto input = randomBits(8 * 512, 11);
    auto ref = compilePipeline(parseComp(kScramblerSrc),
                               CompilerOptions::forLevel(OptLevel::None))
                   ->runBytes(input);
    ProgramCache::global().clear();

    constexpr int kThreads = 4;
    std::vector<std::vector<uint8_t>> outs(kThreads);
    std::vector<int> luts(kThreads);
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t)
        ts.emplace_back([&, t] {
            for (int rep = 0; rep < 3; ++rep) {
                CompileReport r;
                auto p = compilePipeline(parseComp(kScramblerSrc), opt, &r);
                outs[t] = p->runBytes(input);
                luts[t] = r.build.lutsBuilt;
            }
        });
    for (auto& t : ts)
        t.join();
    EXPECT_EQ(ProgramCache::global().size(), 1u);
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(luts[t], 1) << "thread " << t;
        EXPECT_EQ(commonPrefix(outs[t], ref), outs[t].size())
            << "thread " << t;
        EXPECT_EQ(outs[t], outs[0]) << "thread " << t;
    }
}

} // namespace
} // namespace ziria
