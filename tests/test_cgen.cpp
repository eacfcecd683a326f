/**
 * @file
 * Native code-generation backend tests (ctest labels
 * `tier1;cgen;diff;sanitizer`):
 *
 *  - region finding and fallback ladder: whole fusible programs become
 *    one dlopen'd region, native blocks and threaded `|>>>|` keep the
 *    VM spine, and everything stays bit-identical to the VM;
 *  - the three-backend differential oracle {O0..O3} x {vec} x
 *    {vm,fused,native} on generated programs — the VM is the
 *    semantics, the machine code must match bit-exactly;
 *  - IEEE 802.11a Annex-G conformance executed natively at all eight
 *    rates: golden TX chain (zero fallbacks) and TX -> channel -> RX
 *    round trips;
 *  - the on-disk shared-object cache: miss-then-hit, corrupt
 *    .so/manifest quarantine + recompile, stale-key misses, cache-key
 *    determinism, and the ziria.cgen.* counters;
 *  - the loud compile-time refusal of --backend=native with
 *    stage-scoped restart (checkpoint/restore of native regions lives
 *    in test_checkpoint.cpp).
 *
 * Tests that require real machine code gate on
 * zcgen::compilerAvailable(); without a compiler the backend degrades
 * to the bytecode interpreter, which the differential tests still
 * validate.
 */
#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "channel/channel.h"
#include "dsp/constellation.h"
#include "support/diff_runner.h"
#include "support/fault_injector.h"
#include "support/metrics.h"
#include "support/panic.h"
#include "support/rng.h"
#include "wifi/blocks_tx.h"
#include "wifi/rx.h"
#include "wifi/tx.h"
#include "zast/builder.h"
#include "zast/printer.h"
#include "zcgen/cgen.h"
#include "zexpr/compile_expr.h"
#include "zexpr/natives.h"
#include "zgen/generator.h"
#include "zir/compiler.h"
#include "zopt/passes.h"

namespace ziria {
namespace {

using namespace zb;
using namespace wifi;
using difftest::DiffConfig;
using difftest::runDifferential;
using testsupport::intBytes;
using testsupport::throwAtBlock;
using zgen::GenConfig;
using zgen::GenDomain;
using zgen::GenProgram;

// ------------------------------------------------- cache-dir plumbing

std::string
makeTempDir()
{
    char tmpl[] = "/tmp/ziria-cgen-test-XXXXXX";
    char* dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr) << "mkdtemp failed";
    return dir ? std::string(dir) : std::string();
}

/**
 * Every test in this binary compiles into one private cache directory
 * (via $ZIRIA_CGEN_CACHE) so runs neither pollute nor depend on the
 * user's ~/.cache/ziria/zcgen.  Cache-behavior tests that need a cold
 * cache make their own directory and pass it explicitly.
 */
class CgenCacheEnv : public ::testing::Environment
{
  public:
    void
    SetUp() override
    {
        std::string dir = makeTempDir();
        ASSERT_FALSE(dir.empty());
        setenv("ZIRIA_CGEN_CACHE", dir.c_str(), 1);
    }
};

[[maybe_unused]] const ::testing::Environment* const kCacheEnv =
    ::testing::AddGlobalTestEnvironment(new CgenCacheEnv);

bool
fileExists(const std::string& path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

int
countSuffix(const std::string& dir, const std::string& suffix)
{
    DIR* d = opendir(dir.c_str());
    if (!d)
        return 0;
    int n = 0;
    while (struct dirent* e = readdir(d)) {
        std::string name = e->d_name;
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            ++n;
    }
    closedir(d);
    return n;
}

void
scribbleFile(const std::string& path, const std::string& contents)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
}

// ------------------------------------------------------------ helpers

CompPtr
incBlock(int32_t delta)
{
    VarRef x = freshVar("x", Type::int32());
    return repeatc(seqc({bindc(x, take(Type::int32())),
                         just(emit(var(x) + delta))}));
}

CompilerOptions
nativeConf(OptLevel lvl = OptLevel::None)
{
    CompilerOptions opt = CompilerOptions::forLevel(lvl);
    opt.backend = Backend::Native;
    return opt;
}

/** A minimal valid translation unit for direct compileUnit tests. */
const std::string kToySource =
    "extern \"C\" int zr_abi(void) { return " +
    std::to_string(zcgen::kZrAbiVersion) + "; }\n"
    "extern \"C\" int zr_toy(int x) { return x + 41; }\n";

// ------------------------------------------------- matrix shape/axes

TEST(NativeMatrix, ShapeAndBackendMapping)
{
    auto m = difftest::nativeMatrix();
    ASSERT_EQ(m.size(), 24u);

    // Config 0 is the unoptimized VM baseline.
    EXPECT_EQ(m[0].optTier, 0);
    EXPECT_FALSE(m[0].vectorize);
    EXPECT_FALSE(m[0].fused);
    EXPECT_FALSE(m[0].native);
    EXPECT_EQ(m[0].options().backend, Backend::Vm);

    int vm = 0, fz = 0, ng = 0;
    for (const DiffConfig& c : m) {
        if (c.native) {
            ++ng;
            EXPECT_EQ(c.options().backend, Backend::Native);
            EXPECT_NE(c.name.find("/ng"), std::string::npos) << c.name;
        } else if (c.fused) {
            ++fz;
            EXPECT_EQ(c.options().backend, Backend::Fused);
        } else {
            ++vm;
            EXPECT_EQ(c.options().backend, Backend::Vm);
        }
    }
    EXPECT_EQ(vm, 8);
    EXPECT_EQ(fz, 8);
    EXPECT_EQ(ng, 8);

    // The backend axis counts as one dimension of distance, so a
    // vm-vs-native divergence at identical flags localizes to codegen.
    DiffConfig a = m[0], b = m[16];
    ASSERT_TRUE(b.native);
    ASSERT_EQ(b.optTier, 0);
    EXPECT_EQ(DiffConfig::distance(a, b), 1);
}

// --------------------------------------------------- region lowering

TEST(NativeLowering, WholeProgramBecomesOneNativeRegion)
{
    CompileReport rep;
    auto p = compilePipeline(pipe(incBlock(1), incBlock(10)),
                             nativeConf(), &rep);
    EXPECT_EQ(rep.fuse.nodesFused, 1);
    EXPECT_EQ(rep.fuse.fallbacks, 0);
    EXPECT_EQ(rep.cgen.regions, 1);
    if (zcgen::compilerAvailable()) {
        EXPECT_EQ(rep.cgen.emitted, 1);
        EXPECT_EQ(rep.cgen.fallbacks, 0);
        EXPECT_EQ(rep.cgen.cacheHits + rep.cgen.cacheMisses, 1);
        EXPECT_EQ(rep.cgen.cacheKey.size(), 16u);
        EXPECT_FALSE(rep.cgen.compiler.empty());
    } else {
        EXPECT_EQ(rep.cgen.fallbacks, 1);
    }

    std::vector<int32_t> in(256);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i * 7 - 100);
    auto bytes = intBytes(in);
    auto vm = compilePipeline(pipe(incBlock(1), incBlock(10)),
                              CompilerOptions::forLevel(OptLevel::None));
    EXPECT_EQ(p->runBytes(bytes), vm->runBytes(bytes));
}

TEST(NativeLowering, NativeBlockFallsBackInsideNativeTree)
{
    // cgen >>> native block: the pipe spine stays on the VM, the left
    // child becomes a compiled region, the native leaf runs as-is.
    CompileReport rep;
    auto p = compilePipeline(
        pipe(incBlock(1), throwAtBlock(uint64_t(1) << 62)),
        nativeConf(), &rep);
    EXPECT_EQ(rep.fuse.nodesFused, 1);
    EXPECT_GE(rep.fuse.fallbacks, 2);  // pipe spine + native leaf
    EXPECT_EQ(rep.cgen.regions, 1);

    std::vector<int32_t> in(64);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i);
    auto bytes = intBytes(in);
    auto vm = compilePipeline(
        pipe(incBlock(1), throwAtBlock(uint64_t(1) << 62)),
        CompilerOptions::forLevel(OptLevel::None));
    EXPECT_EQ(p->runBytes(bytes), vm->runBytes(bytes));
}

TEST(NativeLowering, ThreadedPartitionsBecomeSeparateRegions)
{
    CompileReport rep;
    auto p = compileThreadedPipeline(ppipe(incBlock(1), incBlock(2)),
                                     nativeConf(), &rep);
    EXPECT_EQ(rep.cgen.regions, 2);

    std::vector<int32_t> in(512);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(3 * i);
    auto bytes = intBytes(in);
    auto vm = compileThreadedPipeline(
        ppipe(incBlock(1), incBlock(2)),
        CompilerOptions::forLevel(OptLevel::None));

    MemSource srcA(bytes, 4);
    VecSink sinkA(4);
    p->run(srcA, sinkA);
    MemSource srcB(bytes, 4);
    VecSink sinkB(4);
    vm->run(srcB, sinkB);
    EXPECT_EQ(sinkA.data(), sinkB.data());
}

TEST(NativeLowering, MetricsCountersAdvance)
{
    auto& reg = metrics::Registry::global();
    uint64_t emittedBefore = reg.counter("ziria.cgen.emitted").value();
    uint64_t servedBefore = reg.counter("ziria.cgen.cache_hits").value() +
                            reg.counter("ziria.cgen.cache_misses").value();
    uint64_t fallbackBefore = reg.counter("ziria.cgen.fallbacks").value();

    compilePipeline(incBlock(5), nativeConf());

    if (zcgen::compilerAvailable()) {
        EXPECT_GE(reg.counter("ziria.cgen.emitted").value(),
                  emittedBefore + 1);
        EXPECT_GE(reg.counter("ziria.cgen.cache_hits").value() +
                      reg.counter("ziria.cgen.cache_misses").value(),
                  servedBefore + 1);
    } else {
        EXPECT_GE(reg.counter("ziria.cgen.fallbacks").value(),
                  fallbackBefore + 1);
    }
}

TEST(NativeLowering, TracingReportsRegionsAsCgen)
{
    CompilerOptions opt = nativeConf();
    opt.instrument = true;
    auto p = compilePipeline(pipe(incBlock(1), incBlock(2)), opt);
    ASSERT_NE(p->metrics(), nullptr);
    std::vector<int32_t> in(32, 7);
    EXPECT_EQ(p->runBytes(intBytes(in)).size(), in.size() * 4);

    ASSERT_EQ(p->metrics()->nodes.size(), 1u);
    const auto& nm = p->metrics()->nodes.front();
    EXPECT_EQ(nm.kind, "cgen");
    EXPECT_EQ(nm.path, "root");
    EXPECT_GT(nm.advances, 0u);
}

TEST(NativeLowering, LutSitesCompileInline)
{
    // Generated code runs the kernel a LUT was built from instead of
    // calling back into the host table, so an auto-LUT region is
    // bridge-free; the table stays for the interpreter.
    if (!zcgen::compilerAvailable())
        GTEST_SKIP() << "no C++ compiler on this host";
    CompileReport rep;
    auto n = compilePipeline(scramblerBlock(), nativeConf(OptLevel::All),
                             &rep);
    ASSERT_GT(rep.build.lutsBuilt, 0);
    EXPECT_EQ(rep.cgen.hostBridges, 0);
    EXPECT_EQ(rep.cgen.fallbacks, 0);
    auto vm = compilePipeline(scramblerBlock(),
                              CompilerOptions::forLevel(OptLevel::All));
    Rng rng(11);
    std::vector<uint8_t> bits(4099);
    for (auto& b : bits)
        b = rng.bit();
    EXPECT_EQ(n->runBytes(bits), vm->runBytes(bits));

    // The whole WiFi TX data path, every rate.
    for (Rate r : allRates()) {
        CompileReport tr;
        compilePipeline(wifiTxDataComp(r), nativeConf(OptLevel::All), &tr);
        EXPECT_GT(tr.build.lutsBuilt, 0) << rateInfo(r).mbps << " Mbps";
        EXPECT_EQ(tr.cgen.hostBridges, 0) << rateInfo(r).mbps << " Mbps";
        EXPECT_EQ(tr.cgen.fallbacks, 0) << rateInfo(r).mbps << " Mbps";
    }
}

// ------------------------------------------- differential equivalence

void
checkNativeSeed(const GenConfig& cfg, uint64_t seed, size_t elems)
{
    GenProgram prog = zgen::genProgram(cfg, seed);
    auto input = zgen::genInput(prog.inDomain, elems, seed ^ 0xD1FF);
    auto make = [&] { return zgen::genProgram(cfg, seed).comp; };
    auto outcome = runDifferential(make, input, difftest::nativeMatrix(),
                                   prog.describe, /*slackBytes=*/4096);
    EXPECT_TRUE(outcome.agree) << "seed=" << seed << "\n" << outcome.report;
    EXPECT_EQ(outcome.configsRun, 24);
    EXPECT_GT(outcome.baselineBytes, 0u)
        << "seed=" << seed << " " << prog.describe;
}

class NativeBitPrograms : public ::testing::TestWithParam<int>
{
};

TEST_P(NativeBitPrograms, VmFusedAndNativeAgree)
{
    GenConfig cfg;
    cfg.domain = GenDomain::Bits;
    cfg.maxStages = 3;
    checkNativeSeed(cfg, static_cast<uint64_t>(GetParam()), 6 * 288 * 2);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NativeBitPrograms, ::testing::Range(1, 6));

class NativeInt32Programs : public ::testing::TestWithParam<int>
{
};

TEST_P(NativeInt32Programs, VmFusedAndNativeAgree)
{
    GenConfig cfg;
    cfg.domain = GenDomain::Int32;
    cfg.maxStages = 3;
    checkNativeSeed(cfg, static_cast<uint64_t>(GetParam()), 2048);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NativeInt32Programs,
                         ::testing::Range(1, 6));

class NativeMixedPrograms : public ::testing::TestWithParam<int>
{
};

TEST_P(NativeMixedPrograms, VmFusedAndNativeAgree)
{
    GenConfig cfg;
    cfg.domain = GenDomain::Mixed;
    cfg.maxStages = 4;
    checkNativeSeed(cfg, static_cast<uint64_t>(GetParam()), 4096);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NativeMixedPrograms,
                         ::testing::Range(1, 5));

// ------------------------------------------------- Annex-G conformance
//
// The same golden vectors test_conformance.cpp locks down for the VM
// and the fused interpreter, executed by dlopen'd machine code.  The
// helper duplicates are intentional: this suite must keep standing on
// its own if the conformance file is reorganized.

std::vector<std::string>
goldenLines(const std::string& name)
{
    std::string path = std::string(ZIRIA_TEST_DATA_DIR "/annexg/") + name;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing golden file " << path
                           << " (regenerate: python3 scripts/gen_annexg.py)";
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#')
            lines.push_back(line);
    }
    return lines;
}

std::vector<Complex16>
parsePoints(const std::vector<std::string>& lines)
{
    std::vector<Complex16> out;
    for (const auto& ln : lines) {
        std::istringstream is(ln);
        int re, im;
        is >> re >> im;
        out.push_back(Complex16{static_cast<int16_t>(re),
                                static_cast<int16_t>(im)});
    }
    return out;
}

std::vector<Complex16>
bytesToSamples(const std::vector<uint8_t>& bytes)
{
    std::vector<Complex16> out(bytes.size() / 4);
    std::memcpy(out.data(), bytes.data(), out.size() * 4);
    return out;
}

std::vector<uint8_t>
samplesToBytes(const std::vector<Complex16>& xs)
{
    std::vector<uint8_t> out(xs.size() * 4);
    std::memcpy(out.data(), xs.data(), out.size());
    return out;
}

/** The fixed conformance payload (mirrored in gen_annexg.py). */
std::vector<uint8_t>
conformancePayload(int n = 100)
{
    std::vector<uint8_t> out(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        out[static_cast<size_t>(i)] =
            static_cast<uint8_t>((7 * i + 13) & 0xFF);
    return out;
}

class NativeTxChainGolden : public ::testing::TestWithParam<Rate>
{
};

TEST_P(NativeTxChainGolden, MatchesGoldenAndVmAtEveryRate)
{
    Rate rate = GetParam();
    const RateInfo& ri = rateInfo(rate);
    auto golden = parsePoints(goldenLines(
        std::string("txchain_r") + std::to_string(ri.mbps) + ".txt"));
    auto dataBits = assembleDataBits(conformancePayload(), rate);

    auto chain = [&] {
        return zb::pipe(
            zb::pipe(zb::pipe(scramblerBlock(), encoderBlock(ri.coding)),
                     interleaverBlock(ri.modulation)),
            modulatorBlock(ri.modulation));
    };

    // Unoptimized native: exact golden match, full length, and — with a
    // compiler present — the whole TX chain as one region with zero
    // interpreter fallbacks.
    CompileReport rep;
    auto n0 = compilePipeline(chain(), nativeConf(OptLevel::None), &rep);
    EXPECT_EQ(rep.fuse.fallbacks, 0)
        << "the TX chain should fuse into one region";
    if (zcgen::compilerAvailable()) {
        EXPECT_EQ(rep.cgen.fallbacks, 0)
            << "the TX chain region should run natively";
    }
    auto got0 = bytesToSamples(n0->runBytes(dataBits));
    ASSERT_EQ(got0.size(), golden.size()) << ri.mbps << " Mbps";
    for (size_t i = 0; i < golden.size(); ++i) {
        ASSERT_EQ(got0[i].re, golden[i].re)
            << ri.mbps << " Mbps, point " << i;
        ASSERT_EQ(got0[i].im, golden[i].im)
            << ri.mbps << " Mbps, point " << i;
    }

    // Optimized: native must equal the optimized VM byte for byte —
    // including any vectorization tail behavior.
    auto vm1 = compilePipeline(chain(),
                               CompilerOptions::forLevel(OptLevel::All));
    auto n1 = compilePipeline(chain(), nativeConf(OptLevel::All));
    EXPECT_EQ(n1->runBytes(dataBits), vm1->runBytes(dataBits))
        << ri.mbps << " Mbps (optimized)";
}

INSTANTIATE_TEST_SUITE_P(AllRates, NativeTxChainGolden,
                         ::testing::Values(Rate::R6, Rate::R9, Rate::R12,
                                           Rate::R18, Rate::R24, Rate::R36,
                                           Rate::R48, Rate::R54));

class NativeRoundTrip : public ::testing::TestWithParam<Rate>
{
};

TEST_P(NativeRoundTrip, NativeTxToNativeRxDecodes)
{
    // Native TX -> channel -> native RX.  The receiver leans on native
    // blocks (FFT, CCA), so this also proves compiled regions compose
    // with the VM-fallback spine inside one real pipeline.
    Rate rate = GetParam();
    Rng rng(600 + static_cast<uint64_t>(rate));
    std::vector<uint8_t> payload(72);
    for (auto& b : payload)
        b = static_cast<uint8_t>(rng.next());

    auto tx = compilePipeline(
        wifiTxFrameComp(rate, static_cast<int>(payload.size())),
        nativeConf(OptLevel::None));
    auto txSamples = bytesToSamples(tx->runBytes(bytesToBits(payload)));

    // Identical channel seed to ZiriaRoundTrip (test_conformance.cpp):
    // the native TX must produce the same waveform, so the same channel
    // decodes it.
    channel::ChannelConfig cfg;
    cfg.snrDb = 35.0;
    cfg.delaySamples = 220;
    cfg.trailSamples = 120;
    cfg.phaseRad = 0.3;
    cfg.gain = 0.9;
    cfg.seed = 1000 + static_cast<uint64_t>(rate);
    auto rxSamples = channel::applyChannel(txSamples, cfg);

    auto rx = compilePipeline(wifiReceiverComp(),
                              nativeConf(OptLevel::None));
    RunStats st;
    auto bits = rx->runBytes(samplesToBytes(rxSamples), &st);
    ASSERT_TRUE(st.halted) << rateInfo(rate).mbps << " Mbps: no detection";
    ASSERT_EQ(st.ctrl.size(), 4u);
    int32_t crcOk = 0;
    std::memcpy(&crcOk, st.ctrl.data(), 4);
    EXPECT_EQ(crcOk, 1) << rateInfo(rate).mbps << " Mbps: CRC failed";

    auto bytes = bitsToBytes(bits);
    ASSERT_GE(bytes.size(), payload.size());
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), bytes.begin()))
        << rateInfo(rate).mbps << " Mbps: payload mismatch";
}

INSTANTIATE_TEST_SUITE_P(AllRates, NativeRoundTrip,
                         ::testing::Values(Rate::R6, Rate::R9, Rate::R12,
                                           Rate::R18, Rate::R24, Rate::R36,
                                           Rate::R48, Rate::R54));

// ------------------------------------------------ shared-object cache

TEST(CgenCache, MissThenHitRoundTrip)
{
    if (!zcgen::compilerAvailable())
        GTEST_SKIP() << "no C++ compiler on this host";
    std::string dir = makeTempDir();

    auto cold = zcgen::compileUnit(kToySource, dir);
    ASSERT_NE(cold.lib, nullptr) << cold.error;
    EXPECT_FALSE(cold.cacheHit);
    EXPECT_GT(cold.compileSec, 0.0);
    ASSERT_EQ(cold.key.size(), 16u);
    EXPECT_TRUE(fileExists(dir + "/" + cold.key + ".so"));
    EXPECT_TRUE(fileExists(dir + "/" + cold.key + ".manifest"));
    EXPECT_TRUE(fileExists(dir + "/" + cold.key + ".cc"));

    auto fn = reinterpret_cast<int (*)(int)>(cold.lib->sym("zr_toy"));
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn(1), 42);

    auto warm = zcgen::compileUnit(kToySource, dir);
    ASSERT_NE(warm.lib, nullptr) << warm.error;
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.key, cold.key);
    auto fn2 = reinterpret_cast<int (*)(int)>(warm.lib->sym("zr_toy"));
    ASSERT_NE(fn2, nullptr);
    EXPECT_EQ(fn2(2), 43);
}

TEST(CgenCache, CorruptSharedObjectIsQuarantinedAndRecompiled)
{
    if (!zcgen::compilerAvailable())
        GTEST_SKIP() << "no C++ compiler on this host";
    std::string dir = makeTempDir();

    std::string key;
    {
        auto cold = zcgen::compileUnit(kToySource, dir);
        ASSERT_NE(cold.lib, nullptr) << cold.error;
        key = cold.key;
    }  // dlclose before corrupting: the object must not stay mapped
    scribbleFile(dir + "/" + key + ".so", "definitely not an ELF");

    auto again = zcgen::compileUnit(kToySource, dir);
    ASSERT_NE(again.lib, nullptr) << again.error;
    EXPECT_FALSE(again.cacheHit) << "a torn object must not be served";
    EXPECT_GE(countSuffix(dir, ".bad"), 1)
        << "the corrupt entry should be quarantined, not deleted";
    auto fn = reinterpret_cast<int (*)(int)>(again.lib->sym("zr_toy"));
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn(0), 41);

    // The reinstalled entry serves hits again.
    auto warm = zcgen::compileUnit(kToySource, dir);
    ASSERT_NE(warm.lib, nullptr);
    EXPECT_TRUE(warm.cacheHit);
}

TEST(CgenCache, CorruptManifestIsQuarantinedAndRecompiled)
{
    if (!zcgen::compilerAvailable())
        GTEST_SKIP() << "no C++ compiler on this host";
    std::string dir = makeTempDir();

    auto cold = zcgen::compileUnit(kToySource, dir);
    ASSERT_NE(cold.lib, nullptr) << cold.error;
    scribbleFile(dir + "/" + cold.key + ".manifest",
                 "ZCG1\nkey 0000000000000000\n");

    auto again = zcgen::compileUnit(kToySource, dir);
    ASSERT_NE(again.lib, nullptr) << again.error;
    EXPECT_FALSE(again.cacheHit);
    EXPECT_GE(countSuffix(dir, ".bad"), 1);
}

TEST(CgenCache, DifferentSourceMissesWithDifferentKey)
{
    if (!zcgen::compilerAvailable())
        GTEST_SKIP() << "no C++ compiler on this host";
    std::string dir = makeTempDir();

    auto a = zcgen::compileUnit(kToySource, dir);
    ASSERT_NE(a.lib, nullptr) << a.error;
    std::string other = kToySource +
                        "extern \"C\" int zr_toy2(int x) { return x; }\n";
    auto b = zcgen::compileUnit(other, dir);
    ASSERT_NE(b.lib, nullptr) << b.error;
    EXPECT_FALSE(b.cacheHit) << "a stale key must not hit";
    EXPECT_NE(a.key, b.key);
}

TEST(CgenCache, WarmPipelineRecompileIsAPureHit)
{
    if (!zcgen::compilerAvailable())
        GTEST_SKIP() << "no C++ compiler on this host";
    std::string dir = makeTempDir();

    CompilerOptions opt = nativeConf();
    opt.cgenCacheDir = dir;  // --cgen-cache-dir wins over the env var

    auto& reg = metrics::Registry::global();
    uint64_t hitsBefore = reg.counter("ziria.cgen.cache_hits").value();
    uint64_t missBefore = reg.counter("ziria.cgen.cache_misses").value();

    CompileReport cold;
    auto p1 = compilePipeline(pipe(incBlock(3), incBlock(4)), opt, &cold);
    EXPECT_EQ(cold.cgen.cacheMisses, 1);
    EXPECT_EQ(cold.cgen.compiled, 1);
    EXPECT_EQ(cold.cgen.cacheHits, 0);
    EXPECT_GT(cold.cgen.compileSec, 0.0);

    CompileReport warm;
    auto p2 = compilePipeline(pipe(incBlock(3), incBlock(4)), opt, &warm);
    EXPECT_GE(warm.cgen.cacheHits, 1);
    EXPECT_EQ(warm.cgen.compiled, 0) << "a warm cache must not recompile";
    EXPECT_EQ(warm.cgen.cacheKey, cold.cgen.cacheKey);

    EXPECT_GE(reg.counter("ziria.cgen.cache_hits").value(),
              hitsBefore + 1);
    EXPECT_GE(reg.counter("ziria.cgen.cache_misses").value(),
              missBefore + 1);

    std::vector<int32_t> in(128);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i);
    auto bytes = intBytes(in);
    EXPECT_EQ(p1->runBytes(bytes), p2->runBytes(bytes));
}

TEST(CgenCache, CacheKeyHashIsDeterministic)
{
    // FNV-1a 64 reference vectors; the key must be stable across runs
    // or the on-disk cache would never hit.
    EXPECT_EQ(zcgen::fnv1a64Hex(""), "cbf29ce484222325");
    EXPECT_EQ(zcgen::fnv1a64Hex("a"), "af63dc4c8601ec8c");
    EXPECT_EQ(zcgen::fnv1a64Hex(kToySource),
              zcgen::fnv1a64Hex(kToySource));
    EXPECT_NE(zcgen::fnv1a64Hex("a"), zcgen::fnv1a64Hex("b"));
}

// ------------------------------------------ edge-value operator table

/** One result: the value's bytes, or the trap's message. */
struct Outcome
{
    std::vector<uint8_t> bytes;
    std::string trap;

    bool operator==(const Outcome&) const = default;
};

std::string
show(const Outcome& o)
{
    if (!o.trap.empty())
        return "trap \"" + o.trap + "\"";
    std::string s = "bytes";
    char b[4];
    for (uint8_t x : o.bytes) {
        std::snprintf(b, sizeof b, " %02x", x);
        s += b;
    }
    return s;
}

/** Builds an operator's expression from fresh operand expressions. */
using OperandFn = std::function<ExprPtr(size_t)>;

struct EdgeOp
{
    std::string name;
    std::function<ExprPtr(const OperandFn&)> build;
    /** Operand values per position; the cases are their product. */
    std::vector<std::vector<Value>> edges;
    /** foldExpr must fold constant operands unless the operator traps. */
    bool folds = false;
};

/**
 * Operators sharing operand and result types.  A family runs as one
 * stream program `repeat { x <- take S; emit e }`: S is the struct
 * {sel: int32, f0, f1, ...} and e applies operator `sel` to the fields,
 * so a family costs one native compile.
 */
struct EdgeFamily
{
    std::string name;
    std::vector<TypePtr> operands;
    std::vector<EdgeOp> ops;
};

struct EdgeCase
{
    size_t op;
    std::vector<Value> args;
};

TypePtr
edgeStruct(const EdgeFamily& fam)
{
    std::vector<std::pair<std::string, TypePtr>> fields = {
        {"sel", Type::int32()}};
    for (size_t i = 0; i < fam.operands.size(); ++i)
        fields.emplace_back("f" + std::to_string(i), fam.operands[i]);
    return Type::strct("edge_" + fam.name, fields);
}

std::vector<EdgeCase>
edgeCases(const EdgeFamily& fam)
{
    std::vector<EdgeCase> out;
    for (size_t o = 0; o < fam.ops.size(); ++o) {
        std::vector<std::vector<Value>> tuples = {{}};
        for (size_t i = 0; i < fam.operands.size(); ++i) {
            const auto& e = fam.ops[o].edges;
            std::vector<Value> vals = i < e.size()
                ? e[i]
                : std::vector<Value>{Value::zeroOf(fam.operands[i])};
            std::vector<std::vector<Value>> next;
            for (const auto& t : tuples) {
                for (const auto& v : vals) {
                    next.push_back(t);
                    next.back().push_back(v);
                }
            }
            tuples = std::move(next);
        }
        for (auto& t : tuples)
            out.push_back(EdgeCase{o, std::move(t)});
    }
    return out;
}

/** One input element: sel, then the operand bytes at their offsets. */
std::vector<uint8_t>
edgeInput(const TypePtr& s, const EdgeCase& c)
{
    std::vector<uint8_t> b(s->byteWidth());
    int32_t sel = static_cast<int32_t>(c.op);
    std::memcpy(b.data(), &sel, 4);
    for (size_t i = 0; i < c.args.size(); ++i) {
        std::vector<uint8_t> v = c.args[i].bytes();
        long off = s->fieldOffset("f" + std::to_string(i));
        std::memcpy(b.data() + off, v.data(), v.size());
    }
    return b;
}

/** Evaluate @p e with the closure VM, writing @p in to @p x first. */
Outcome
evalVm(const ExprPtr& e, const VarRef& x, const std::vector<uint8_t>& in)
{
    FrameLayout layout;
    ExprCompiler ec(layout);
    EvalInto into = ec.compileInto(e);
    size_t off = layout.add(x);
    Frame fr(layout.frameSize());
    std::memcpy(fr.at(off), in.data(), in.size());
    Outcome o;
    o.bytes.resize(e->type()->byteWidth());
    try {
        into(fr, o.bytes.data());
    } catch (const FatalError& err) {
        o.bytes.clear();
        o.trap = err.what();
    }
    return o;
}

CompPtr
edgeProgram(const EdgeFamily& fam, const TypePtr& s)
{
    VarRef x = freshVar("x", s);
    OperandFn arg = [&](size_t i) {
        return field(var(x), "f" + std::to_string(i));
    };
    ExprPtr e = fam.ops.back().build(arg);
    for (size_t o = fam.ops.size() - 1; o-- > 0;) {
        e = cond(field(var(x), "sel") == static_cast<int64_t>(o),
                 fam.ops[o].build(arg), e);
    }
    return repeatc(seqc({bindc(x, take(s)), just(emit(e))}));
}

/** Run @p input through the family's program on one backend. */
Outcome
runEdge(const EdgeFamily& fam, const TypePtr& s, Backend be,
        const std::vector<uint8_t>& input)
{
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.backend = be;
    Outcome o;
    try {
        CompileReport rep;
        auto p = compilePipeline(edgeProgram(fam, s), opt, &rep);
        if (be == Backend::Native) {
            // Every operator must be generated code, not a host bridge.
            EXPECT_EQ(rep.cgen.hostBridges, 0) << fam.name;
            EXPECT_EQ(rep.cgen.fallbacks, 0) << fam.name;
        }
        o.bytes = p->runBytes(input);
    } catch (const FatalError& err) {
        o.trap = err.what();
    }
    return o;
}

std::vector<Value>
intEdges(const TypePtr& t, std::vector<int64_t> extra = {})
{
    int w = static_cast<int>(t->bitWidth());
    std::vector<int64_t> vs;
    if (w == 1) {
        vs = {0, 1};
    } else {
        int64_t mx = w == 64 ? INT64_MAX : (INT64_C(1) << (w - 1)) - 1;
        vs = {0, 1, -1, -mx - 1, mx};
    }
    for (int64_t v : extra) {
        if (std::find(vs.begin(), vs.end(), v) == vs.end())
            vs.push_back(v);
    }
    std::vector<Value> out;
    for (int64_t v : vs)
        out.push_back(Value::intOf(t, v));
    return out;
}

std::vector<Value>
doubleEdges()
{
    std::vector<Value> out;
    for (double v :
         {0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -2.5, 127.9, 128.0, -129.0,
          32768.0, 2147483648.0, -2147483649.0, 9.2e18,
          9223372036854775808.0, -9223372036854775808.0, 1e300, -1e300,
          710.0, -745.2, 5e-324, HUGE_VAL, -HUGE_VAL, std::nan("")})
        out.push_back(Value::real(v));
    return out;
}

std::vector<Value>
complexEdges(const TypePtr& t)
{
    int32_t mx = t->kind() == TypeKind::Complex16 ? 32767 : INT32_MAX;
    int32_t mn = -mx - 1;
    std::vector<std::pair<int32_t, int32_t>> ps = {
        {0, 0}, {1, -1}, {-1, 1}, {mn, mn}, {mx, mx}, {mn, mx}, {mx, mn},
        {mn, 1}};
    std::vector<Value> out;
    for (auto [re, im] : ps) {
        out.push_back(t->kind() == TypeKind::Complex16
                          ? Value::c16(static_cast<int16_t>(re),
                                       static_cast<int16_t>(im))
                          : Value::c32(re, im));
    }
    return out;
}

std::vector<EdgeFamily>
edgeFamilies()
{
    std::vector<EdgeFamily> fams;
    auto bin = [](BinOp op) {
        return [op](const OperandFn& a) { return mkBin(op, a(0), a(1)); };
    };
    auto un = [](UnOp op) {
        return [op](const OperandFn& a) { return mkUn(op, a(0)); };
    };

    // Arithmetic, shifts and bitwise operators at every ordinary width.
    for (const TypePtr& t :
         {Type::int8(), Type::int16(), Type::int32(), Type::int64()}) {
        int w = static_cast<int>(t->bitWidth());
        std::vector<Value> a = intEdges(t);
        std::vector<Value> b = intEdges(t, {w - 1, w, 63, 64});
        EdgeFamily f{t->show(), {t, t}, {}};
        const std::pair<const char*, BinOp> bins[] = {
            {"+", BinOp::Add},   {"-", BinOp::Sub},  {"*", BinOp::Mul},
            {"/", BinOp::Div},   {"%", BinOp::Rem},  {"<<", BinOp::Shl},
            {">>", BinOp::Shr},  {"&", BinOp::BAnd}, {"|", BinOp::BOr},
            {"^", BinOp::BXor}};
        for (const auto& [n, op] : bins)
            f.ops.push_back({n, bin(op), {a, b}, true});
        f.ops.push_back({"neg", un(UnOp::Neg), {a}, true});
        f.ops.push_back({"~", un(UnOp::BNot), {a}, true});
        fams.push_back(std::move(f));
    }
    for (const TypePtr& t : {Type::bit(), Type::boolean()}) {
        std::vector<Value> a = intEdges(t);
        fams.push_back({t->show(),
                        {t, t},
                        {{"&", bin(BinOp::BAnd), {a, a}, true},
                         {"|", bin(BinOp::BOr), {a, a}, true},
                         {"^", bin(BinOp::BXor), {a, a}, true},
                         {"~", un(UnOp::BNot), {a}, true}}});
    }

    // Integer -> integer casts wrap; double -> integer casts.
    const TypePtr narrow[] = {Type::bit(), Type::boolean(), Type::int8(),
                              Type::int16(), Type::int32(), Type::int64()};
    {
        std::vector<Value> a = intEdges(
            Type::int64(),
            {2, 127, 128, -128, -129, 255, 32767, 32768, -32768, -32769,
             65535, INT32_MAX, INT64_C(2147483648), INT32_MIN,
             INT64_C(-2147483649), UINT32_MAX});
        EdgeFamily f{"int-cast", {Type::int64()}, {}};
        for (const TypePtr& to : narrow) {
            f.ops.push_back({"(" + to->show() + ")",
                             [to](const OperandFn& x) {
                                 return cast(Type::int64(), cast(to, x(0)));
                             },
                             {a},
                             true});
        }
        fams.push_back(std::move(f));
        EdgeFamily d{"double-cast", {Type::real()}, {}};
        for (const TypePtr& to : narrow) {
            d.ops.push_back({"(" + to->show() + ")",
                             [to](const OperandFn& x) {
                                 return cast(Type::int64(), cast(to, x(0)));
                             },
                             {doubleEdges()},
                             false});
        }
        fams.push_back(std::move(d));
    }

    // Complex arithmetic, shifts, casts, the trap, and the natives.
    for (const TypePtr& t : {Type::complex16(), Type::complex32()}) {
        bool c16 = t->kind() == TypeKind::Complex16;
        TypePtr other = c16 ? Type::complex32() : Type::complex16();
        std::vector<Value> a = complexEdges(t);
        std::vector<Value> s = intEdges(Type::int64(),
                                        {15, 16, 31, 32, 63, 64});
        EdgeFamily f{t->show(), {t, t, Type::int64()}, {}};
        f.ops.push_back({"+", bin(BinOp::Add), {a, a}});
        f.ops.push_back({"-", bin(BinOp::Sub), {a, a}});
        f.ops.push_back({"*", bin(BinOp::Mul), {a, a}});
        f.ops.push_back({"neg", un(UnOp::Neg), {a}});
        f.ops.push_back({"<<", [](const OperandFn& x) {
                             return mkBin(BinOp::Shl, x(0), x(2));
                         }, {a, {Value::zeroOf(t)}, s}});
        f.ops.push_back({">>", [](const OperandFn& x) {
                             return mkBin(BinOp::Shr, x(0), x(2));
                         }, {a, {Value::zeroOf(t)}, s}});
        f.ops.push_back({"cast", [t, other](const OperandFn& x) {
                             return cast(t, cast(other, x(0)));
                         }, {a}});
        // mkBin refuses complex division; the evaluators trap.
        f.ops.push_back({"/", [t](const OperandFn& x) {
                             return std::make_shared<BinExpr>(
                                 t, BinOp::Div, x(0), x(1));
                         }, {{a[1]}, {a[3]}}});
        if (c16) {
            auto shift = [](const OperandFn& x) {
                return cast(Type::int32(), x(2));
            };
            f.ops.push_back({"cmul16", [shift](const OperandFn& x) {
                                 return call(natives::cmul16(),
                                             {x(0), x(1), shift(x)});
                             }, {a, a, s}});
            f.ops.push_back({"cmul_conj16", [shift](const OperandFn& x) {
                                 return call(natives::cmulConj16(),
                                             {x(0), x(1), shift(x)});
                             }, {a, a, s}});
            f.ops.push_back({"conj16", [](const OperandFn& x) {
                                 return call(natives::conj16(), {x(0)});
                             }, {a}});
            f.ops.push_back({"mk_complex16", [](const OperandFn& x) {
                                 return call(
                                     natives::mkC16(),
                                     {call(natives::creal16(), {x(0)}),
                                      call(natives::cimag16(), {x(1)})});
                             }, {a, a}});
        } else {
            f.ops.push_back({"cadd32", [](const OperandFn& x) {
                                 return call(natives::cadd32(),
                                             {x(0), x(1)});
                             }, {a, a}});
        }
        fams.push_back(std::move(f));
    }
    {
        std::vector<Value> d = doubleEdges();
        EdgeFamily f{"double-natives", {Type::real(), Type::real()}, {}};
        const std::pair<const char*, FunRef> unary[] = {
            {"sin", natives::sinF()}, {"cos", natives::cosF()},
            {"sqrt", natives::sqrtF()}, {"exp", natives::expF()},
            {"log", natives::logF()}};
        for (const auto& [n, fn] : unary) {
            f.ops.push_back({n, [fn = fn](const OperandFn& x) {
                                 return call(fn, {x(0)});
                             }, {d}});
        }
        f.ops.push_back({"atan2", [](const OperandFn& x) {
                             return call(natives::atan2F(), {x(0), x(1)});
                         }, {d, d}});
        fams.push_back(std::move(f));

        std::vector<Value> c = complexEdges(Type::complex16());
        std::vector<Value> v = intEdges(Type::int32(),
                                        {32767, 32768, -32768, -32769});
        EdgeFamily g{"int-natives", {Type::complex16(), Type::int32()}, {}};
        g.ops.push_back({"cabs2", [](const OperandFn& x) {
                             return call(natives::cabs2_16(), {x(0)});
                         }, {c}});
        g.ops.push_back({"creal", [](const OperandFn& x) {
                             return cast(Type::int32(),
                                         call(natives::creal16(), {x(0)}));
                         }, {c}});
        g.ops.push_back({"sat16", [](const OperandFn& x) {
                             return cast(Type::int32(),
                                         call(natives::satI16(), {x(1)}));
                         }, {{c[0]}, v}});
        fams.push_back(std::move(g));
    }

    // Bounds checks: an index and a 2-element slice of a 4-element array.
    {
        std::vector<Value> k = intEdges(Type::int64(), {2, 3, 4});
        auto arr = [] {
            return cVal(Value::arrayOf(
                Type::int32(), {Value::i32(10), Value::i32(20),
                                Value::i32(30), Value::i32(40)}));
        };
        fams.push_back(
            {"bounds",
             {Type::int64()},
             {{"index", [arr](const OperandFn& x) {
                   return idx(arr(), x(0));
               }, {k}, true},
              {"slice", [arr](const OperandFn& x) {
                   return idx(slice(arr(), x(0), 2), 1);
               }, {k}}}});
    }
    return fams;
}

/**
 * The operator table at its edges: every (operator, kind) pair and the
 * natives, over 0, +-1, MIN, MAX and the shift counts -1, 0, w-1, w, 63,
 * 64.  The closure VM, foldExpr, the fused interpreter and generated
 * native code must give byte-identical results and identical trap
 * messages — they share one definition (zexpr/zr_sem.h).
 */
TEST(EdgeValues, VmFoldFusedAndNativeAgreeOnEveryOperator)
{
    std::vector<Backend> backends = {Backend::Vm, Backend::Fused};
    if (zcgen::compilerAvailable())
        backends.push_back(Backend::Native);
    size_t cases = 0, traps = 0;
    for (const EdgeFamily& fam : edgeFamilies()) {
        TypePtr s = edgeStruct(fam);
        std::vector<uint8_t> batch;
        std::vector<uint8_t> want;
        std::vector<std::pair<std::vector<uint8_t>, Outcome>> trapping;
        for (const EdgeCase& c : edgeCases(fam)) {
            const EdgeOp& op = fam.ops[c.op];
            std::string what = fam.name + " " + op.name + " (";
            for (size_t i = 0; i < c.args.size(); ++i)
                what += (i ? ", " : "") + c.args[i].show();
            what += ")";
            SCOPED_TRACE(what);
            std::vector<uint8_t> in = edgeInput(s, c);

            VarRef x = freshVar("x", s);
            Outcome vm = evalVm(op.build([&](size_t i) {
                return field(var(x), "f" + std::to_string(i));
            }), x, in);

            ExprPtr folded = foldExpr(op.build(
                [&](size_t i) { return cVal(c.args[i]); }));
            if (op.folds) {
                EXPECT_EQ(folded->kind() == ExprKind::Const,
                          vm.trap.empty())
                    << showExpr(folded);
            }
            Outcome fo = evalVm(folded, x, in);
            EXPECT_EQ(fo, vm) << "fold: " << show(fo) << "\n  vm: "
                              << show(vm);

            ++cases;
            if (vm.trap.empty()) {
                batch.insert(batch.end(), in.begin(), in.end());
                want.insert(want.end(), vm.bytes.begin(), vm.bytes.end());
            } else {
                ++traps;
                trapping.emplace_back(in, vm);
            }
        }
        for (Backend be : backends) {
            SCOPED_TRACE(fam.name + " on backend " +
                         std::to_string(static_cast<int>(be)));
            Outcome got = runEdge(fam, s, be, batch);
            EXPECT_TRUE(got.trap.empty()) << got.trap;
            EXPECT_TRUE(got.bytes == want) << "results differ from the VM";
            for (size_t i = 0; i < got.bytes.size() && i < want.size();
                 ++i) {
                if (got.bytes[i] != want[i]) {
                    ADD_FAILURE() << "first difference at output byte " << i;
                    break;
                }
            }
            // Each trapping case alone: the pipeline stops with the
            // closure's message.
            for (const auto& [in, vm] : trapping) {
                Outcome t = runEdge(fam, s, be, in);
                EXPECT_NE(t.trap.find(vm.trap), std::string::npos)
                    << "want trap \"" << vm.trap << "\", got " << show(t);
            }
        }
    }
    EXPECT_GT(cases, 3000u);
    EXPECT_GT(traps, 40u);
}

// ------------------------------------------------------ loud refusal

TEST(NativeRefusals, StageScopedRestartIsRefusedAtCompileTime)
{
    CompilerOptions opt = nativeConf();
    opt.restart.mode = RestartMode::OnFailure;
    opt.restart.maxRestarts = 2;
    opt.restart.scope = RestartScope::Stage;
    try {
        compilePipeline(incBlock(1), opt);
        FAIL() << "native + stage-scoped restart must be refused";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("--backend=native"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("docs/ROBUSTNESS.md"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace ziria
