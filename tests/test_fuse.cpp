/**
 * @file
 * Fused-backend tests (ctest labels `tier1;fuse;diff`):
 *
 *  - one region per build: native blocks run as sites inside it (and
 *    throw through it as on the VM), an unsplit `|>>>|` lowers as a
 *    plain pipe;
 *  - bytecode structure: channel counts, single Halt, disassembly;
 *  - the differential oracle over the fused axis ({O0..O3} x {vec} x
 *    {vm,fused} plus threaded-fused cells) on generated programs —
 *    the VM is the semantics, the fused backend must match bit-exactly;
 *  - reset() re-arm totality of FusedNode over the PR-4
 *    combinator-shape suite (reset == fresh construction + start);
 *  - composition: tracing decorators and the threaded driver run
 *    unchanged over fused regions.
 */
#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/diff_runner.h"
#include "support/fault_injector.h"
#include "support/metrics.h"
#include "zast/builder.h"
#include "zfuse/fuse.h"
#include "zgen/generator.h"
#include "zir/compiler.h"

namespace ziria {
namespace {

using namespace zb;
using difftest::DiffConfig;
using difftest::runDifferential;
using testsupport::intBytes;
using testsupport::runUntilThrow;
using testsupport::throwAtBlock;
using zgen::GenConfig;
using zgen::GenDomain;
using zgen::GenProgram;

CompPtr
incBlock(int32_t delta)
{
    VarRef x = freshVar("x", Type::int32());
    return repeatc(seqc({bindc(x, take(Type::int32())),
                         just(emit(var(x) + delta))}));
}

CompilerOptions
fusedOptions(OptLevel lvl = OptLevel::None)
{
    CompilerOptions opt = CompilerOptions::forLevel(lvl);
    opt.backend = Backend::Fused;
    return opt;
}

// ------------------------------------------------- lowering structure

TEST(FusedLowering, WholeProgramBecomesOneFusedNode)
{
    CompileReport rep;
    auto p = compilePipeline(pipe(incBlock(1), incBlock(10)),
                             fusedOptions(), &rep);
    EXPECT_EQ(rep.fuse.nodesFused, 1);
    EXPECT_EQ(rep.fuse.fallbacks, 0);
    EXPECT_EQ(rep.fuse.channels, 1);  // the interior >>> compiled away
    EXPECT_GT(rep.fuse.fusedOps, 0);

    auto* fn = dynamic_cast<FusedNode*>(&p->root());
    ASSERT_NE(fn, nullptr);
    const zfuse::FuseProgram& prog = fn->program();
    EXPECT_EQ(prog.countOp(zfuse::Op::Halt), 1u);
    EXPECT_EQ(prog.countOp(zfuse::Op::PipeInit), 1u);
    EXPECT_EQ(prog.channels.size(), 1u);
    EXPECT_EQ(prog.inWidth, 4u);
    EXPECT_EQ(prog.outWidth, 4u);
    EXPECT_NE(prog.disassemble().find("pipe.init"), std::string::npos);
}

TEST(FusedLowering, NativeBlockRunsInsideTheRegion)
{
    // fused >>> native: the native block is a site of the one region,
    // driven by the same NativeNode the VM runs.
    CompileReport rep;
    auto p = compilePipeline(
        pipe(incBlock(1), throwAtBlock(uint64_t(1) << 62)),
        fusedOptions(), &rep);
    EXPECT_EQ(rep.fuse.nodesFused, 1);
    EXPECT_EQ(rep.fuse.fallbacks, 0);
    auto* fn = dynamic_cast<FusedNode*>(&p->root());
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->program().sites.size(), 1u);
    EXPECT_EQ(fn->program().countOp(zfuse::Op::SitePull), 1u);
    EXPECT_NE(fn->program().disassemble().find("site.pull"),
              std::string::npos);

    std::vector<int32_t> in(64);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i);
    auto bytes = intBytes(in);
    auto vm = compilePipeline(
        pipe(incBlock(1), throwAtBlock(uint64_t(1) << 62)),
        CompilerOptions::forLevel(OptLevel::None));
    EXPECT_EQ(p->runBytes(bytes), vm->runBytes(bytes));
}

TEST(FusedLowering, NativeKernelThrowsThroughTheRegionAsOnTheVm)
{
    auto make = [] {
        return pipe(incBlock(1), pipe(throwAtBlock(40), incBlock(100)));
    };
    std::vector<int32_t> in(64, 3);
    auto vm = runUntilThrow(make(), CompilerOptions::forLevel(OptLevel::None),
                            in);
    auto fz = runUntilThrow(make(), fusedOptions(), in);
    ASSERT_NE(vm.what.find("induced stage exception"), std::string::npos)
        << vm.what;
    EXPECT_EQ(fz.what, vm.what);
    EXPECT_EQ(fz.out, vm.out);
    EXPECT_FALSE(vm.out.empty());
}

TEST(FusedLowering, UnsplitThreadedPipeIsOnePlainPipeRegion)
{
    // compilePipeline does not split at `|>>>|`: the whole program is
    // still one region, and it matches the VM.
    CompileReport rep;
    auto p = compilePipeline(ppipe(incBlock(1), incBlock(2)),
                             fusedOptions(), &rep);
    EXPECT_EQ(rep.fuse.nodesFused, 1);
    EXPECT_EQ(rep.fuse.channels, 1);
    ASSERT_NE(dynamic_cast<FusedNode*>(&p->root()), nullptr);
    std::vector<int32_t> in(32, 5);
    auto bytes = intBytes(in);
    auto vm = compilePipeline(ppipe(incBlock(1), incBlock(2)),
                              CompilerOptions::forLevel(OptLevel::None));
    EXPECT_EQ(p->runBytes(bytes), vm->runBytes(bytes));
}

TEST(FusedLowering, MetricsCountersAdvance)
{
    auto& reg = metrics::Registry::global();
    uint64_t fusedBefore = reg.counter("ziria.fuse.nodes_fused").value();
    compilePipeline(incBlock(1), fusedOptions());
    compileThreadedPipeline(ppipe(incBlock(1), incBlock(2)),
                            fusedOptions());
    EXPECT_GE(reg.counter("ziria.fuse.nodes_fused").value(),
              fusedBefore + 3);  // whole program + two |>>>| partitions
}

// ------------------------------------------- differential equivalence

void
checkFusedSeed(const GenConfig& cfg, uint64_t seed, size_t elems)
{
    GenProgram prog = zgen::genProgram(cfg, seed);
    auto input = zgen::genInput(prog.inDomain, elems, seed ^ 0xD1FF);
    auto make = [&] { return zgen::genProgram(cfg, seed).comp; };
    auto outcome = runDifferential(make, input, difftest::fusedMatrix(),
                                   prog.describe, /*slackBytes=*/4096);
    EXPECT_TRUE(outcome.agree) << "seed=" << seed << "\n" << outcome.report;
    EXPECT_EQ(outcome.configsRun, 18);
    EXPECT_GT(outcome.baselineBytes, 0u)
        << "seed=" << seed << " " << prog.describe;
}

class FusedBitPrograms : public ::testing::TestWithParam<int>
{
};

TEST_P(FusedBitPrograms, VmAndFusedAgree)
{
    GenConfig cfg;
    cfg.domain = GenDomain::Bits;
    cfg.maxStages = 3;
    cfg.allowThreadedSplit = true;
    checkFusedSeed(cfg, static_cast<uint64_t>(GetParam()), 6 * 288 * 4);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FusedBitPrograms, ::testing::Range(1, 26));

class FusedInt32Programs : public ::testing::TestWithParam<int>
{
};

TEST_P(FusedInt32Programs, VmAndFusedAgree)
{
    GenConfig cfg;
    cfg.domain = GenDomain::Int32;
    cfg.maxStages = 3;
    cfg.allowThreadedSplit = true;
    checkFusedSeed(cfg, static_cast<uint64_t>(GetParam()), 2048);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FusedInt32Programs,
                         ::testing::Range(1, 14));

class FusedMixedPrograms : public ::testing::TestWithParam<int>
{
};

TEST_P(FusedMixedPrograms, VmAndFusedAgree)
{
    GenConfig cfg;
    cfg.domain = GenDomain::Mixed;
    cfg.maxStages = 4;
    checkFusedSeed(cfg, static_cast<uint64_t>(GetParam()), 4096);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FusedMixedPrograms,
                         ::testing::Range(1, 9));

TEST(FusedMatrix, ShapeAndLowering)
{
    auto m = difftest::fusedMatrix();
    EXPECT_EQ(m.size(), 18u);
    int fused = 0;
    for (const auto& c : m)
        fused += c.fused;
    EXPECT_EQ(fused, 10);
    EXPECT_FALSE(m[0].fused);  // config 0 is the VM baseline

    DiffConfig vm3, fz3;
    vm3.optTier = fz3.optTier = 3;
    vm3.vectorize = fz3.vectorize = true;
    fz3.fused = true;
    EXPECT_EQ(DiffConfig::distance(vm3, fz3), 1);
    EXPECT_EQ(vm3.options().backend, Backend::Vm);
    EXPECT_EQ(fz3.options().backend, Backend::Fused);
}

// ------------------------------------------------- reset() totality

/**
 * Drive a pipeline by hand (mirrors test_recovery): when @p init is
 * false the tree is NOT start()ed, proving reset() alone restored it.
 */
std::vector<uint8_t>
drive(Pipeline& p, MemSource& src, bool init)
{
    ExecNode& root = p.root();
    Frame& f = p.frame();
    if (init)
        root.start(f);
    std::vector<uint8_t> out;
    for (;;) {
        Status s = root.advance(f);
        if (s == Status::Yield) {
            out.insert(out.end(), root.out(), root.out() + p.outWidth());
        } else if (s == Status::NeedInput) {
            const uint8_t* q = src.next();
            if (!q)
                break;
            root.supply(f, q);
        } else {
            break;  // Done
        }
    }
    return out;
}

void
consumePartial(Pipeline& p, MemSource& src, size_t elems)
{
    ExecNode& root = p.root();
    Frame& f = p.frame();
    root.start(f);
    size_t used = 0;
    while (used < elems) {
        Status s = root.advance(f);
        if (s == Status::NeedInput) {
            const uint8_t* q = src.next();
            if (!q)
                break;
            root.supply(f, q);
            ++used;
        } else if (s == Status::Done) {
            break;
        }
    }
}

struct Shape
{
    const char* name;
    std::function<CompPtr()> make;
};

/** The PR-4 combinator-shape suite (test_recovery), fused this time. */
std::vector<Shape>
resetShapes()
{
    std::vector<Shape> shapes;
    shapes.push_back({"repeat-bind-emit", [] { return incBlock(1); }});
    shapes.push_back({"map", [] {
        VarRef x = freshVar("x", Type::int32());
        FunRef f = fun("inc3", {x}, {}, var(x) + 3);
        return mapc(f);
    }});
    shapes.push_back({"pipe-maps", [] {
        VarRef x = freshVar("x", Type::int32());
        VarRef y = freshVar("y", Type::int32());
        FunRef f = fun("addA", {x}, {}, var(x) + 5);
        FunRef g = fun("addB", {y}, {}, var(y) * 2);
        return pipe(mapc(f), mapc(g));
    }});
    shapes.push_back({"pipe-repeats", [] {
        return pipe(incBlock(1), incBlock(10));
    }});
    shapes.push_back({"filter", [] {
        VarRef x = freshVar("x", Type::int32());
        FunRef p = fun("odd", {x}, {}, (var(x) % 2) != 0);
        return filterc(p);
    }});
    shapes.push_back({"seq-two-takes", [] {
        VarRef a = freshVar("a", Type::int32());
        VarRef b = freshVar("b", Type::int32());
        return repeatc(seqc({bindc(a, take(Type::int32())),
                             bindc(b, take(Type::int32())),
                             just(emit(var(a) + var(b)))}));
    }});
    shapes.push_back({"times", [] {
        VarRef x = freshVar("x", Type::int32());
        return repeatc(timesc(
            cInt(4), seqc({bindc(x, take(Type::int32())),
                           just(emit(var(x) * 2))})));
    }});
    shapes.push_back({"while-letvar", [] {
        VarRef i = freshVar("i", Type::int32());
        VarRef x = freshVar("x", Type::int32());
        return letvar(
            i, cInt(0),
            whilec(var(i) < 8,
                   seqc({just(doS({assign(var(i), var(i) + 1)})),
                         bindc(x, take(Type::int32())),
                         just(emit(var(x) + 100))})));
    }});
    shapes.push_back({"if", [] {
        return ifc(cInt(1) == 1, incBlock(5), incBlock(7));
    }});
    shapes.push_back({"emits", [] {
        VarRef x = freshVar("x", Type::int32());
        return repeatc(seqc(
            {bindc(x, take(Type::int32())),
             just(emits(arrayLit({var(x), var(x) + 1})))}));
    }});
    shapes.push_back({"letvar-accumulator", [] {
        VarRef acc = freshVar("acc", Type::int32());
        VarRef x = freshVar("x", Type::int32());
        return letvar(
            acc, cInt(0),
            repeatc(seqc(
                {bindc(x, take(Type::int32())),
                 just(doS({assign(var(acc), var(acc) + var(x))})),
                 just(emit(var(acc)))})));
    }});
    shapes.push_back({"native-site", [] {
        // reset() must return the region's NativeNode to unstarted.
        return pipe(incBlock(3), throwAtBlock(uint64_t(1) << 62));
    }});
    return shapes;
}

TEST(FusedResetTotality, ResetAfterPartialRunMatchesFreshRun)
{
    for (const Shape& sh : resetShapes()) {
        for (OptLevel lvl : {OptLevel::None, OptLevel::All}) {
            SCOPED_TRACE(std::string(sh.name) + " at OptLevel " +
                         (lvl == OptLevel::None ? "None" : "All"));
            auto p = compilePipeline(sh.make(), fusedOptions(lvl));

            ASSERT_EQ(p->inWidth() % 4, 0u);
            std::vector<int32_t> in(24 * (p->inWidth() / 4));
            for (size_t i = 0; i < in.size(); ++i)
                in[i] = static_cast<int32_t>(i);
            auto bytes = intBytes(in);

            MemSource fresh(bytes, p->inWidth());
            auto expect = drive(*p, fresh, /*init=*/true);
            ASSERT_FALSE(expect.empty());

            // Dirty the tree mid-structure, reset, drive WITHOUT start.
            MemSource partial(bytes, p->inWidth());
            consumePartial(*p, partial, 5);
            p->root().reset(p->frame());

            MemSource again(bytes, p->inWidth());
            auto got = drive(*p, again, /*init=*/false);
            EXPECT_EQ(got, expect)
                << "reset() did not restore the fresh-start state";
        }
    }
}

// ----------------------------------------------------- composition

TEST(FusedComposition, TracingWrapsFusedRegions)
{
    CompilerOptions opt = fusedOptions();
    opt.instrument = true;
    auto p = compilePipeline(pipe(incBlock(1), incBlock(2)), opt);
    ASSERT_NE(p->metrics(), nullptr);

    std::vector<int32_t> in(32, 7);
    auto out = p->runBytes(intBytes(in));
    EXPECT_EQ(out.size(), in.size() * 4);

    bool sawFused = false;
    for (const auto& nm : p->metrics()->nodes)
        if (nm.kind == "fused") {
            sawFused = true;
            EXPECT_GT(nm.advances, 0u);
            EXPECT_GT(nm.supplies, 0u);
        }
    EXPECT_TRUE(sawFused);
}

TEST(FusedComposition, ThreadedDriverRunsFusedPartitions)
{
    CompileReport rep;
    auto p = compileThreadedPipeline(ppipe(incBlock(1), incBlock(10)),
                                     fusedOptions(), &rep);
    EXPECT_EQ(rep.fuse.nodesFused, 2);  // one region per |>>>| partition

    std::vector<int32_t> in(256);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i);
    auto bytes = intBytes(in);
    MemSource src(bytes, 4);
    VecSink sink(4);
    p->run(src, sink);

    auto vm = compilePipeline(pipe(incBlock(1), incBlock(10)),
                              CompilerOptions::forLevel(OptLevel::None));
    EXPECT_EQ(sink.data(), vm->runBytes(bytes));
}

TEST(FusedComposition, HaltedComputerExposesCtrl)
{
    // A computer: take two ints, return their sum — the control value
    // must come back through ctrl() with the right width.
    auto make = [] {
        VarRef a = freshVar("a", Type::int32());
        VarRef b = freshVar("b", Type::int32());
        return seqc({bindc(a, take(Type::int32())),
                     bindc(b, take(Type::int32())),
                     just(ret(var(a) * var(b)))});
    };
    auto fz = compilePipeline(make(), fusedOptions());
    auto vm = compilePipeline(make(),
                              CompilerOptions::forLevel(OptLevel::None));
    std::vector<int32_t> in{6, 7};
    auto bytes = intBytes(in);

    RunStats fzStats, vmStats;
    fz->runBytes(bytes, &fzStats);
    vm->runBytes(bytes, &vmStats);
    EXPECT_TRUE(fzStats.halted);
    EXPECT_EQ(fzStats.ctrl, vmStats.ctrl);
    ASSERT_EQ(fzStats.ctrl.size(), 4u);
    int32_t v;
    std::memcpy(&v, fzStats.ctrl.data(), 4);
    EXPECT_EQ(v, 42);
}

} // namespace
} // namespace ziria
