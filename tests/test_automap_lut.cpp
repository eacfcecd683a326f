/**
 * @file
 * Tests for the auto-map pass, map fusion, and end-to-end auto-LUT —
 * including the paper's Figure 3 synergy: vectorize -> auto-map ->
 * auto-LUT on a scrambler.
 */
#include <gtest/gtest.h>

#include "support/rng.h"
#include "zast/builder.h"
#include "zcheck/check.h"
#include "zir/compiler.h"
#include "zopt/passes.h"

namespace ziria {
namespace {

using namespace zb;

CompPtr
incThenDouble()
{
    VarRef x = freshVar("x", Type::int32());
    CompPtr inc = repeatc(seqc({bindc(x, take(Type::int32())),
                                just(emit(var(x) + 1))}));
    VarRef y = freshVar("y", Type::int32());
    CompPtr dbl = repeatc(seqc({bindc(y, take(Type::int32())),
                                just(emit(var(y) * 2))}));
    return pipe(std::move(inc), std::move(dbl));
}

std::vector<uint8_t>
intsBytes(int n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int32_t> xs(n);
    for (auto& x : xs)
        x = static_cast<int32_t>(rng.next());
    std::vector<uint8_t> out(xs.size() * 4);
    std::memcpy(out.data(), xs.data(), out.size());
    return out;
}

TEST(AutoMap, ConvertsRepeatTakeEmit)
{
    CompPtr c = elaborateComp(incThenDouble());
    checkComp(c);
    MapStats ms;
    CompPtr mapped = autoMapComp(c, &ms);
    EXPECT_EQ(ms.autoMapped, 2);
    // After fusion the pipe collapses to a single map.
    checkComp(mapped);
    MapStats fs;
    CompPtr fused = fuseMaps(mapped, &fs);
    EXPECT_EQ(fs.fused, 1);
    EXPECT_EQ(fused->kind(), CompKind::Map);
}

TEST(AutoMap, PreservesSemantics)
{
    auto input = intsBytes(500, 9);
    auto plain = compilePipeline(
        incThenDouble(), CompilerOptions::forLevel(OptLevel::None));
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.autoMap = true;
    opt.fuse = true;
    auto mapped = compilePipeline(incThenDouble(), opt);
    EXPECT_EQ(plain->runBytes(input), mapped->runBytes(input));
}

TEST(AutoMap, StatefulKernelKeepsStateAcrossElements)
{
    auto mk = []() -> CompPtr {
        VarRef s = freshVar("s", Type::int32());
        VarRef x = freshVar("x", Type::int32());
        return letvar(
            s, cInt(0),
            repeatc(seqc({bindc(x, take(Type::int32())),
                          just(doS({assign(var(s), var(s) + var(x))})),
                          just(emit(var(s)))})));
    };
    auto input = intsBytes(300, 11);
    auto plain = compilePipeline(
        mk(), CompilerOptions::forLevel(OptLevel::None));
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.autoMap = true;
    auto mapped = compilePipeline(mk(), opt);
    EXPECT_EQ(plain->runBytes(input), mapped->runBytes(input));
}

TEST(AutoMap, DoAfterEmitIsStagedCorrectly)
{
    // emit uses the state *before* the trailing update.
    auto mk = []() -> CompPtr {
        VarRef s = freshVar("s", Type::int32());
        VarRef x = freshVar("x", Type::int32());
        return letvar(
            s, cInt(100),
            repeatc(seqc({bindc(x, take(Type::int32())),
                          just(emit(var(s) + var(x))),
                          just(doS({assign(var(s),
                                           var(s) + 1)}))})));
    };
    auto input = intsBytes(50, 13);
    auto plain = compilePipeline(
        mk(), CompilerOptions::forLevel(OptLevel::None));
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.autoMap = true;
    MapStats ms;
    CompPtr mapped = autoMapComp(foldComp(elaborateComp(mk())), &ms);
    EXPECT_EQ(ms.autoMapped, 1);
    auto mappedP = compilePipeline(mk(), opt);
    EXPECT_EQ(plain->runBytes(input), mappedP->runBytes(input));
}

/** Scrambler-like block used for the Figure 3 chain. */
CompPtr
scramblerLike()
{
    VarRef st = freshVar("scrmbl_st", Type::array(Type::bit(), 7));
    VarRef x = freshVar("x", Type::bit());
    VarRef tmp = freshVar("tmp", Type::bit());
    return letvar(
        st, bitArrayLit({1, 1, 1, 1, 1, 1, 1}),
        repeatc(seqc(
            {bindc(x, take(Type::bit())),
             just(doS({sDecl(tmp, idx(var(st), 3) ^ idx(var(st), 0)),
                       assign(slice(var(st), 0, 6),
                              slice(var(st), 1, 6)),
                       assign(idx(var(st), 6), var(tmp))})),
             just(emit(var(x) ^ var(tmp)))})));
}

TEST(Figure3, VectorizeAutoMapAutoLutChain)
{
    // The paper's showcase: the vectorized scrambler auto-maps into a
    // kernel of 8 input bits + 7 state bits and LUTs into 2^15 entries.
    Rng rng(77);
    std::vector<uint8_t> input(4096);
    for (auto& b : input)
        b = rng.bit();

    auto plain = compilePipeline(
        scramblerLike(), CompilerOptions::forLevel(OptLevel::None));
    auto expect = plain->runBytes(input);

    CompilerOptions all = CompilerOptions::forLevel(OptLevel::All);
    all.vect.maxScale = 8;  // force the classic 8-bit grouping
    CompileReport rep;
    auto optd = compilePipeline(scramblerLike(), all, &rep);
    EXPECT_EQ(optd->runBytes(input), expect);
    EXPECT_GE(rep.maps.autoMapped, 1);
    EXPECT_GE(rep.build.lutsBuilt, 1) << "scrambler kernel did not LUT";
}

TEST(Figure3, LutKeyIsInputPlusState)
{
    CompilerOptions all = CompilerOptions::forLevel(OptLevel::All);
    all.vect.maxScale = 8;
    CompileReport rep;
    auto p = compilePipeline(scramblerLike(), all, &rep);
    (void)p;
    ASSERT_GE(rep.build.lutsBuilt, 1);
    // 8 input bits + 7 state bits = 2^15 entries; each entry holds the
    // packed 8-bit output and the packed 7-bit state.
    EXPECT_EQ(rep.build.lutBytes, (size_t{1} << 15) * 2);
}

TEST(AutoLut, DisabledByNoLutAnnotation)
{
    VarRef x = freshVar("x", Type::array(Type::bit(), 8));
    std::vector<ExprPtr> outs;
    for (int i = 0; i < 8; ++i)
        outs.push_back(idx(var(x), 7 - i));
    auto f = std::const_pointer_cast<FunDef>(
        fun("revbits", {x}, {}, arrayLit(std::move(outs))));
    f->noLut = true;

    CompilerOptions all = CompilerOptions::forLevel(OptLevel::All);
    all.vectorize = false;
    all.autoMap = false;
    CompileReport rep;
    auto p = compilePipeline(mapc(f), all, &rep);
    (void)p;
    EXPECT_EQ(rep.build.lutsBuilt, 0);
}

/** `map f` over int8, f annotated noLut or not. */
FunRef
flipFun(bool noLut)
{
    VarRef x = freshVar("x", Type::int8());
    auto f = std::make_shared<FunDef>(
        *fun("flip", {x}, {}, var(x) ^ lit(Type::int8(), 0x5a)));
    f->noLut = noLut;
    return f;
}

TEST(AutoLut, NoLutSurvivesVectorizationAndFusion)
{
    // The vectorizer rewrites `map f` into a repeat over calls to f and
    // auto-map turns that back into a fresh kernel; map fusion composes
    // two kernels into one.  Neither may drop f's noLut.
    CompilerOptions all = CompilerOptions::forLevel(OptLevel::All);
    ASSERT_TRUE(all.vectorize);
    CompileReport lut, vect, fused;
    compilePipeline(mapc(flipFun(false)), all, &lut);
    compilePipeline(mapc(flipFun(true)), all, &vect);
    compilePipeline(pipe(mapc(flipFun(false)), mapc(flipFun(true))), all,
                    &fused);
    EXPECT_EQ(lut.build.lutsBuilt, 1);
    EXPECT_EQ(vect.build.lutsBuilt, 0);
    EXPECT_EQ(fused.build.lutsBuilt, 0);
    EXPECT_GE(fused.maps.fused, 1);

    // ... and both still compute f.
    auto input = intsBytes(300, 4);
    auto ref = compilePipeline(mapc(flipFun(true)),
                               CompilerOptions::forLevel(OptLevel::None));
    auto p = compilePipeline(mapc(flipFun(true)), all);
    EXPECT_EQ(p->runBytes(input), ref->runBytes(input));
}

TEST(AutoLut, PureMapKernelLuts)
{
    VarRef x = freshVar("x", Type::array(Type::bit(), 8));
    std::vector<ExprPtr> outs;
    for (int i = 0; i < 8; ++i)
        outs.push_back(idx(var(x), 7 - i));
    FunRef f = fun("revbits", {x}, {}, arrayLit(std::move(outs)));

    CompilerOptions all = CompilerOptions::forLevel(OptLevel::All);
    all.vectorize = false;
    all.autoMap = false;
    CompileReport rep;
    auto p = compilePipeline(mapc(f), all, &rep);
    EXPECT_EQ(rep.build.lutsBuilt, 1);

    Rng rng(5);
    std::vector<uint8_t> input(160);
    for (auto& b : input)
        b = rng.bit();
    auto noLut = CompilerOptions::forLevel(OptLevel::None);
    VarRef x2 = freshVar("x", Type::array(Type::bit(), 8));
    std::vector<ExprPtr> outs2;
    for (int i = 0; i < 8; ++i)
        outs2.push_back(idx(var(x2), 7 - i));
    FunRef f2 = fun("revbits", {x2}, {}, arrayLit(std::move(outs2)));
    auto q = compilePipeline(mapc(f2), noLut);
    EXPECT_EQ(p->runBytes(input), q->runBytes(input));
}

TEST(AutoMap, SingleElementTakesKeepsInputWired)
{
    // Regression: `bind a <- takes(bit, 1)` normalizes to a take whose
    // destination is the lvalue a[0] rather than a bind variable.
    // Auto-map used to drop that connection, leaving the kernel reading
    // a zero-initialized scratch array, so unvectorized auto-map runs
    // emitted a constant stream.  (Vectorized compiles masked the bug
    // because the vectorizer rewrites takes-into binds first.)
    auto mkStage = [] {
        VarRef st = freshVar("st", Type::bit());
        VarRef a = freshVar("a", Type::array(Type::bit(), 1));
        std::vector<SeqComp::Item> items;
        items.push_back(bindc(a, takes(Type::bit(), 1)));
        StmtList upd;
        upd.push_back(assign(var(st), var(st) ^ idx(var(a), 0)));
        items.push_back(just(doS(std::move(upd))));
        items.push_back(
            just(emits(arrayLit({idx(var(a), 0) ^ var(st)}))));
        return letvar(st, cBit(0), repeatc(seqc(std::move(items))));
    };
    Rng rng(31);
    std::vector<uint8_t> input(96);
    for (auto& b : input)
        b = rng.bit();
    auto base = compilePipeline(mkStage(),
                                CompilerOptions::forLevel(OptLevel::None))
                    ->runBytes(input);
    CompilerOptions amapOnly = CompilerOptions::forLevel(OptLevel::None);
    amapOnly.autoMap = true;
    CompileReport rep;
    auto p = compilePipeline(mkStage(), amapOnly, &rep);
    EXPECT_EQ(rep.maps.autoMapped, 1);
    EXPECT_EQ(p->runBytes(input), base);
}

TEST(Fusion, LongMapChainCollapses)
{
    CompPtr c = nullptr;
    for (int i = 0; i < 6; ++i) {
        VarRef x = freshVar("x", Type::int32());
        FunRef f = fun("inc" + std::to_string(i), {x}, {}, var(x) + 1);
        CompPtr m = mapc(f);
        c = c ? pipe(std::move(c), std::move(m)) : m;
    }
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.fuse = true;
    CompileReport rep;
    auto p = compilePipeline(c, opt, &rep);
    EXPECT_EQ(rep.maps.fused, 5);
    auto input = intsBytes(100, 21);
    std::vector<int32_t> in(100);
    std::memcpy(in.data(), input.data(), 400);
    auto out = p->runBytes(input);
    std::vector<int32_t> got(100);
    std::memcpy(got.data(), out.data(), 400);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(got[i], in[i] + 6);
}

} // namespace
} // namespace ziria
