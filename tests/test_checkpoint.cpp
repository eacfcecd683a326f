/**
 * @file
 * Checkpoint tests (ctest labels `recovery`, `checkpoint`): the
 * snapshot/restore round-trip totality contract across every
 * combinator shape × {vm, fused, native} × O0/O3, fused <-> native
 * portability of one checkpoint, the state-io primitives, a
 * WiFi receiver checkpointed mid-packet, and the checkpointed-restart
 * consumer — a supervised restart that resumes from the last
 * frame-boundary snapshot and reproduces the uninterrupted run's
 * output byte for byte (the PR's acceptance property).
 *
 * The round-trip contract under test (zexec/snapshot.h): at a
 * quiescent point (the tree parked on NeedInput), restoreSnapshot(
 * takeSnapshot()) must make the tree's future output bit-identical to
 * the snapshotted instance's — including native kernel state (Viterbi
 * path memory, scrambler LFSRs) and fused register/state/channel
 * spaces.
 */
#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "channel/channel.h"
#include "sora/sora.h"
#include "support/fault_injector.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/shapes.h"
#include "support/state_io.h"
#include "wifi/blocks_tx.h"
#include "wifi/rx.h"
#include "wifi/tx.h"
#include "zexec/faultpoint.h"
#include "zexec/nodes.h"
#include "zcgen/cgen.h"
#include "zexec/snapshot.h"
#include "zfuse/fuse.h"
#include "zir/compiler.h"

namespace ziria {
namespace {

using testsupport::intBytes;
using testsupport::resetShapes;
using testsupport::Shape;

// ------------------------------------------------------------- helpers

struct DriveResult
{
    std::vector<uint8_t> out;
    size_t consumed = 0;  ///< input elements supplied
    bool done = false;
};

/**
 * Drive @p p by hand from @p bytes, starting @p startElem elements in,
 * supplying at most @p maxElems elements.  Stops parked on NeedInput
 * (the quiescent point snapshots require), at end of input, or at
 * Done.  With @p init false the tree is NOT start()ed — how the
 * round-trip tests prove restoreSnapshot() alone rebuilt the state.
 */
DriveResult
driveUpTo(Pipeline& p, const std::vector<uint8_t>& bytes,
          size_t startElem, size_t maxElems, bool init)
{
    ExecNode& root = p.root();
    Frame& f = p.frame();
    if (init)
        root.start(f);
    const size_t w = p.inWidth();
    size_t pos = startElem * w;
    DriveResult r;
    for (;;) {
        Status s = root.advance(f);
        if (s == Status::Yield) {
            r.out.insert(r.out.end(), root.out(),
                         root.out() + p.outWidth());
        } else if (s == Status::NeedInput) {
            if (r.consumed >= maxElems)
                break;  // parked — quiescent
            if (pos + w > bytes.size())
                break;  // input exhausted
            root.supply(f, bytes.data() + pos);
            pos += w;
            ++r.consumed;
        } else {
            r.done = true;
            break;
        }
    }
    return r;
}

// ---------------------------------------------------- state-io basics

TEST(StateIo, PrimitivesRoundTrip)
{
    StateWriter w;
    w.u8(7);
    w.u32(0xdeadbeef);
    w.u64(0x1122334455667788ull);
    w.i64(-42);
    w.f64(2.5);
    const uint8_t raw[3] = {1, 2, 3};
    w.blob(raw, sizeof raw);
    std::vector<uint8_t> buf = w.take();

    StateReader r(buf.data(), buf.size());
    EXPECT_EQ(r.u8(), 7u);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x1122334455667788ull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_DOUBLE_EQ(r.f64(), 2.5);
    std::vector<uint8_t> blob = r.blob();
    EXPECT_EQ(blob, std::vector<uint8_t>(raw, raw + 3));

    // Reading past the end is a format error, not UB.
    EXPECT_THROW(r.u8(), StateFormatError);
}

TEST(StateIo, RestoreRejectsCorruptContainer)
{
    auto p = compilePipeline(resetShapes()[0].make(),
                             CompilerOptions::forLevel(OptLevel::None));
    p->root().start(p->frame());
    auto snap = takeSnapshot(p->root(), p->frame(), 0, 0);
    ASSERT_GE(snap.size(), 8u);

    auto badMagic = snap;
    badMagic[0] ^= 0xff;
    EXPECT_THROW(restoreSnapshot(p->root(), p->frame(), badMagic),
                 StateFormatError);

    auto truncated = snap;
    truncated.resize(truncated.size() - 1);
    EXPECT_THROW(restoreSnapshot(p->root(), p->frame(), truncated),
                 StateFormatError);
}

// ------------------------------------- hostile node-state rejection
//
// The node stream arrives over the wire on the zserve migration path,
// so restore() must treat it as untrusted input: stream-derived
// indices, cursors and offsets are bounds-checked against the
// receiving tree and rejected with StateFormatError, never walked off
// a buffer.

void
expectRestoreRejects(ExecNode& n, StateWriter& w)
{
    std::vector<uint8_t> stream = w.take();
    Frame f;
    StateReader r(stream.data(), stream.size());
    EXPECT_THROW(n.restore(f, r), StateFormatError);
}

TEST(HostileCheckpoint, SeqIndexOutOfRange)
{
    std::vector<SeqNode::Item> items;
    items.push_back(SeqNode::Item{
        std::make_unique<EmitNode>(
            [](Frame&, uint8_t* p) { std::memset(p, 0, 4); }, 4),
        -1, 0});
    SeqNode seq(std::move(items));
    StateWriter w;
    w.u64(7);  // active index past the one-item list
    w.u8(0);
    expectRestoreRejects(seq, w);
}

TEST(HostileCheckpoint, TakesCursorOutOfRange)
{
    TakeManyNode tk(4, 3);
    StateWriter w;
    w.u64(7);  // have_ > n_
    expectRestoreRejects(tk, w);
}

TEST(HostileCheckpoint, EmitsCursorOutOfRange)
{
    EmitsNode em([](Frame&, uint8_t* p) { std::memset(p, 0, 8); }, 4, 2);
    StateWriter w;
    w.u8(1);
    w.u64(3);  // next_ > len_
    expectRestoreRejects(em, w);
}

TEST(HostileCheckpoint, PipeControlOriginAndWidth)
{
    PipeNode pipe(std::make_unique<EmitNode>(
                      [](Frame&, uint8_t* p) { std::memset(p, 0, 4); },
                      4),
                  std::make_unique<TakeNode>(4));
    const uint8_t z4[4] = {0, 0, 0, 0};

    StateWriter w;
    w.u8(3);  // control origin is only ever 0/1/2
    expectRestoreRejects(pipe, w);

    StateWriter w2;
    w2.u8(1);      // control from the left child...
    w2.u64(999);   // ...whose ctrl width is 0, not 999
    w2.u8(0);      // left: EmitNode {emitted_, outBuf_}
    w2.bytes(z4, 4);
    w2.u8(0);      // right: TakeNode {pending_, ctrlBuf_}
    w2.bytes(z4, 4);
    expectRestoreRejects(pipe, w2);
}

struct NullKernel : NativeKernel
{
    bool consume(const uint8_t*, Emitter&) override { return false; }
};

TEST(HostileCheckpoint, NativeRingOutOfBounds)
{
    NativeNode n([](Frame&) { return std::make_unique<NullKernel>(); },
                 4, 4, 0, /*is_computer=*/false);
    const uint8_t ring[8] = {0};

    StateWriter w;
    w.u8(0);
    w.u64(5);  // cursor not element-aligned
    w.blob(ring, sizeof ring);
    expectRestoreRejects(n, w);

    StateWriter w2;
    w2.u8(0);
    w2.u64(12);  // aligned but past the 8-byte ring
    w2.blob(ring, sizeof ring);
    expectRestoreRejects(n, w2);
}

/** The region backends a checkpoint test sweeps on this host. */
std::vector<Backend>
regionBackends()
{
    std::vector<Backend> v{Backend::Fused};
    if (zcgen::compilerAvailable())
        v.push_back(Backend::Native);
    return v;
}

const char*
backendName(Backend be)
{
    switch (be) {
      case Backend::Vm: return "vm";
      case Backend::Fused: return "fused";
      case Backend::Native: return "native";
    }
    return "?";
}

TEST(HostileCheckpoint, FusedPcAndPointerOutOfRange)
{
    for (Backend be : regionBackends()) {
        SCOPED_TRACE(backendName(be));
        CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
        opt.backend = be;
        std::unique_ptr<Pipeline> p;
        for (const Shape& sh : resetShapes()) {
            CompileReport rep;
            auto q = compilePipeline(sh.make(), opt, &rep);
            if (dynamic_cast<FusedNode*>(&q->root())) {
                ASSERT_EQ(rep.cgen.fallbacks, 0);
                p = std::move(q);
                break;
            }
        }
        ASSERT_TRUE(p) << "no shape lowered to a bare FusedNode root";
        ASSERT_EQ(static_cast<FusedNode&>(p->root()).bound(),
                  be == Backend::Native);
        p->root().start(p->frame());
        auto snap = takeSnapshot(p->root(), p->frame(), 0, 0);

        // Walk the container to the fused pc field: 24-byte header,
        // frame image blob, register space, state block, channel pc
        // table.
        auto rdU64 = [&](size_t o) {
            uint64_t v = 0;
            for (int i = 0; i < 8; ++i)
                v |= static_cast<uint64_t>(snap[o + i]) << (8 * i);
            return v;
        };
        size_t off = 24;
        off += 8 + rdU64(off);  // frame image
        off += 8 + rdU64(off);  // register space
        off += 8 + rdU64(off);  // state block
        uint64_t nch = rdU64(off);
        off += 8 + nch * 9;     // per-channel {prodPc, consPc, full}
        ASSERT_LE(off + 4, snap.size());

        // Rejected by restore(), before compiled code could reach its
        // "cgen: bad pc" trap.
        auto badPc = snap;
        std::fill(badPc.begin() + static_cast<long>(off),
                  badPc.begin() + static_cast<long>(off) + 4,
                  uint8_t{0xff});
        EXPECT_THROW(restoreSnapshot(p->root(), p->frame(), badPc),
                     StateFormatError);

        // The out-pointer tag sits after pc (4), spins (8), ctrl width
        // (8): claim a state-block offset far past the block.
        size_t tag = off + 4 + 8 + 8;
        ASSERT_LE(tag + 9, snap.size());
        auto badPtr = snap;
        badPtr[tag] = 1;
        std::fill(badPtr.begin() + static_cast<long>(tag) + 1,
                  badPtr.begin() + static_cast<long>(tag) + 9,
                  uint8_t{0xff});
        EXPECT_THROW(restoreSnapshot(p->root(), p->frame(), badPtr),
                     StateFormatError);
    }
}

TEST(HostileCheckpoint, FusedNativeSiteRingMisaligned)
{
    // A region's image embeds each native site's NativeNode image; its
    // ring must be bound-checked there too.  Replace the one site's
    // image with rings that are not whole elements.
    for (Backend be : regionBackends()) {
        SCOPED_TRACE(backendName(be));
        CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
        opt.backend = be;
        auto p = compilePipeline(
            zb::pipe(testsupport::throwAtBlock(uint64_t(1) << 62),
                     testsupport::throwAtBlock(uint64_t(1) << 62)),
            opt);
        auto* fn = dynamic_cast<FusedNode*>(&p->root());
        ASSERT_NE(fn, nullptr);
        ASSERT_EQ(fn->program().sites.size(), 2u);
        std::vector<int32_t> in(8, 3);
        auto head = driveUpTo(*p, intBytes(in), 0, 8, true);
        ASSERT_EQ(head.out.size(), 8u * 4);
        auto snap = takeSnapshot(p->root(), p->frame(), 8, 8);
        EXPECT_NO_THROW(restoreSnapshot(p->root(), p->frame(), snap));

        // Walk to the site table: header, frame image, register space,
        // state block, channel table, pc, spins, ctrl width, out/ctrl
        // pointer tags.
        auto rdU64 = [&](size_t o) {
            uint64_t v = 0;
            for (int i = 0; i < 8; ++i)
                v |= static_cast<uint64_t>(snap[o + i]) << (8 * i);
            return v;
        };
        size_t off = 24;
        off += 8 + rdU64(off);
        off += 8 + rdU64(off);
        off += 8 + rdU64(off);
        off += 8 + rdU64(off) * 9;
        off += 4 + 8 + 8 + 9 + 9;
        ASSERT_EQ(rdU64(off), 2u);
        off += 8;

        const uint8_t ring[8] = {0};
        auto withSite = [&](uint64_t head, size_t ringBytes) {
            std::vector<uint8_t> bad(snap.begin(),
                                     snap.begin() + static_cast<long>(off));
            StateWriter w;
            w.u8(0);  // not finished
            w.u64(head);
            w.blob(ring, ringBytes);
            const uint8_t outBuf[4] = {0};
            w.bytes(outBuf, sizeof outBuf);
            w.u8(0);  // no kernel yet
            std::vector<uint8_t> site = w.take();
            bad.insert(bad.end(), site.begin(), site.end());
            bad.insert(bad.end(), site.begin(), site.end());
            return bad;
        };
        EXPECT_NO_THROW(
            restoreSnapshot(p->root(), p->frame(), withSite(4, 8)));
        EXPECT_THROW(restoreSnapshot(p->root(), p->frame(), withSite(0, 6)),
                     StateFormatError);  // ring not whole elements
        EXPECT_THROW(restoreSnapshot(p->root(), p->frame(), withSite(2, 8)),
                     StateFormatError);  // cursor mid-element
        EXPECT_THROW(restoreSnapshot(p->root(), p->frame(), withSite(12, 8)),
                     StateFormatError);  // cursor past the ring
    }
}

// ------------------------------------------- round-trip totality

TEST(SnapshotRoundTrip, AllShapesAcrossBackendsAndOptLevels)
{
    for (const Shape& sh : resetShapes()) {
        for (OptLevel lvl : {OptLevel::None, OptLevel::All}) {
            std::vector<Backend> backends = regionBackends();
            backends.insert(backends.begin(), Backend::Vm);
            for (Backend be : backends) {
                SCOPED_TRACE(
                    std::string(sh.name) + " at OptLevel " +
                    (lvl == OptLevel::None ? "None" : "All") + ", " +
                    backendName(be));
                CompilerOptions opt = CompilerOptions::forLevel(lvl);
                opt.backend = be;
                auto p = compilePipeline(sh.make(), opt);

                ASSERT_EQ(p->inWidth() % 4, 0u);
                std::vector<int32_t> in(24 * (p->inWidth() / 4));
                for (size_t i = 0; i < in.size(); ++i)
                    in[i] = static_cast<int32_t>(i);
                auto bytes = intBytes(in);

                // Run to the 5-element park, snapshot there, then
                // drive the ORIGINAL instance to the end: that tail is
                // the ground truth the restored instance must match.
                auto head = driveUpTo(*p, bytes, 0, 5, /*init=*/true);
                auto snap = takeSnapshot(p->root(), p->frame(),
                                         head.consumed, 0);
                auto want = driveUpTo(*p, bytes, head.consumed,
                                      SIZE_MAX, /*init=*/false);

                // The tree is now dirty (run to completion); restore
                // must rewind it to the park without a start().
                SnapshotInfo info =
                    restoreSnapshot(p->root(), p->frame(), snap);
                EXPECT_EQ(info.consumed, head.consumed);
                auto got = driveUpTo(*p, bytes, head.consumed,
                                     SIZE_MAX, /*init=*/false);
                EXPECT_EQ(got.out, want.out)
                    << "restored continuation diverged";
                EXPECT_EQ(got.consumed, want.consumed);
                EXPECT_EQ(got.done, want.done);
            }
        }
    }
}

/**
 * Compile @p c for @p be; @p bind false leaves native regions unbound
 * (an unusable cache dir fails the compile) — the fallback a peer
 * without a working compiler runs.
 */
std::unique_ptr<Pipeline>
compileFor(const CompPtr& c, OptLevel lvl, Backend be, bool bind = true)
{
    CompilerOptions opt = CompilerOptions::forLevel(lvl);
    opt.backend = be;
    if (!bind)
        opt.cgenCacheDir = "/dev/null/zcgen";
    CompileReport rep;
    auto p = compilePipeline(c, opt, &rep);
    EXPECT_EQ(rep.cgen.fallbacks, bind ? 0 : rep.cgen.regions);
    return p;
}

bool
sameInstrs(const zfuse::FuseProgram& x, const zfuse::FuseProgram& y)
{
    if (x.instrs.size() != y.instrs.size() || x.nRegs != y.nRegs ||
        x.stateBytes != y.stateBytes ||
        x.channels.size() != y.channels.size())
        return false;
    for (size_t i = 0; i < x.instrs.size(); ++i) {
        const zfuse::Instr& a = x.instrs[i];
        const zfuse::Instr& b = y.instrs[i];
        if (a.op != b.op || a.a != b.a || a.b != b.b || a.c != b.c ||
            a.d != b.d || a.e != b.e || a.fn != b.fn)
            return false;
    }
    return true;
}

/**
 * Checkpoint @p make's pipeline after @p at input elements on one backend,
 * resume it on another, and compare the whole output with the VM's:
 * native -> fused, fused -> native and native -> unbound native.
 */
void
checkPortable(const std::function<CompPtr()>& make, OptLevel lvl,
              const std::vector<uint8_t>& bytes, size_t at,
              const std::string& what)
{
    struct Leg
    {
        const char* name;
        Backend from;
        Backend to;
        bool toBound;
    };
    const Leg legs[] = {
        {"native -> fused", Backend::Native, Backend::Fused, true},
        {"fused -> native", Backend::Fused, Backend::Native, true},
        {"native -> unbound native", Backend::Native, Backend::Native,
         false},
    };
    auto vm = compileFor(make(), lvl, Backend::Vm);
    auto want = driveUpTo(*vm, bytes, 0, SIZE_MAX, true);
    for (const Leg& leg : legs) {
        SCOPED_TRACE(what + " at OptLevel " +
                     (lvl == OptLevel::None ? "None" : "All") + ", " +
                     leg.name);
        auto src = compileFor(make(), lvl, leg.from);
        auto dst = compileFor(make(), lvl, leg.to, leg.toBound);
        auto head = driveUpTo(*src, bytes, 0, at, true);
        auto snap = takeSnapshot(src->root(), src->frame(),
                                 head.consumed, 0);
        restoreSnapshot(dst->root(), dst->frame(), snap);
        auto tail = driveUpTo(*dst, bytes, head.consumed, SIZE_MAX, false);
        std::vector<uint8_t> got = head.out;
        got.insert(got.end(), tail.out.begin(), tail.out.end());
        EXPECT_EQ(got, want.out);
        EXPECT_EQ(head.consumed + tail.consumed, want.consumed);
        EXPECT_EQ(tail.done, want.done);
    }
}

std::vector<uint8_t>
randomBytes(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> out(n);
    for (auto& b : out)
        b = static_cast<uint8_t>(rng.next());
    return out;
}

bool
containsBytes(const std::vector<uint8_t>& hay,
              const std::vector<uint8_t>& needle)
{
    return std::search(hay.begin(), hay.end(), needle.begin(),
                       needle.end()) != hay.end();
}

/**
 * Two R12 packets (300 idle samples, packet 1, 3000 idle, packet 2, 300
 * idle) through a 35 dB channel, as the receiver's Complex16 byte
 * stream.  Packet 1's DATA field starts 400 samples after its first
 * sample (preamble 320 + SIGNAL 80).
 */
std::vector<uint8_t>
rxTwoPackets(const std::vector<uint8_t>& payload1,
             const std::vector<uint8_t>& payload2)
{
    using namespace wifi;
    auto tx1 = sora::txFrame(payload1, Rate::R12);
    auto tx2 = sora::txFrame(payload2, Rate::R12);

    std::vector<Complex16> stream;
    stream.insert(stream.end(), 300, Complex16{0, 0});
    stream.insert(stream.end(), tx1.begin(), tx1.end());
    stream.insert(stream.end(), 3000, Complex16{0, 0});
    stream.insert(stream.end(), tx2.begin(), tx2.end());
    stream.insert(stream.end(), 300, Complex16{0, 0});

    channel::ChannelConfig cfg;
    cfg.snrDb = 35.0;
    cfg.seed = 93;
    auto rxSamples = channel::applyChannel(stream, cfg);
    std::vector<uint8_t> sampBytes(rxSamples.size() * 4);
    std::memcpy(sampBytes.data(), rxSamples.data(), sampBytes.size());
    return sampBytes;
}

TEST(SnapshotRoundTrip, PortableAcrossFusedAndNative)
{
    // One region state, one snapshot format: a checkpoint taken while
    // compiled code runs restores into the interpreter and back.
    if (!zcgen::compilerAvailable())
        GTEST_SKIP() << "no C++ compiler on this host";
    for (const Shape& sh : resetShapes()) {
        for (OptLevel lvl : {OptLevel::None, OptLevel::All}) {
            size_t inW = compileFor(sh.make(), lvl, Backend::Vm)->inWidth();
            std::vector<int32_t> in(24 * (inW / 4));
            for (size_t i = 0; i < in.size(); ++i)
                in[i] = static_cast<int32_t>(7 * i + 3);
            checkPortable(sh.make, lvl, intBytes(in), 5, sh.name);
        }
    }

    // Bit-domain programs LUT at OptLevel::All: the interpreter applies
    // the tables, compiled code runs the kernels, and one checkpoint
    // still resumes on either because both run one instruction stream.
    using namespace wifi;
    const Shape lutShapes[] = {
        {"scrambler", [] { return scramblerBlock(); }},
        {"tx6-chain",
         [] {
             const RateInfo& ri = rateInfo(Rate::R6);
             return zb::pipe(
                 zb::pipe(zb::pipe(scramblerBlock(),
                                   encoderBlock(ri.coding)),
                          interleaverBlock(ri.modulation)),
                 modulatorBlock(ri.modulation));
         }},
    };
    std::vector<uint8_t> bits(24 * 48);
    Rng rng(21);
    for (auto& b : bits)
        b = rng.bit();
    for (const Shape& sh : lutShapes) {
        SCOPED_TRACE(sh.name);
        CompileReport rep;
        CompilerOptions all = CompilerOptions::forLevel(OptLevel::All);
        all.backend = Backend::Native;
        auto native = compilePipeline(sh.make(), all, &rep);
        ASSERT_GT(rep.build.lutsBuilt, 0);
        all.backend = Backend::Fused;
        auto fused = compilePipeline(sh.make(), all);
        auto* nr = dynamic_cast<const FusedNode*>(&native->root());
        auto* fr = dynamic_cast<const FusedNode*>(&fused->root());
        ASSERT_TRUE(nr && fr) << "expected one region at the root";
        EXPECT_TRUE(nr->bound());
        EXPECT_FALSE(fr->bound());
        EXPECT_GT(fr->program().countOp(zfuse::Op::Lut), 0u);
        EXPECT_TRUE(sameInstrs(nr->program(), fr->program()))
            << "fused:\n" << fr->program().disassemble() << "native:\n"
            << nr->program().disassemble();
        // Mid-packet: several kernel applications in, off a group edge.
        checkPortable(sh.make, OptLevel::All, bits, 101, sh.name);
    }

    // The receiver, whose FFT, Viterbi and friends are native sites of
    // its one region: checkpointed inside packet 1's DATA field, with
    // the Viterbi mid-trellis, it resumes on the other backend and
    // decodes both packets to the VM's bytes.
    auto rx = rxTwoPackets(randomBytes(40, 91), randomBytes(40, 92));
    for (OptLevel lvl : {OptLevel::None, OptLevel::All})
        checkPortable([] { return wifiReceiverLoopComp(); }, lvl, rx,
                      300 + 400 + 160, "wifi rx");
}

TEST(SnapshotRoundTrip, RestoreIsRepeatable)
{
    // One snapshot, two restores: the image must not be consumed or
    // mutated by restoring it (a drain replay may restore twice).
    const Shape& sh = resetShapes()[10];  // letvar-accumulator
    auto p = compilePipeline(sh.make(),
                             CompilerOptions::forLevel(OptLevel::None));
    std::vector<int32_t> in(24);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i);
    auto bytes = intBytes(in);

    auto head = driveUpTo(*p, bytes, 0, 7, true);
    auto snap = takeSnapshot(p->root(), p->frame(), head.consumed, 0);
    auto want = driveUpTo(*p, bytes, head.consumed, SIZE_MAX, false);

    for (int round = 0; round < 2; ++round) {
        restoreSnapshot(p->root(), p->frame(), snap);
        auto got = driveUpTo(*p, bytes, head.consumed, SIZE_MAX, false);
        EXPECT_EQ(got.out, want.out) << "round " << round;
    }
}

TEST(SnapshotRoundTrip, WifiRxMidPacketCheckpointDecodesThePacket)
{
    // Checkpoint the full receiver ~140 samples INTO packet 1 — with
    // live channel-estimate, demapper and Viterbi path-memory state —
    // and prove the restored instance still decodes packet 1 (whose
    // decode spans the checkpoint) and packet 2, byte-identically to
    // the uninterrupted continuation.
    using namespace wifi;
    auto payload1 = randomBytes(40, 91);
    auto payload2 = randomBytes(40, 92);
    std::vector<uint8_t> sampBytes = rxTwoPackets(payload1, payload2);

    auto rx = compilePipeline(wifiReceiverLoopComp(),
                              CompilerOptions::forLevel(OptLevel::None));
    ASSERT_EQ(rx->inWidth(), 4u);  // one Complex16 sample per element

    auto head = driveUpTo(*rx, sampBytes, 0, 600, true);
    auto snap =
        takeSnapshot(rx->root(), rx->frame(), head.consumed, 0);
    auto want = driveUpTo(*rx, sampBytes, head.consumed, SIZE_MAX,
                          false);

    restoreSnapshot(rx->root(), rx->frame(), snap);
    auto got = driveUpTo(*rx, sampBytes, head.consumed, SIZE_MAX,
                         false);
    EXPECT_EQ(got.out, want.out);

    std::vector<uint8_t> bits = head.out;
    bits.insert(bits.end(), got.out.begin(), got.out.end());
    auto bytes = bitsToBytes(bits);
    EXPECT_TRUE(containsBytes(bytes, payload1))
        << "the packet whose decode spans the checkpoint was lost";
    EXPECT_TRUE(containsBytes(bytes, payload2));
}

// ------------------------------------------- checkpointed restart

void
checkCheckpointedRestart(Backend be, OptLevel lvl)
{
    SCOPED_TRACE(std::string(backendName(be)) + " at OptLevel " +
                 (lvl == OptLevel::None ? "None" : "All"));
    const Shape& sh = resetShapes()[10];  // letvar-accumulator
    ASSERT_STREQ(sh.name, "letvar-accumulator");

    auto clean = compilePipeline(sh.make(),
                                 CompilerOptions::forLevel(lvl));
    std::vector<int32_t> in(50 * (clean->inWidth() / 4));
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i + 1);
    auto bytes = intBytes(in);
    auto expect = clean->runBytes(bytes);

    CompilerOptions opt = CompilerOptions::forLevel(lvl);
    opt.backend = be;
    opt.restart.mode = RestartMode::OnFailure;
    opt.restart.maxRestarts = 3;
    opt.restart.backoffInitialMs = 1;
    opt.checkpoint.interval = 4;
    auto p = compilePipeline(sh.make(), opt);
    // Every backend must agree on the compiled element width for the
    // clean run above to be the right oracle.
    ASSERT_EQ(p->inWidth(), clean->inWidth());

    auto& reg = metrics::Registry::global();
    uint64_t attempts0 = reg.counter("restart.attempts").value();
    uint64_t snaps0 = reg.counter("ziria.ckpt.snapshots").value();
    uint64_t restores0 = reg.counter("ziria.ckpt.restores").value();

    MemSource mem(bytes, p->inWidth());
    FaultySource src(mem, FaultSpec::parse("throw@10"));
    VecSink sink(p->outWidth());
    ASSERT_NO_THROW(p->run(src, sink));

    EXPECT_EQ(sink.data(), expect)
        << "checkpointed restart is not byte-identical to the "
           "uninterrupted run";
    EXPECT_EQ(reg.counter("restart.attempts").value(), attempts0 + 1);
    EXPECT_EQ(reg.counter("ziria.ckpt.restores").value(),
              restores0 + 1);
    EXPECT_GT(reg.counter("ziria.ckpt.snapshots").value(), snaps0);
    EXPECT_EQ(src.fired(), 1u);
}

TEST(CheckpointedRestart, ByteIdenticalAfterFaultVm)
{
    checkCheckpointedRestart(Backend::Vm, OptLevel::None);
    checkCheckpointedRestart(Backend::Vm, OptLevel::All);
}

TEST(CheckpointedRestart, ByteIdenticalAfterFaultFused)
{
    checkCheckpointedRestart(Backend::Fused, OptLevel::None);
    checkCheckpointedRestart(Backend::Fused, OptLevel::All);
}

TEST(CheckpointedRestart, ByteIdenticalAfterFaultNative)
{
    if (!zcgen::compilerAvailable())
        GTEST_SKIP() << "no C++ compiler on this host";
    checkCheckpointedRestart(Backend::Native, OptLevel::None);
    checkCheckpointedRestart(Backend::Native, OptLevel::All);
}

TEST(CheckpointedRestart, PlainRestartDivergesOnStatefulPipelines)
{
    // The motivating contrast: WITHOUT a checkpoint interval, a
    // restart resets the accumulator to zero and the tail of the
    // output provably differs — the behavior checkpointing fixes.
    const Shape& sh = resetShapes()[10];
    auto clean = compilePipeline(sh.make(),
                                 CompilerOptions::forLevel(
                                     OptLevel::None));
    std::vector<int32_t> in(50);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i + 1);
    auto bytes = intBytes(in);
    auto expect = clean->runBytes(bytes);

    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.restart.mode = RestartMode::OnFailure;
    opt.restart.maxRestarts = 3;
    opt.restart.backoffInitialMs = 1;
    auto p = compilePipeline(sh.make(), opt);

    MemSource mem(bytes, p->inWidth());
    FaultySource src(mem, FaultSpec::parse("throw@10"));
    VecSink sink(p->outWidth());
    ASSERT_NO_THROW(p->run(src, sink));
    EXPECT_NE(sink.data(), expect);
}

TEST(CheckpointedRestart, SurvivesTwoFaultsInOneRun)
{
    // A second fault during/after journal replay must restore again
    // from the same boundary and still converge byte-identically.
    const Shape& sh = resetShapes()[10];
    auto clean = compilePipeline(sh.make(),
                                 CompilerOptions::forLevel(
                                     OptLevel::None));
    std::vector<int32_t> in(50);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i + 1);
    auto bytes = intBytes(in);
    auto expect = clean->runBytes(bytes);

    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.restart.mode = RestartMode::OnFailure;
    opt.restart.maxRestarts = 3;
    opt.restart.backoffInitialMs = 1;
    opt.checkpoint.interval = 8;
    auto p = compilePipeline(sh.make(), opt);

    MemSource mem(bytes, p->inWidth());
    FaultySource src(mem, FaultSpec::parse("throw@10:2"));
    VecSink sink(p->outWidth());
    ASSERT_NO_THROW(p->run(src, sink));
    EXPECT_EQ(sink.data(), expect);
    EXPECT_EQ(src.fired(), 2u);
}

} // namespace
} // namespace ziria
