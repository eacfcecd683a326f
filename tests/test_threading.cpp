/**
 * @file
 * Concurrency tests: the SPSC interthread queue and multi-stage
 * threaded pipelines (|>>>|) under load, early termination, and error
 * propagation.
 */
#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "support/metrics.h"
#include "support/panic.h"
#include "support/rng.h"
#include "support/spsc_queue.h"
#include "zast/builder.h"
#include "zexec/faultpoint.h"
#include "zir/compiler.h"

namespace ziria {
namespace {

using namespace zb;

TEST(SpscQueue, FifoUnderLoad)
{
    SpscQueue q(4, 64);
    const uint32_t N = 200000;
    std::thread producer([&] {
        for (uint32_t i = 0; i < N; ++i) {
            ASSERT_TRUE(q.push(reinterpret_cast<const uint8_t*>(&i)));
        }
        q.close();
    });
    uint32_t v = 0;
    for (uint32_t i = 0; i < N; ++i) {
        ASSERT_TRUE(q.pop(reinterpret_cast<uint8_t*>(&v)));
        ASSERT_EQ(v, i);
    }
    EXPECT_FALSE(q.pop(reinterpret_cast<uint8_t*>(&v)));
    producer.join();
}

TEST(SpscQueue, CloseUnblocksConsumer)
{
    SpscQueue q(1, 8);
    std::thread t([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        q.close();
    });
    uint8_t b;
    EXPECT_FALSE(q.pop(&b));
    t.join();
}

TEST(SpscQueue, CancelUnblocksProducer)
{
    SpscQueue q(1, 2);
    uint8_t b = 7;
    ASSERT_TRUE(q.push(&b));
    ASSERT_TRUE(q.push(&b));
    std::thread t([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        q.cancel();
    });
    EXPECT_FALSE(q.push(&b));  // was full; cancel released us
    t.join();
}

TEST(SpscQueue, PushWaitTimesOutWithoutEnqueueing)
{
    SpscQueue q(1, 1);
    uint8_t b = 9;
    ASSERT_TRUE(q.push(&b));  // full
    EXPECT_EQ(q.pushWait(&b, 30), QueueWait::Timeout);
    // The timed-out element must NOT have been enqueued: popping twice
    // yields exactly one element.
    uint8_t v = 0;
    EXPECT_EQ(q.popWait(&v, 0), QueueWait::Ready);
    EXPECT_EQ(v, 9);
    EXPECT_EQ(q.popWait(&v, 30), QueueWait::Timeout);
}

TEST(SpscQueue, PopWaitTimesOutWhenEmpty)
{
    SpscQueue q(4, 8);
    uint8_t buf[4];
    EXPECT_EQ(q.popWait(buf, 30), QueueWait::Timeout);
    uint32_t x = 42;
    ASSERT_TRUE(q.push(reinterpret_cast<const uint8_t*>(&x)));
    EXPECT_EQ(q.popWait(buf, 30), QueueWait::Ready);
}

TEST(SpscQueue, CancelWakesBlockedWaitersOnBothSides)
{
    SpscQueue q(1, 1);
    uint8_t b = 1;
    ASSERT_TRUE(q.push(&b));  // full: the producer below will block

    std::atomic<int> released{0};
    std::thread producer([&] {
        uint8_t x = 2;
        EXPECT_EQ(q.pushWait(&x, -1), QueueWait::Cancelled);
        released.fetch_add(1);
    });
    SpscQueue q2(1, 1);  // empty: the consumer below will block
    std::thread consumer([&] {
        uint8_t v;
        EXPECT_EQ(q2.popWait(&v, -1), QueueWait::Cancelled);
        released.fetch_add(1);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    q.cancel();
    q2.cancel();
    producer.join();
    consumer.join();
    EXPECT_EQ(released.load(), 2);
}

TEST(SpscQueue, PopReportsCancelledEvenWithDataQueued)
{
    // Cancel means "stop now", not "drain first": a consumer must not
    // keep processing a cancelled run's backlog.
    SpscQueue q(1, 4);
    uint8_t b = 5;
    ASSERT_TRUE(q.push(&b));
    ASSERT_TRUE(q.push(&b));
    q.cancel();
    uint8_t v;
    EXPECT_EQ(q.popWait(&v, 0), QueueWait::Cancelled);
    EXPECT_EQ(q.pushWait(&b, 0), QueueWait::Cancelled);
}

TEST(SpscQueue, CloseAfterDrainIsDistinctFromTimeout)
{
    SpscQueue q(1, 4);
    uint8_t b = 3;
    ASSERT_TRUE(q.push(&b));
    q.close();
    uint8_t v;
    EXPECT_EQ(q.popWait(&v, 10), QueueWait::Ready);  // drains the ring
    EXPECT_EQ(v, 3);
    EXPECT_EQ(q.popWait(&v, 10), QueueWait::Closed);
    EXPECT_EQ(q.popWait(&v, 10), QueueWait::Closed);  // stays closed
}

TEST(SpscQueue, ReopenClearsLatchesDropsBacklogAndZeroesStats)
{
    // reopen() is what re-arms the stage queues between restart
    // attempts: the closed/cancelled latches must clear, leftover
    // elements must be dropped, and the stats (resetStats) must start
    // from zero so the retry's telemetry is not polluted by the failed
    // attempt.
    SpscQueue q(4, 2);
    uint32_t x = 11;
    ASSERT_TRUE(q.push(reinterpret_cast<const uint8_t*>(&x)));
    ASSERT_TRUE(q.push(reinterpret_cast<const uint8_t*>(&x)));
    EXPECT_EQ(q.pushWait(reinterpret_cast<const uint8_t*>(&x), 10),
              QueueWait::Timeout);  // generates a pushStall
    q.close();
    q.cancel();
    ASSERT_TRUE(q.closed());
    ASSERT_TRUE(q.cancelled());
    ASSERT_GT(q.stats().pushed, 0u);
    ASSERT_GT(q.stats().pushStalls, 0u);

    q.reopen();

    EXPECT_FALSE(q.closed());
    EXPECT_FALSE(q.cancelled());
    SpscQueue::Stats st = q.stats();
    EXPECT_EQ(st.pushed, 0u);
    EXPECT_EQ(st.popped, 0u);
    EXPECT_EQ(st.pushStalls, 0u);
    EXPECT_EQ(st.popStalls, 0u);
    EXPECT_EQ(st.highWater, 0u);

    // The backlog is gone and the queue works again end to end.
    uint32_t y = 42, v = 0;
    ASSERT_TRUE(q.push(reinterpret_cast<const uint8_t*>(&y)));
    EXPECT_EQ(q.stats().pushed, 1u);
    ASSERT_TRUE(q.pop(reinterpret_cast<uint8_t*>(&v)));
    EXPECT_EQ(v, 42u);
    q.close();
    EXPECT_EQ(q.popWait(reinterpret_cast<uint8_t*>(&v), 10),
              QueueWait::Closed);
}

namespace {

CompPtr
incBlock(int32_t delta)
{
    VarRef x = freshVar("x", Type::int32());
    return repeatc(seqc({bindc(x, take(Type::int32())),
                         just(emit(var(x) + delta))}));
}

std::vector<uint8_t>
intBytes(const std::vector<int32_t>& xs)
{
    std::vector<uint8_t> out(xs.size() * 4);
    std::memcpy(out.data(), xs.data(), out.size());
    return out;
}

} // namespace

TEST(Threaded, ThreeStagesMatchSingle)
{
    auto mk = [](bool threaded) {
        CompPtr a = incBlock(1);
        CompPtr b = incBlock(10);
        CompPtr c = incBlock(100);
        return threaded
            ? ppipe(ppipe(std::move(a), std::move(b)), std::move(c))
            : pipe(pipe(std::move(a), std::move(b)), std::move(c));
    };
    std::vector<int32_t> in(50000);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i);
    auto bytes = intBytes(in);

    auto single = compilePipeline(
        mk(false), CompilerOptions::forLevel(OptLevel::None));
    auto expect = single->runBytes(bytes);

    auto multi = compileThreadedPipeline(
        mk(true), CompilerOptions::forLevel(OptLevel::None));
    MemSource src(bytes, 4);
    VecSink sink(4);
    RunStats st = multi->run(src, sink);
    EXPECT_EQ(st.consumed, in.size());
    EXPECT_EQ(sink.data(), expect);
}

TEST(Threaded, VectorizedStagesMatchSingle)
{
    auto mk = [](bool threaded) {
        CompPtr a = incBlock(2);
        CompPtr b = incBlock(3);
        return threaded ? ppipe(std::move(a), std::move(b))
                        : pipe(std::move(a), std::move(b));
    };
    std::vector<int32_t> in(288 * 64);
    Rng rng(4);
    for (auto& v : in)
        v = static_cast<int32_t>(rng.next());
    auto bytes = intBytes(in);

    auto expect = compilePipeline(
        mk(false), CompilerOptions::forLevel(OptLevel::None))
        ->runBytes(bytes);

    auto multi = compileThreadedPipeline(
        mk(true), CompilerOptions::forLevel(OptLevel::All));
    MemSource src(bytes, multi->inWidth());
    VecSink sink(multi->outWidth());
    multi->run(src, sink);
    size_t n = std::min(sink.data().size(), expect.size());
    EXPECT_GT(n, expect.size() - 288 * 8);
    EXPECT_TRUE(std::equal(sink.data().begin(),
                           sink.data().begin() + static_cast<long>(n),
                           expect.begin()));
}

TEST(Threaded, MidStageComputerStopsPipeline)
{
    // Middle stage halts after 5 elements: upstream must unblock, the
    // run must report a halt, and nothing should hang.
    VarRef a = freshVar("a", Type::int32());
    std::vector<SeqComp::Item> items;
    items.push_back(bindc(a, take(Type::int32())));
    for (int i = 0; i < 4; ++i)
        items.push_back(just(take(Type::int32())));
    items.push_back(just(ret(var(a))));
    CompPtr mid = seqc(std::move(items));

    auto p = compileThreadedPipeline(
        ppipe(ppipe(incBlock(1), std::move(mid)), incBlock(5)),
        CompilerOptions::forLevel(OptLevel::None));
    std::vector<int32_t> in(200000, 3);
    auto bytes = intBytes(in);
    MemSource src(bytes, 4);
    NullSink sink;
    RunStats st = p->run(src, sink);
    EXPECT_TRUE(st.halted);
    EXPECT_LT(st.consumed, in.size());
}

TEST(Threaded, StageErrorPropagates)
{
    // Division by zero inside stage 2 must surface on the calling thread.
    VarRef x = freshVar("x", Type::int32());
    CompPtr bad = repeatc(seqc({bindc(x, take(Type::int32())),
                                just(emit(cInt(7) / var(x)))}));
    auto p = compileThreadedPipeline(
        ppipe(incBlock(0), std::move(bad)),
        CompilerOptions::forLevel(OptLevel::None));
    std::vector<int32_t> in{1, 2, 0, 4};
    auto bytes = intBytes(in);
    MemSource src(bytes, 4);
    NullSink sink;
    EXPECT_THROW(p->run(src, sink), FatalError);
}

TEST(Threaded, RunStatsAndStageTelemetry)
{
    // Stage/queue telemetry is recorded on every threaded run, even
    // without per-node instrumentation.
    auto p = compileThreadedPipeline(
        ppipe(incBlock(1), incBlock(2)),
        CompilerOptions::forLevel(OptLevel::None));
    std::vector<int32_t> in(20000);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<int32_t>(i);
    auto bytes = intBytes(in);
    MemSource src(bytes, 4);
    VecSink sink(4);
    RunStats st = p->run(src, sink);
    EXPECT_EQ(st.consumed, in.size());
    EXPECT_EQ(st.emitted, in.size());

    ASSERT_NE(st.metrics, nullptr);
    ASSERT_EQ(st.metrics->stages.size(), p->stageCount());
    const StageMetrics& s0 = st.metrics->stages.front();
    const StageMetrics& s1 = st.metrics->stages.back();
    EXPECT_EQ(s0.consumed, st.consumed);
    EXPECT_EQ(s1.emitted, st.emitted);
    EXPECT_EQ(s0.emitted, s1.consumed);  // all queue traffic delivered
    EXPECT_FALSE(s0.halted);
    EXPECT_GE(s0.sec, 0.0);

    EXPECT_TRUE(s0.hasQueue);
    EXPECT_FALSE(s1.hasQueue);
    EXPECT_GT(s0.queueCapacity, 0u);
    EXPECT_GE(s0.queueHighWater, 1u);
    EXPECT_LE(s0.queueHighWater, s0.queueCapacity);
}

TEST(Threaded, TelemetryReplacedEachRunAndRecordsHalt)
{
    // A halting middle stage: its StageMetrics entry reports the halt,
    // and a second run replaces (not appends to) the stage records.
    VarRef a = freshVar("a", Type::int32());
    auto mkHalting = [&] {
        return seqc({bindc(a, take(Type::int32())),
                     just(ret(var(a)))});
    };
    auto p = compileThreadedPipeline(
        ppipe(incBlock(1), mkHalting()),
        CompilerOptions::forLevel(OptLevel::None));
    std::vector<int32_t> in(50000, 2);
    auto bytes = intBytes(in);
    for (int round = 0; round < 2; ++round) {
        MemSource src(bytes, 4);
        NullSink sink;
        RunStats st = p->run(src, sink);
        EXPECT_TRUE(st.halted);
        ASSERT_NE(st.metrics, nullptr);
        ASSERT_EQ(st.metrics->stages.size(), 2u);
        EXPECT_TRUE(st.metrics->stages.back().halted);
        EXPECT_FALSE(st.metrics->stages.front().halted);
    }
}

TEST(Threaded, InstrumentedStagesExposePerNodeCounters)
{
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.instrument = true;
    auto p = compileThreadedPipeline(
        ppipe(incBlock(1), incBlock(2)), opt);
    std::vector<int32_t> in{1, 2, 3, 4, 5};
    auto bytes = intBytes(in);
    MemSource src(bytes, 4);
    VecSink sink(4);
    RunStats st = p->run(src, sink);

    ASSERT_NE(st.metrics, nullptr);
    const NodeMetrics* stage0 = nullptr;
    const NodeMetrics* stage1 = nullptr;
    for (const auto& n : st.metrics->nodes) {
        if (n.path == "stage0")
            stage0 = &n;
        if (n.path == "stage1")
            stage1 = &n;
    }
    ASSERT_NE(stage0, nullptr);
    ASSERT_NE(stage1, nullptr);
    EXPECT_EQ(stage0->elemsIn(), in.size());
    EXPECT_EQ(stage0->elemsOut(), in.size());
    EXPECT_EQ(stage1->elemsOut(), st.emitted);
}

TEST(Threaded, RestartRecoversFromTransientSourceThrow)
{
    // A one-shot source throw with a restart budget: the run must come
    // back and finish the stream.  Threaded restart may drop whatever
    // was in flight in the stage queues at teardown, but never more,
    // and never reorders or duplicates.
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.queueCapacity = 8;
    opt.restart.mode = RestartMode::OnFailure;
    opt.restart.maxRestarts = 3;
    opt.restart.backoffInitialMs = 1;
    auto p = compileThreadedPipeline(
        ppipe(incBlock(1), incBlock(10)), opt);

    const size_t N = 100;
    std::vector<int32_t> in(N);
    for (size_t i = 0; i < N; ++i)
        in[i] = static_cast<int32_t>(i);
    auto bytes = intBytes(in);
    MemSource mem(bytes, 4);
    FaultySource src(mem, FaultSpec::parse("throw@10"));
    VecSink sink(4);

    auto& reg = metrics::Registry::global();
    uint64_t attempts0 = reg.counter("restart.attempts").value();
    uint64_t exhausted0 = reg.counter("restart.exhausted").value();

    RunStats st = p->run(src, sink);  // must not throw
    (void)st;

    EXPECT_EQ(reg.counter("restart.attempts").value(), attempts0 + 1);
    EXPECT_EQ(reg.counter("restart.exhausted").value(), exhausted0);
    EXPECT_EQ(src.fired(), 1u);

    // Bounded loss: at most the queue capacity plus the two stages'
    // in-flight elements can vanish across the restart.
    std::vector<int32_t> got(sink.data().size() / 4);
    std::memcpy(got.data(), sink.data().data(), sink.data().size());
    ASSERT_GE(got.size(), N - (8 + 2));
    for (size_t i = 1; i < got.size(); ++i)
        ASSERT_LT(got[i - 1], got[i]) << "output reordered at " << i;
    for (int32_t v : got) {
        EXPECT_GE(v, in.front() + 11);  // every value is some in[i] + 11
        EXPECT_LE(v, in.back() + 11);
    }
    EXPECT_EQ(got.back(), in.back() + 11)
        << "the post-fault tail of the stream was not processed";
}

TEST(Threaded, RestartBudgetExhaustionCarriesHistory)
{
    // throw@10:0 fires on EVERY attempt (count 0 = permanent fault):
    // the supervisor must spend exactly maxRestarts retries, then
    // rethrow with the attempt history and the exhausted marker.
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
    opt.restart.mode = RestartMode::OnFailure;
    opt.restart.maxRestarts = 2;
    opt.restart.backoffInitialMs = 1;
    auto p = compileThreadedPipeline(
        ppipe(incBlock(1), incBlock(10)), opt);

    std::vector<int32_t> in(64, 7);
    auto bytes = intBytes(in);
    MemSource mem(bytes, 4);
    FaultySource src(mem, FaultSpec::parse("throw@10:0"));
    NullSink sink;

    auto& reg = metrics::Registry::global();
    uint64_t attempts0 = reg.counter("restart.attempts").value();
    uint64_t exhausted0 = reg.counter("restart.exhausted").value();

    try {
        p->run(src, sink);
        FAIL() << "permanent fault must exhaust the restart budget";
    } catch (const StageFailureError& e) {
        const StageFailure& f = e.failure();
        EXPECT_TRUE(f.restartsExhausted);
        EXPECT_EQ(f.restarts.size(), 2u);
        EXPECT_EQ(f.cause, FailureCause::Exception);
        for (const RestartAttempt& a : f.restarts) {
            EXPECT_EQ(a.cause, FailureCause::Exception);
            EXPECT_NE(a.message.find("injected fault"), std::string::npos);
        }
        EXPECT_NE(std::string(e.what()).find("restart"),
                  std::string::npos);
    }
    EXPECT_EQ(reg.counter("restart.attempts").value(), attempts0 + 2);
    EXPECT_EQ(reg.counter("restart.exhausted").value(), exhausted0 + 1);
    EXPECT_EQ(src.fired(), 3u);  // initial attempt + two retries
}

TEST(SpscQueue, UncancelKeepsBacklogAndReenablesTraffic)
{
    // uncancel() is the per-stage restart primitive for queues NOT
    // adjacent to the failed stage: the teardown latches (every stage
    // closes its output queue and the driver cancels everything on the
    // way out) must clear, but unlike reopen() the backlog is part of a
    // healthy stage's live state and must survive.
    SpscQueue q(4, 4);
    uint32_t a = 7, b = 8, v = 0;
    ASSERT_TRUE(q.push(reinterpret_cast<const uint8_t*>(&a)));
    ASSERT_TRUE(q.push(reinterpret_cast<const uint8_t*>(&b)));
    q.close();
    q.cancel();
    ASSERT_EQ(q.popWait(reinterpret_cast<uint8_t*>(&v), 0),
              QueueWait::Cancelled);

    q.uncancel();

    EXPECT_FALSE(q.closed());
    EXPECT_FALSE(q.cancelled());
    EXPECT_EQ(q.size(), 2u);  // backlog preserved, in order
    ASSERT_TRUE(q.pop(reinterpret_cast<uint8_t*>(&v)));
    EXPECT_EQ(v, 7u);
    ASSERT_TRUE(q.pop(reinterpret_cast<uint8_t*>(&v)));
    EXPECT_EQ(v, 8u);
    uint32_t c = 9;
    ASSERT_TRUE(q.push(reinterpret_cast<const uint8_t*>(&c)));
    ASSERT_TRUE(q.pop(reinterpret_cast<uint8_t*>(&v)));
    EXPECT_EQ(v, 9u);
}

namespace {

/** letvar acc = 0; repeat { x <- take; acc += x; emit acc } */
CompPtr
runningSum()
{
    VarRef acc = freshVar("acc", Type::int32());
    VarRef x = freshVar("x", Type::int32());
    return letvar(
        acc, cInt(0),
        repeatc(seqc({bindc(x, take(Type::int32())),
                      just(doS({assign(var(acc), var(acc) + var(x))})),
                      just(emit(var(acc)))})));
}

std::vector<int32_t>
sinkInts(const VecSink& sink)
{
    std::vector<int32_t> got(sink.data().size() / 4);
    std::memcpy(got.data(), sink.data().data(), sink.data().size());
    return got;
}

} // namespace

/** Stage-scoped restart re-arms one stage's node on every backend. */
const Backend kAllBackends[] = {Backend::Vm, Backend::Fused,
                                Backend::Native};

const char*
backendName(Backend be)
{
    return be == Backend::Vm ? "vm" : be == Backend::Fused ? "fused"
                                                            : "native";
}

TEST(Threaded, StageScopedRestartPreservesDownstreamState)
{
    // Source throws twice (throw@10:2 — the fault clock survives the
    // restart, so it re-fires on the very next read).  With
    // RestartScope::Stage only stage 0 is torn down; the downstream
    // running-sum stage keeps its live accumulator across BOTH
    // restarts, so the output stays strictly monotone.  A
    // pipeline-scoped restart would zero the accumulator and dip.
    for (Backend be : kAllBackends) {
        SCOPED_TRACE(backendName(be));
        CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
        opt.backend = be;
        opt.queueCapacity = 8;
        opt.restart.mode = RestartMode::OnFailure;
        opt.restart.scope = RestartScope::Stage;
        opt.restart.maxRestarts = 4;
        opt.restart.backoffInitialMs = 1;
        auto p = compileThreadedPipeline(
            ppipe(incBlock(1), runningSum()), opt);

        const size_t N = 100;
        std::vector<int32_t> in(N);
        for (size_t i = 0; i < N; ++i)
            in[i] = static_cast<int32_t>(i);  // stage 0 emits 1..N
        auto bytes = intBytes(in);
        MemSource mem(bytes, 4);
        FaultySource src(mem, FaultSpec::parse("throw@10:2"));
        VecSink sink(4);

        auto& reg = metrics::Registry::global();
        uint64_t attempts0 =
            reg.counter("restart.stage.attempts").value();
        uint64_t restored0 =
            reg.counter("restart.stage.restored").value();

        p->run(src, sink);  // must not throw

        // Two re-arms of stage 0; the first restore is skipped (no
        // boundary snapshot exists before the first failure), the
        // second restores.
        EXPECT_EQ(reg.counter("restart.stage.attempts").value(),
                  attempts0 + 2);
        EXPECT_EQ(reg.counter("restart.stage.restored").value(),
                  restored0 + 1);
        EXPECT_EQ(src.fired(), 2u);

        std::vector<int32_t> got = sinkInts(sink);
        // At most the reopened queue's backlog plus in-flight elements
        // vanish per restart.
        ASSERT_GE(got.size(), N - 2 * (8 + 2));
        for (size_t i = 1; i < got.size(); ++i)
            ASSERT_LT(got[i - 1], got[i])
                << "accumulator state was lost across a restart (output "
                   "dipped at index " << i << ")";
        // Each output is prev + the delivered value, so the final gap
        // IS the last delivered value: the post-fault tail reached the
        // sink.
        ASSERT_GE(got.size(), 2u);
        EXPECT_EQ(got.back() - got[got.size() - 2],
                  static_cast<int32_t>(N));
    }
}

TEST(Threaded, StageScopedRestartResetsOnlyTheFailedStage)
{
    // A data-poisoned MIDDLE stage: 7/(x-10) faults when the running
    // sum hits 10.  Per-stage restart drops the poisoned element with
    // the reopened queues and plain-resets the (stateless) failed
    // stage — no snapshot exists yet, so restored must NOT bump — while
    // the upstream accumulator keeps its state.  Every input is
    // consumed by stage 0 exactly once, so the last sum to reach the
    // sink is the full-series total: proof the accumulator was neither
    // reset nor double-fed.
    for (Backend be : kAllBackends) {
        SCOPED_TRACE(backendName(be));
        VarRef x = freshVar("x", Type::int32());
        CompPtr poison = repeatc(seqc(
            {bindc(x, take(Type::int32())),
             just(emit(var(x) + cInt(0) * (cInt(7) / (var(x) - 10))))}));

        CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
        opt.backend = be;
        opt.queueCapacity = 8;
        opt.restart.mode = RestartMode::OnFailure;
        opt.restart.scope = RestartScope::Stage;
        opt.restart.maxRestarts = 3;
        opt.restart.backoffInitialMs = 1;
        auto p = compileThreadedPipeline(
            ppipe(ppipe(runningSum(), std::move(poison)), incBlock(0)),
            opt);

        const int32_t N = 60;
        std::vector<int32_t> in(static_cast<size_t>(N));
        for (int32_t i = 0; i < N; ++i)
            in[static_cast<size_t>(i)] = i + 1;  // sums: 1,3,6,10,15,...
        auto bytes = intBytes(in);
        MemSource src(bytes, 4);
        VecSink sink(4);

        auto& reg = metrics::Registry::global();
        uint64_t attempts0 =
            reg.counter("restart.stage.attempts").value();
        uint64_t restored0 =
            reg.counter("restart.stage.restored").value();

        p->run(src, sink);  // must not throw

        EXPECT_EQ(reg.counter("restart.stage.attempts").value(),
                  attempts0 + 1);
        EXPECT_EQ(reg.counter("restart.stage.restored").value(),
                  restored0);

        std::vector<int32_t> got = sinkInts(sink);
        ASSERT_FALSE(got.empty());
        for (size_t i = 1; i < got.size(); ++i)
            ASSERT_LT(got[i - 1], got[i])
                << "upstream accumulator was reset (output dipped at "
                << i << ")";
        EXPECT_EQ(got.back(), N * (N + 1) / 2);
    }
}

TEST(Threaded, StageScopedRestoreRollsBackTheStagesFrameCells)
{
    // Stage 1 fails first (on the value 6), while stage 0 — a running
    // sum — is live mid-stream: the re-arm snapshots stage 0 there,
    // after m < 40 inputs.  Stage 0 then fails on its 40th input,
    // after adding it to its accumulator, and is restored to that
    // boundary.  Its accumulator lives in the frame on every backend
    // (a region keeps variables there), so the final sum must be the
    // boundary sum plus 41..60 — at most the full series minus 40 —
    // not the full series a stale accumulator would give.
    for (Backend be : kAllBackends) {
        SCOPED_TRACE(backendName(be));
        VarRef acc = freshVar("acc", Type::int32());
        VarRef x = freshVar("x", Type::int32());
        CompPtr sum = letvar(
            acc, cInt(0),
            repeatc(seqc(
                {bindc(x, take(Type::int32())),
                 just(doS({assign(var(acc), var(acc) + var(x))})),
                 just(emit(var(acc) +
                           cInt(0) * (cInt(7) / (var(x) - 40))))})));
        VarRef y = freshVar("y", Type::int32());
        CompPtr poison = repeatc(seqc(
            {bindc(y, take(Type::int32())),
             just(emit(var(y) + cInt(0) * (cInt(7) / (var(y) - 6))))}));

        CompilerOptions opt = CompilerOptions::forLevel(OptLevel::None);
        opt.backend = be;
        opt.queueCapacity = 8;
        opt.restart.mode = RestartMode::OnFailure;
        opt.restart.scope = RestartScope::Stage;
        opt.restart.maxRestarts = 3;
        opt.restart.backoffInitialMs = 1;
        auto p = compileThreadedPipeline(
            ppipe(std::move(sum), std::move(poison)), opt);

        const int32_t N = 60;
        std::vector<int32_t> in(static_cast<size_t>(N));
        for (int32_t i = 0; i < N; ++i)
            in[static_cast<size_t>(i)] = i + 1;
        auto bytes = intBytes(in);
        MemSource src(bytes, 4);
        VecSink sink(4);

        auto& reg = metrics::Registry::global();
        uint64_t attempts0 =
            reg.counter("restart.stage.attempts").value();
        uint64_t restored0 =
            reg.counter("restart.stage.restored").value();

        p->run(src, sink);  // must not throw

        EXPECT_EQ(reg.counter("restart.stage.attempts").value(),
                  attempts0 + 2);
        EXPECT_EQ(reg.counter("restart.stage.restored").value(),
                  restored0 + 1);
        std::vector<int32_t> got = sinkInts(sink);
        ASSERT_FALSE(got.empty());
        EXPECT_LE(got.back(), N * (N + 1) / 2 - 40)
            << "the restored stage kept its post-boundary accumulator";
        EXPECT_GE(got.back(), (N * (N + 1) - 40 * 41) / 2);
    }
}

TEST(Threaded, RepeatedRunsReuseThePipeline)
{
    auto p = compileThreadedPipeline(
        ppipe(incBlock(1), incBlock(2)),
        CompilerOptions::forLevel(OptLevel::None));
    std::vector<int32_t> in{5, 6, 7};
    auto bytes = intBytes(in);
    for (int round = 0; round < 3; ++round) {
        MemSource src(bytes, 4);
        VecSink sink(4);
        RunStats st = p->run(src, sink);
        EXPECT_EQ(st.emitted, 3u);
        std::vector<int32_t> got(3);
        std::memcpy(got.data(), sink.data().data(), 12);
        EXPECT_EQ(got, (std::vector<int32_t>{8, 9, 10}));
    }
}

} // namespace
} // namespace ziria
