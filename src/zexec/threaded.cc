#include "zexec/threaded.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "support/metrics.h"
#include "support/panic.h"
#include "support/spsc_queue.h"
#include "support/state_io.h"
#include "support/timeline.h"
#include "support/timing.h"
#include "zexec/span.h"

namespace ziria {

namespace {

/** Queue-wait slice for supervised runs: long enough that the periodic
 *  wake-up is noise, short enough that an abort is noticed promptly. */
constexpr long kSupervisedSliceMs = 20;

/** Result of running one stage. */
struct StageResult
{
    /** Elements moved (consumed + emitted); what the watchdog samples.
     *  Relaxed: only freshness matters, not ordering. */
    std::atomic<uint64_t> progress{0};
    std::atomic<bool> finished{false};

    uint64_t consumed = 0;
    uint64_t emitted = 0;
    bool halted = false;
    bool aborted = false;  ///< exited on cancel/abort, not end-of-stream
    std::vector<uint8_t> ctrl;
    /** Yielded element whose push was torn down mid-wait; a per-stage
     *  restart re-pushes it so the element is not lost. */
    std::vector<uint8_t> pendingOut;
    std::exception_ptr error;
    double sec = 0;  ///< wall time of the stage's drive loop
    uint64_t pushWaitNs = 0;  ///< blocked pushing (latency runs only)
    uint64_t popWaitNs = 0;   ///< blocked popping (latency runs only)
};

/** Latency hooks for one stage: null members = feature off. */
struct StageSpanHooks
{
    SpanTracker* onInput = nullptr;   ///< first stage: stamp consumed
    SpanTracker* onOutput = nullptr;  ///< last stage: complete emitted
    bool timeWaits = false;           ///< clock the queue-wait loops
    size_t index = 0;                 ///< stage ordinal (timeline label)
};

/**
 * Drive one stage: pull input from @p inq (or @p src for stage 0), push
 * output to @p outq (or @p sink for the last stage).
 *
 * @p abort is the run-wide teardown flag (set by the watchdog or at the
 * end of a run); @p wait_slice_ms bounds each queue wait so the flag is
 * polled even while blocked (-1 = plain blocking waits, used when the
 * run is unsupervised).
 *
 * @p resume skips node.start() — the node already carries live state
 * from an earlier attempt (per-stage restart); @p pending_in is a
 * holdover output element from that attempt, re-pushed before any
 * advance so it is not lost.
 */
void
runStage(ExecNode& node, Frame& frame, SpscQueue* inq, InputSource* src,
         SpscQueue* outq, OutputSink* sink, StageResult& res,
         const std::atomic<bool>& abort, long wait_slice_ms,
         StageSpanHooks hooks, bool resume,
         std::vector<uint8_t> pending_in)
{
    std::vector<uint8_t> inBuf(std::max<size_t>(node.inWidth(), 1));
    Stopwatch sw;
    const uint64_t startNs = nowNs();
    auto bump = [&res] {
        res.progress.fetch_add(1, std::memory_order_relaxed);
    };
    bool blocked = false;  ///< holdover push failed; skip the drive loop
    try {
        if (!resume)
            node.start(frame);
        if (!pending_in.empty()) {
            if (outq) {
                QueueWait w;
                while ((w = outq->pushWait(pending_in.data(),
                                           wait_slice_ms)) ==
                       QueueWait::Timeout) {
                    if (abort.load(std::memory_order_relaxed))
                        break;
                }
                if (w != QueueWait::Ready) {
                    res.aborted = true;
                    res.pendingOut = std::move(pending_in);
                    blocked = true;
                } else {
                    ++res.emitted;
                    bump();
                }
            } else if (sink) {
                sink->put(pending_in.data());
                ++res.emitted;
                if (hooks.onOutput)
                    hooks.onOutput->onOutput();
                bump();
            }
        }
        while (!blocked) {
            if (abort.load(std::memory_order_relaxed)) {
                res.aborted = true;
                break;
            }
            Status s = node.advance(frame);
            if (s == Status::Yield) {
                if (outq) {
                    uint64_t t0 = hooks.timeWaits ? nowNs() : 0;
                    QueueWait w;
                    while ((w = outq->pushWait(node.out(),
                                               wait_slice_ms)) ==
                           QueueWait::Timeout) {
                        if (abort.load(std::memory_order_relaxed))
                            break;
                    }
                    if (hooks.timeWaits)
                        res.pushWaitNs += nowNs() - t0;
                    if (w != QueueWait::Ready) {
                        // Downstream cancelled (or run aborted mid-wait).
                        // Keep the yielded element: a per-stage restart
                        // re-pushes it instead of losing it.
                        res.aborted = w == QueueWait::Cancelled ||
                                      w == QueueWait::Timeout;
                        const uint8_t* e = node.out();
                        res.pendingOut.assign(e, e + outq->elemWidth());
                        break;
                    }
                } else {
                    sink->put(node.out());
                }
                ++res.emitted;
                if (hooks.onOutput)
                    hooks.onOutput->onOutput();
                bump();
            } else if (s == Status::NeedInput) {
                if (inq) {
                    uint64_t t0 = hooks.timeWaits ? nowNs() : 0;
                    QueueWait w;
                    while ((w = inq->popWait(inBuf.data(),
                                             wait_slice_ms)) ==
                           QueueWait::Timeout) {
                        if (abort.load(std::memory_order_relaxed))
                            break;
                    }
                    if (hooks.timeWaits)
                        res.popWaitNs += nowNs() - t0;
                    if (w != QueueWait::Ready) {
                        // Closed = upstream finished (normal EOS);
                        // Cancelled/abort = torn down.
                        res.aborted = w != QueueWait::Closed;
                        break;
                    }
                    node.supply(frame, inBuf.data());
                } else {
                    const uint8_t* p = src->next();
                    if (!p)
                        break;
                    node.supply(frame, p);
                }
                ++res.consumed;
                if (hooks.onInput)
                    hooks.onInput->onInput();
                bump();
            } else {
                res.halted = true;
                const uint8_t* cp = node.ctrl();
                if (cp && node.ctrlWidth())
                    res.ctrl.assign(cp, cp + node.ctrlWidth());
                break;
            }
        }
    } catch (...) {
        res.error = std::current_exception();
    }
    res.sec = sw.elapsedSec();
    if (timeline::Recorder* r = timeline::active()) {
        uint32_t track = timeline::currentTrack();
        r->nameTrack(track, "stage" + std::to_string(hooks.index));
        r->complete("stage", "stage" + std::to_string(hooks.index),
                    startNs, nowNs() - startNs, track);
    }
    if (outq)
        outq->close();
    // A halted (or failed) stage stops upstream producers.
    if ((res.halted || res.error) && inq)
        inq->cancel();
    res.finished.store(true, std::memory_order_release);
}

/** Extract a human-readable message from a stored exception. */
std::string
errorMessage(const std::exception_ptr& ep)
{
    try {
        std::rethrow_exception(ep);
    } catch (const std::exception& e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

} // namespace

ThreadedPipeline::ThreadedPipeline(std::vector<NodePtr> stages,
                                   size_t frame_size, size_t in_width,
                                   size_t out_width, size_t queue_cap)
    : stages_(std::move(stages)), frame_(frame_size), inWidth_(in_width),
      outWidth_(out_width), queueCap_(queue_cap)
{
    ZIRIA_ASSERT(!stages_.empty());
}

RunStats
ThreadedPipeline::run(InputSource& src, OutputSink& sink)
{
    std::vector<std::unique_ptr<SpscQueue>> queues;
    for (size_t i = 0; i + 1 < stages_.size(); ++i) {
        size_t w = std::max<size_t>(stages_[i]->outWidth(), 1);
        queues.push_back(std::make_unique<SpscQueue>(w, queueCap_));
    }

    if (!restart_.enabled()) {
        RunStats st = runAttempt(queues, src, sink, nullptr);
        if (spans_)
            spans_->flush();
        return st;
    }

    RestartSupervisor sup(restart_);
    const bool perStage = restart_.scope == RestartScope::Stage;
    std::vector<StageCarry> carry;
    if (perStage)
        carry.resize(stages_.size());
    for (;;) {
        try {
            RunStats st =
                runAttempt(queues, src, sink, perStage ? &carry : nullptr);
            if (spans_)
                spans_->flush();
            return st;
        } catch (const StageFailureError& e) {
            StageFailure f = e.failure();
            if (!sup.onFailure(f))
                throw StageFailureError(std::move(f));
            // onFailure slept out the backoff; all stage threads were
            // joined before runAttempt threw, so re-arming is
            // single-threaded here.
            if (perStage)
                rearmStage(queues, src, sink, carry, f.stage);
            else
                rearm(queues, src, sink);
        }
    }
}

/**
 * Return the pipeline to frame-boundary state between restart attempts:
 * reopen every interthread queue (in-flight elements are the "at most
 * one frame" a restart may cost), discard buffered partial state in
 * every stage's node tree, and clear sticky cancel flags on the
 * endpoints so the live source keeps feeding the next attempt.
 */
void
ThreadedPipeline::rearm(std::vector<std::unique_ptr<SpscQueue>>& queues,
                        InputSource& src, OutputSink& sink)
{
    for (auto& q : queues)
        q->reopen();
    for (auto& s : stages_)
        s->reset(frame_);
    src.rearm();
    sink.rearm();
    if (spans_)
        spans_->onRestart();
}

/**
 * Per-stage re-arm (RestartScope::Stage): only the failed stage loses
 * state.  It is reset() and — when a boundary snapshot exists —
 * restore()d to the last quiescent restart boundary; healthy stages
 * keep their live node trees and will resume mid-stream.  The queues
 * adjacent to the failed stage are reopen()ed (their in-flight elements
 * belonged to the discarded work); every other queue keeps its backlog
 * and only has its teardown latches cleared.  Queues whose producer
 * already finished are re-closed so consumers still see end-of-stream.
 * Finally every live stage — quiescent now, all threads joined — gets a
 * fresh boundary snapshot, so a future failure of *any* stage rolls
 * back only to this boundary.
 */
void
ThreadedPipeline::rearmStage(
    std::vector<std::unique_ptr<SpscQueue>>& queues, InputSource& src,
    OutputSink& sink, std::vector<StageCarry>& carry, size_t failed)
{
    ZIRIA_ASSERT(failed < stages_.size());
    metrics::Registry::global().counter("restart.stage.attempts").inc();

    stages_[failed]->reset(frame_);
    if (!carry[failed].snap.empty()) {
        try {
            StateReader r(carry[failed].snap.data(),
                          carry[failed].snap.size());
            std::vector<uint8_t> cells = r.blob();
            if (!cells.empty())
                std::memcpy(frame_.at(stageFrames_[failed].first),
                            cells.data(), cells.size());
            stages_[failed]->restore(frame_, r);
            metrics::Registry::global()
                .counter("restart.stage.restored")
                .inc();
        } catch (const StateFormatError&) {
            // A snapshot that does not restore leaves the stage freshly
            // reset — the PR-4 semantics, scoped to one stage.
            stages_[failed]->reset(frame_);
            carry[failed].snap.clear();
        }
    }
    carry[failed].resume = true;
    carry[failed].doneClean = false;
    carry[failed].pendingOut.clear();

    for (size_t qi = 0; qi < queues.size(); ++qi) {
        // Queue qi sits between stage qi (producer) and qi+1 (consumer).
        const bool adjacent = qi + 1 == failed || qi == failed;
        if (adjacent)
            queues[qi]->reopen();
        else
            queues[qi]->uncancel();
        if (carry[qi].doneClean)
            queues[qi]->close();
    }

    for (size_t i = 0; i < stages_.size(); ++i) {
        if (carry[i].doneClean)
            continue;
        StateWriter w;
        // The stage's frame cells first: restore() writes them back
        // before the node, so native kernels see restored binders.
        const auto [lo, hi] = i < stageFrames_.size()
            ? stageFrames_[i]
            : std::pair<size_t, size_t>{0, 0};
        w.blob(frame_.at(lo), hi - lo);
        stages_[i]->snapshot(frame_, w);
        carry[i].snap = w.take();
    }

    src.rearm();
    sink.rearm();
    if (spans_)
        spans_->onRestart();
}

RunStats
ThreadedPipeline::runAttempt(std::vector<std::unique_ptr<SpscQueue>>& queues,
                             InputSource& src, OutputSink& sink,
                             std::vector<StageCarry>* carry)
{
    using clock = std::chrono::steady_clock;
    const size_t n = stages_.size();
    const bool supervised = deadlineMs_ > 0;
    const long slice = supervised ? kSupervisedSliceMs : -1;

    std::vector<StageResult> results(n);
    // Per-stage restarts: a stage that already finished (halted or hit
    // end-of-stream) is not re-run — replay its exit effects so its
    // neighbours still see EOS / upstream-stop, and the watchdog skips it.
    auto doneClean = [&](size_t i) {
        return carry && (*carry)[i].doneClean;
    };
    for (size_t i = 0; carry && i < n; ++i) {
        if (!doneClean(i))
            continue;
        results[i].finished.store(true, std::memory_order_release);
        results[i].halted = (*carry)[i].halted;
        results[i].ctrl = (*carry)[i].ctrl;
        if (i + 1 < n)
            queues[i]->close();
        if ((*carry)[i].halted && i > 0)
            queues[i - 1]->cancel();
    }
    std::atomic<bool> abort{false};
    std::atomic<bool> watchdogStop{false};
    std::atomic<long> stalledStage{-1};

    // Deterministic teardown: cancel every queue (waking all waiters on
    // both sides) and ask the endpoints to abandon any blocking I/O.
    auto teardown = [&] {
        abort.store(true, std::memory_order_relaxed);
        for (auto& q : queues)
            q->cancel();
        src.cancel();
        sink.cancel();
    };

    std::thread watchdog;
    if (supervised) {
        watchdog = std::thread([&] {
            const auto deadline = std::chrono::duration<double, std::milli>(
                deadlineMs_);
            std::vector<uint64_t> last(n, 0);
            std::vector<clock::time_point> changed(n, clock::now());
            while (!watchdogStop.load(std::memory_order_acquire)) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
                auto now = clock::now();
                bool anyLive = false;
                bool anyFresh = false;
                for (size_t i = 0; i < n; ++i) {
                    uint64_t p = results[i].progress.load(
                        std::memory_order_relaxed);
                    if (p != last[i]) {
                        last[i] = p;
                        changed[i] = now;
                    }
                    if (!results[i].finished.load(
                            std::memory_order_acquire)) {
                        anyLive = true;
                        if (now - changed[i] < deadline)
                            anyFresh = true;
                    }
                }
                if (!anyLive)
                    return;  // all stages done; nothing to supervise
                if (anyFresh)
                    continue;  // something is still moving (or fresh)
                // Global quiescence: no unfinished stage has made
                // progress for the whole deadline.  Blame the stage
                // that has been silent the longest.
                size_t worst = 0;
                bool found = false;
                for (size_t i = 0; i < n; ++i) {
                    if (results[i].finished.load(
                            std::memory_order_acquire))
                        continue;
                    if (!found || changed[i] < changed[worst]) {
                        worst = i;
                        found = true;
                    }
                }
                stalledStage.store(static_cast<long>(worst),
                                   std::memory_order_relaxed);
                metrics::Registry::global()
                    .counter("ziria.stall_timeouts")
                    .inc();
                teardown();
                return;
            }
        });
    }

    const bool timeWaits = spans_ != nullptr;
    std::vector<std::thread> threads;
    for (size_t i = 0; i + 1 < n; ++i) {
        if (doneClean(i))
            continue;
        SpscQueue* inq = i == 0 ? nullptr : queues[i - 1].get();
        InputSource* s = i == 0 ? &src : nullptr;
        StageSpanHooks hooks;
        hooks.onInput = i == 0 ? spans_.get() : nullptr;
        hooks.timeWaits = timeWaits;
        hooks.index = i;
        bool resume = carry && (*carry)[i].resume;
        std::vector<uint8_t> pending =
            carry ? std::move((*carry)[i].pendingOut)
                  : std::vector<uint8_t>{};
        if (carry)
            (*carry)[i].pendingOut.clear();
        threads.emplace_back(runStage, std::ref(*stages_[i]),
                             std::ref(frame_), inq, s, queues[i].get(),
                             nullptr, std::ref(results[i]),
                             std::cref(abort), slice, hooks, resume,
                             std::move(pending));
    }

    // The last stage runs on the calling thread.
    if (!doneClean(n - 1)) {
        StageSpanHooks lastHooks;
        lastHooks.onInput = n == 1 ? spans_.get() : nullptr;
        lastHooks.onOutput = spans_.get();
        lastHooks.timeWaits = timeWaits;
        lastHooks.index = n - 1;
        bool resume = carry && (*carry)[n - 1].resume;
        std::vector<uint8_t> pending =
            carry ? std::move((*carry)[n - 1].pendingOut)
                  : std::vector<uint8_t>{};
        if (carry)
            (*carry)[n - 1].pendingOut.clear();
        runStage(*stages_[n - 1], frame_,
                 n > 1 ? queues[n - 2].get() : nullptr,
                 n > 1 ? nullptr : &src, nullptr, &sink, results[n - 1],
                 abort, slice, lastHooks, resume, std::move(pending));
    }

    // If the final stage stopped early, make sure producers unblock.
    for (auto& q : queues)
        q->cancel();
    for (auto& t : threads)
        t.join();
    watchdogStop.store(true, std::memory_order_release);
    if (watchdog.joinable())
        watchdog.join();

    const long stalled = stalledStage.load(std::memory_order_relaxed);

    // Fold this attempt into the per-stage carries (before any throw, so
    // a failed attempt's progress and holdovers survive into the next).
    // A stage that exits cleanly on end-of-stream only *genuinely*
    // finished if every stage upstream of it did too: a failed stage
    // closes its output queue on the way out, so its consumer drains
    // and sees a spurious EOS — that consumer must be resumed, not
    // retired, or the restarted producer would feed a dead queue.
    // Halting is different: a halt is the stage's own decision and
    // retires it regardless of what happened upstream.
    if (carry) {
        bool upstreamDone = true;  // stage 0's source EOS is genuine
        for (size_t i = 0; i < n; ++i) {
            StageCarry& c = (*carry)[i];
            if (c.doneClean) {
                upstreamDone = true;
                continue;
            }
            c.consumed += results[i].consumed;
            c.emitted += results[i].emitted;
            c.resume = true;
            c.pendingOut = std::move(results[i].pendingOut);
            const bool cleanExit = !results[i].error &&
                                   !results[i].aborted &&
                                   stalled != static_cast<long>(i);
            if (cleanExit && (results[i].halted || upstreamDone)) {
                c.doneClean = true;
                c.halted = results[i].halted;
                c.ctrl = results[i].ctrl;
            }
            upstreamDone = c.doneClean;
        }
    }

    // Collect stage/queue telemetry before error propagation so partial
    // runs still leave a readable record.
    if (metrics_) {
        metrics_->stages.clear();
        metrics_->stages.resize(n);
        for (size_t i = 0; i < n; ++i) {
            StageMetrics& sm = metrics_->stages[i];
            sm.consumed = results[i].consumed;
            sm.emitted = results[i].emitted;
            sm.halted = results[i].halted;
            sm.sec = results[i].sec;
            sm.pushWaitNs = results[i].pushWaitNs;
            sm.popWaitNs = results[i].popWaitNs;
            if (results[i].error)
                sm.failure = failureCauseName(FailureCause::Exception);
            else if (stalled == static_cast<long>(i))
                sm.failure = failureCauseName(FailureCause::Stall);
            else if (results[i].aborted)
                sm.failure = failureCauseName(FailureCause::Cancel);
            if (i + 1 < n) {
                SpscQueue::Stats qs = queues[i]->stats();
                sm.hasQueue = true;
                sm.queueCapacity = queueCap_;
                sm.queueHighWater = qs.highWater;
                sm.producerStalls = qs.pushStalls;
                sm.consumerStalls = qs.popStalls;
            }
        }
    }
    metrics::Registry::global().counter("ziria.threaded_runs").inc();

    // Error propagation: a throwing stage wins over a stall verdict
    // (the stall is usually collateral of the failed stage).
    for (size_t i = 0; i < n; ++i) {
        if (!results[i].error)
            continue;
        StageFailure f;
        f.stage = i;
        f.path = "stage" + std::to_string(i);
        f.cause = FailureCause::Exception;
        f.message = errorMessage(results[i].error);
        f.inner = results[i].error;
        metrics::Registry::global()
            .counter("ziria.stage_failures")
            .inc();
        throw StageFailureError(std::move(f));
    }
    if (stalled >= 0) {
        StageFailure f;
        f.stage = static_cast<size_t>(stalled);
        f.path = "stage" + std::to_string(stalled);
        f.cause = FailureCause::Stall;
        std::ostringstream os;
        os << "no progress for " << deadlineMs_ << " ms";
        f.message = os.str();
        throw StageFailureError(std::move(f));
    }

    RunStats st;
    if (carry) {
        // Per-stage mode resumes stages mid-stream, so the counters are
        // cumulative across every attempt of this run.
        st.consumed = carry->front().consumed;
        st.emitted = carry->back().emitted;
    } else {
        st.consumed = results.front().consumed;
        st.emitted = results.back().emitted;
    }
    for (const auto& r : results) {
        if (r.halted) {
            st.halted = true;
            st.ctrl = r.ctrl;
            break;
        }
    }
    st.metrics = metrics_.get();
    return st;
}

} // namespace ziria
