/**
 * @file
 * Multi-core pipeline execution: the `|>>>|` combinator (paper §2.6,
 * "Pipeline parallelization").
 *
 * A program whose top level is `c1 |>>>| c2 |>>>| ... |>>>| cn` is split
 * into stages connected by bounded SPSC queues; every stage runs its own
 * intrathread tick/proc machine.  As in the paper, pipeline-parallelizing
 * arbitrary interior uses of `>>>` is out of scope: only top-level
 * partitions are executed on separate threads (the compiler driver treats
 * interior `|>>>|` as plain `>>>`).
 *
 * The stages share one Frame; the §2.3 race rule (checked by zcheck)
 * guarantees no mutable variable is written on one side and accessed on
 * the other.
 *
 * Fault tolerance (docs/ROBUSTNESS.md): a run can be supervised by a
 * watchdog (setStallDeadline) that detects global quiescence — no stage
 * making progress for the deadline — and tears the pipeline down
 * deterministically: every SPSC queue is cancelled (waking all waiters),
 * the source and sink are asked to cancel, and run() raises a structured
 * StageFailure naming the stalled stage.  A stage that throws likewise
 * surfaces a StageFailure (cause Exception) after its peers were
 * unblocked via close/cancel propagation; peers never deadlock on a dead
 * neighbour.
 *
 * Self-healing (docs/ROBUSTNESS.md, "Recovery"): with a RestartPolicy
 * of OnFailure, an Exception or Stall failure does not end the run.
 * After every stage thread has been joined, the supervisor re-arms the
 * pipeline — SPSC queues are reopened (in-flight elements discarded),
 * every stage's node tree is reset() back to frame-boundary state, the
 * source and sink are re-armed — sleeps out an exponential backoff, and
 * resumes from the live source.  Only when the retry budget is spent
 * does run() throw, with the full restart history attached.
 *
 * With RestartScope::Stage the blast radius shrinks to the failed stage
 * (docs/ROBUSTNESS.md, "Per-stage restart"): healthy stages keep their
 * live node state and resume mid-stream, non-adjacent queues keep their
 * backlogs (uncancel()), and only the failed stage is reset() — then
 * restore()d from its node-state snapshot taken at the last restart
 * boundary, so repeated failures do not compound the rollback.  Only
 * the queues adjacent to the failed stage are reopen()ed; their
 * in-flight elements are the bounded loss of a stage restart.
 */
#ifndef ZIRIA_ZEXEC_THREADED_H
#define ZIRIA_ZEXEC_THREADED_H

#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "support/panic.h"
#include "zexec/pipeline.h"
#include "zexec/supervisor.h"

namespace ziria {

class SpscQueue;

/** A pipeline whose stages run on separate threads. */
class ThreadedPipeline
{
  public:
    /**
     * @param stages     per-stage node trees, upstream first
     * @param frame_size shared frame size
     * @param queue_cap  elements per interthread queue
     */
    ThreadedPipeline(std::vector<NodePtr> stages, size_t frame_size,
                     size_t in_width, size_t out_width,
                     size_t queue_cap = 4096);

    size_t inWidth() const { return inWidth_; }
    size_t outWidth() const { return outWidth_; }
    Frame& frame() { return frame_; }

    /**
     * Run to completion.  Stage 0 reads @p src on its own thread; the
     * last stage runs on the calling thread and writes @p sink.
     *
     * With a RestartPolicy of OnFailure, Exception/Stall failures are
     * retried in place (bounded, backed off) before anything is thrown;
     * RunStats then describes the final — successful — attempt, and the
     * `restart.*` counters record the recovery history.
     *
     * @throws StageFailureError if a stage throws, or — with a stall
     *         deadline set — if the watchdog detects a stalled run, in
     *         both cases only once the restart budget (if any) is spent.
     */
    RunStats run(InputSource& src, OutputSink& sink);

    size_t stageCount() const { return stages_.size(); }

    /**
     * Arm the watchdog: fail the run with a Stall StageFailure when no
     * stage makes progress for @p ms milliseconds.  0 (the default)
     * disables supervision entirely — no watchdog thread is spawned and
     * the drive loops use plain blocking waits, so the unsupervised path
     * costs exactly what it did before supervision existed.
     *
     * The deadline must exceed the longest single-element compute time
     * of any stage: the watchdog cannot distinguish a stage stuck in a
     * kernel from one legitimately crunching a huge element.
     */
    void setStallDeadline(double ms) { deadlineMs_ = ms; }
    double stallDeadline() const { return deadlineMs_; }

    /** Configure self-healing restarts (default: fail fast). */
    void setRestartPolicy(RestartPolicy p) { restart_ = p; }
    const RestartPolicy& restartPolicy() const { return restart_; }

    /**
     * The frame bytes [first, second) each stage's build allocated.  A
     * stage-scoped restart snapshots and restores them with the stage's
     * node, so a stage whose node keeps its variables in the frame (a
     * fused or native region) rolls back as a VM node tree does.
     */
    void
    setStageFrames(std::vector<std::pair<size_t, size_t>> ranges)
    {
        stageFrames_ = std::move(ranges);
    }

    /** Attach the instrumentation sink; per-stage/queue telemetry is
     *  recorded into it on every run (replacing the previous run's). */
    void setMetrics(std::shared_ptr<PipelineMetrics> m)
    {
        metrics_ = std::move(m);
    }

    const PipelineMetrics* metrics() const { return metrics_.get(); }

    /**
     * Attach a frame-span latency tracker (null = off; zexec/span.h).
     * Frames are stamped by the first stage as it consumes the source
     * and completed by the last stage as it emits to the sink, so the
     * span covers every interthread queue in between; per-stage queue
     * waits are additionally timed into StageMetrics.
     */
    void setSpans(std::shared_ptr<SpanTracker> s)
    {
        spans_ = std::move(s);
    }

    SpanTracker* spans() const { return spans_.get(); }

  private:
    /** Per-stage continuation state carried across restart attempts
     *  (RestartScope::Stage only). */
    struct StageCarry
    {
        bool resume = false;     ///< node is live; skip start()
        bool doneClean = false;  ///< halted / hit EOS; do not re-run
        bool halted = false;     ///< the clean exit was a computer return
        std::vector<uint8_t> ctrl;        ///< its control value
        uint64_t consumed = 0;   ///< cumulative across attempts
        uint64_t emitted = 0;
        std::vector<uint8_t> pendingOut;  ///< yielded element whose push
                                          ///< was torn down; re-pushed first
        std::vector<uint8_t> snap;  ///< frame cells + node state at the
                                    ///< last quiescent restart boundary
    };

    RunStats runAttempt(std::vector<std::unique_ptr<SpscQueue>>& queues,
                        InputSource& src, OutputSink& sink,
                        std::vector<StageCarry>* carry);
    void rearm(std::vector<std::unique_ptr<SpscQueue>>& queues,
               InputSource& src, OutputSink& sink);
    void rearmStage(std::vector<std::unique_ptr<SpscQueue>>& queues,
                    InputSource& src, OutputSink& sink,
                    std::vector<StageCarry>& carry, size_t failed);

    std::vector<NodePtr> stages_;
    std::vector<std::pair<size_t, size_t>> stageFrames_;
    Frame frame_;
    size_t inWidth_;
    size_t outWidth_;
    size_t queueCap_;
    double deadlineMs_ = 0;
    RestartPolicy restart_;
    std::shared_ptr<PipelineMetrics> metrics_;
    std::shared_ptr<SpanTracker> spans_;
};

} // namespace ziria

#endif // ZIRIA_ZEXEC_THREADED_H
