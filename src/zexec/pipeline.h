/**
 * @file
 * Pipeline driver: builds execution nodes from a checked computation AST
 * and runs them against input sources and output sinks.
 */
#ifndef ZIRIA_ZEXEC_PIPELINE_H
#define ZIRIA_ZEXEC_PIPELINE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "support/panic.h"
#include "zast/comp.h"
#include "zexec/node.h"
#include "zexec/span.h"
#include "zexec/supervisor.h"
#include "zexec/trace.h"
#include "zexpr/compile_expr.h"
#include "zexpr/lut.h"

namespace ziria {

class CkptStore;
class LutCache;

/** Pull-style input: elements of a fixed byte width. */
class InputSource
{
  public:
    virtual ~InputSource() = default;

    /** Pointer to the next element, or null at end of stream. */
    virtual const uint8_t* next() = 0;

    /**
     * Ask a blocked next() to give up and return null as soon as it can.
     * Called by the ThreadedPipeline supervisor from another thread when
     * a run is aborted; sources that can block (radios, sockets, fault
     * injectors) should honor it.  Default: no-op (memory sources never
     * block).
     */
    virtual void cancel() {}

    /**
     * Clear a sticky cancel() so a restarted run can keep reading from
     * the live stream.  Called single-threadedly by the restart
     * supervisor between attempts; default: no-op (sources without a
     * cancel latch need nothing).
     */
    virtual void rearm() {}
};

/** Reads elements out of a flat byte buffer (not owned). */
class MemSource : public InputSource
{
  public:
    MemSource(const uint8_t* data, size_t bytes, size_t elem_width)
        : data_(data), bytes_(bytes), width_(elem_width)
    {
    }

    explicit MemSource(const std::vector<uint8_t>& buf, size_t elem_width)
        : MemSource(buf.data(), buf.size(), elem_width)
    {
    }

    const uint8_t*
    next() override
    {
        if (width_ == 0 || pos_ + width_ > bytes_)
            return nullptr;
        const uint8_t* p = data_ + pos_;
        pos_ += width_;
        return p;
    }

    void rewind() { pos_ = 0; }

  private:
    const uint8_t* data_;
    size_t bytes_;
    size_t width_;
    size_t pos_ = 0;
};

/** Cycles through a buffer a given number of times (benchmark feeding). */
class CyclicSource : public InputSource
{
  public:
    CyclicSource(const std::vector<uint8_t>& buf, size_t elem_width,
                 uint64_t total_elems)
        : buf_(buf), width_(elem_width), remaining_(total_elems)
    {
        // The wrap check in next() resets pos_ but still reads width_
        // bytes, so a buffer shorter than one element would read past
        // its end.  Reject it up front.
        if (elem_width > 0 && buf.size() < elem_width)
            fatalf("CyclicSource: buffer of ", buf.size(),
                   " byte(s) is smaller than one ", elem_width,
                   "-byte element");
    }

    const uint8_t*
    next() override
    {
        if (remaining_ == 0)
            return nullptr;
        --remaining_;
        if (pos_ + width_ > buf_.size())
            pos_ = 0;
        const uint8_t* p = buf_.data() + pos_;
        pos_ += width_;
        return p;
    }

  private:
    const std::vector<uint8_t>& buf_;
    size_t width_;
    uint64_t remaining_;
    size_t pos_ = 0;
};

/** Push-style output sink. */
class OutputSink
{
  public:
    virtual ~OutputSink() = default;

    virtual void put(const uint8_t* elem) = 0;

    /** Ask a blocked put() to give up (see InputSource::cancel()). */
    virtual void cancel() {}

    /** Clear a sticky cancel() (see InputSource::rearm()). */
    virtual void rearm() {}
};

/** Appends output elements to a byte vector. */
class VecSink : public OutputSink
{
  public:
    explicit VecSink(size_t elem_width) : width_(elem_width) {}

    void
    put(const uint8_t* elem) override
    {
        data_.insert(data_.end(), elem, elem + width_);
    }

    const std::vector<uint8_t>& data() const { return data_; }
    size_t elems() const { return width_ ? data_.size() / width_ : 0; }

  private:
    size_t width_;
    std::vector<uint8_t> data_;
};

/** Discards output (benchmarking; matches the paper's methodology). */
class NullSink : public OutputSink
{
  public:
    void put(const uint8_t*) override { ++count_; }

    uint64_t count() const { return count_; }

  private:
    uint64_t count_ = 0;
};

/** Outcome of one pipeline run. */
struct RunStats
{
    uint64_t consumed = 0;       ///< input elements taken
    uint64_t emitted = 0;        ///< output elements produced
    bool halted = false;         ///< a computer returned
    std::vector<uint8_t> ctrl;   ///< its control value bytes
    /** Collected instrumentation, when the pipeline was compiled with
     *  `CompilerOptions::instrument`; null otherwise.  Owned by the
     *  pipeline and cumulative across its runs. */
    const PipelineMetrics* metrics = nullptr;
};

// ---------------------------------------------------------------------
// Node construction
// ---------------------------------------------------------------------

/** Options controlling node-level optimizations and instrumentation. */
struct BuildOptions
{
    bool autoLut = false;   ///< replace eligible map kernels with LUTs
    LutLimits lutLimits;
    bool instrument = false;      ///< wrap nodes in TracedNode shims
    uint32_t sampleShift = 6;     ///< time 1 in 2^N advances per node
    PipelineMetrics* metrics = nullptr;  ///< sink for NodeMetrics entries
    /** Tables shared across builds of one cached program (set by the
     *  compiler driver, zir/program_cache.h); null = always compute. */
    LutCache* lutCache = nullptr;
};

/** Statistics collected while building (reported by the compiler). */
struct BuildStats
{
    int nodes = 0;
    int mapNodes = 0;
    /** LUT-backed map sites in this pipeline and their table bytes,
     *  whether the tables were computed or shared from an earlier
     *  build of the same program. */
    int lutsBuilt = 0;
    size_t lutBytes = 0;
};

/**
 * Build the execution-node tree for a checked computation.  The comp must
 * be elaborated (no CallComp) and type-checked (ctype() resolved).
 * @p path is the stable node-path prefix used to key NodeMetrics when
 * `opt.instrument` is set (children extend it: "/l", "/r", "/s0", ...).
 */
NodePtr buildNode(const CompPtr& c, ExprCompiler& ec,
                  const BuildOptions& opt, BuildStats* stats,
                  const std::string& path = "root");

/**
 * The kernel factory of native block @p n: evaluates the block's
 * arguments in the frame it is called with (a NativeNode's start(), a
 * fused site's entry) and makes the kernel.  Shared by buildNode and
 * the fused lowerer, so both backends run one definition.
 */
std::function<std::unique_ptr<NativeKernel>(Frame&)>
nativeFactory(const NativeComp& n, ExprCompiler& ec);

// ---------------------------------------------------------------------
// Single-threaded driver
// ---------------------------------------------------------------------

/** A runnable single-threaded pipeline instance. */
class Pipeline
{
  public:
    /** @p state_size: see FrameLayout::stateSize(). */
    Pipeline(NodePtr root, size_t frame_size, size_t in_width,
             size_t out_width, size_t state_size = SIZE_MAX)
        : root_(std::move(root)), frame_(frame_size, state_size),
          inWidth_(in_width), outWidth_(out_width)
    {
    }

    size_t inWidth() const { return inWidth_; }
    size_t outWidth() const { return outWidth_; }
    Frame& frame() { return frame_; }
    ExecNode& root() { return *root_; }

    /**
     * Run until the computation halts or the source is exhausted.
     *
     * With a RestartPolicy of OnFailure (setRestartPolicy), a throwing
     * run is retried in place: the node tree is reset() to a frame
     * boundary, the endpoints re-armed, an exponential backoff slept,
     * and the loop resumes from the live source.  Output already pushed
     * to @p sink is kept; RunStats describes the final attempt.  Once
     * the retry budget is spent the last failure is rethrown as a
     * StageFailureError with `restartsExhausted` set and the attempt
     * history attached.  With the default (Never) policy the exception
     * propagates unchanged — exactly the pre-recovery behavior.
     *
     * @param max_out stop after this many outputs (0 = unlimited).
     */
    RunStats run(InputSource& src, OutputSink& sink, uint64_t max_out = 0);

    /** Convenience: feed a byte buffer, collect output bytes. */
    std::vector<uint8_t> runBytes(const std::vector<uint8_t>& input,
                                  RunStats* stats = nullptr);

    /** Attach the instrumentation collected while building the nodes. */
    void setMetrics(std::shared_ptr<PipelineMetrics> m)
    {
        metrics_ = std::move(m);
    }

    /** Per-node counters (null unless compiled with instrumentation). */
    const PipelineMetrics* metrics() const { return metrics_.get(); }

    /** Configure self-healing restarts (default: fail fast). */
    void setRestartPolicy(RestartPolicy p) { restart_ = p; }
    const RestartPolicy& restartPolicy() const { return restart_; }

    /**
     * Configure frame-boundary checkpointing (default: off).  Only takes
     * effect together with a restart policy: every `interval` consumed
     * elements the driver snapshots the full pipeline state and journals
     * the input consumed since, and a restart restores the snapshot and
     * replays the journal (suppressing already-delivered outputs) so the
     * sink's byte stream is identical to an uninterrupted run.  With the
     * default (off) policy the drive loop is unchanged — no snapshot, no
     * journal, no per-element cost.
     */
    void setCheckpoint(CheckpointPolicy p) { ckpt_ = p; }
    const CheckpointPolicy& checkpointPolicy() const { return ckpt_; }

    /** Attach a frame-span latency tracker (null = off; zexec/span.h).
     *  Runs stamp every frame source→sink into its histogram. */
    void setSpans(std::shared_ptr<SpanTracker> s)
    {
        spans_ = std::move(s);
    }

    SpanTracker* spans() const { return spans_.get(); }

    /**
     * Attach a durable checkpoint store (default: none — the cadence
     * loop is byte-for-byte the in-memory path).  With a store and an
     * enabled CheckpointPolicy, every cadence snapshot is also persisted
     * under @p key, so a killed process can resume via restoreDurable().
     * @p prepare (optional) runs before each save — zirrun flushes the
     * output file there so on-disk output always covers the persisted
     * emitted count; returning false skips that save.  A clean run()
     * completion removes the key (no stale resume).
     */
    void setDurable(CkptStore* store, std::string key,
                    std::function<bool(std::string*)> prepare = nullptr)
    {
        durableStore_ = store;
        durableKey_ = std::move(key);
        durablePrepare_ = std::move(prepare);
    }

    /**
     * Restore the pipeline from the newest valid durable generation of
     * the configured key, if any.  On success fills the snapshot's
     * counters and the next run() resumes from that state (the caller
     * skips @p consumed input elements and truncates its output to
     * @p emitted elements).  Corrupt generations quarantine and fall
     * back; returns false on a fresh start.
     */
    bool restoreDurable(uint64_t& consumed, uint64_t& emitted);

  private:
    /** Checkpoint state carried across restart attempts of one run(). */
    struct CkptCarry
    {
        std::vector<uint8_t> snap;     ///< last takeSnapshot() image
        std::vector<uint8_t> journal;  ///< raw input since the snapshot
        std::vector<uint8_t> replay;   ///< journal being re-fed post-restore
        size_t replayPos = 0;          ///< byte cursor into replay
        uint64_t consumedAtSnap = 0;   ///< counters at the snapshot point
        uint64_t emittedAtSnap = 0;
        uint64_t emittedDelivered = 0; ///< outputs actually handed to sink
        uint64_t suppress = 0;  ///< replayed outputs to swallow (already
                                ///< delivered before the failure)
        bool restored = false;  ///< next attempt resumes, not starts
    };

    RunStats runAttempt(InputSource& src, OutputSink& sink,
                        uint64_t max_out, CkptCarry* ck = nullptr);
    void durableSave(const CkptCarry& ck);

    NodePtr root_;
    Frame frame_;
    size_t inWidth_;
    size_t outWidth_;
    RestartPolicy restart_;
    CheckpointPolicy ckpt_;
    std::shared_ptr<PipelineMetrics> metrics_;
    std::shared_ptr<SpanTracker> spans_;
    CkptStore* durableStore_ = nullptr;
    std::string durableKey_;
    std::function<bool(std::string*)> durablePrepare_;
    std::vector<uint8_t> durableSnap_;  ///< restoreDurable() image
    uint64_t durableConsumed_ = 0;
    uint64_t durableEmitted_ = 0;
    bool durableResume_ = false;
};

} // namespace ziria

#endif // ZIRIA_ZEXEC_PIPELINE_H
