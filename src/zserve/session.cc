#include "zserve/session.h"

#include "support/metrics.h"
#include "zexec/snapshot.h"

namespace ziria {
namespace serve {

Session::Session(uint64_t id, int fd, std::unique_ptr<Pipeline> pipe,
                 const SessionConfig& cfg, const FaultSpec& fault)
    : id_(id), fd_(fd), pipe_(std::move(pipe)),
      inW_(pipe_->inWidth()), outW_(pipe_->outWidth()), cfg_(cfg),
      inQ_(inW_ ? inW_ : 1, cfg.inQueueElems),
      stepper_(pipe_->root()), qsrc_(inQ_, inW_), fault_(fault),
      fsrc_(qsrc_, fault), sup_(cfg.restart)
{
    if (cfg.trackLatency) {
        SpanConfig sc = cfg.span;
        sc.name = "session" + std::to_string(id);
        spans_ = std::make_unique<SpanTracker>(sc);
    }
}

Session::~Session() = default;

bool
Session::offerInput(const uint8_t* data, size_t n, size_t& consumed)
{
    consumed = 0;
    while (consumed + inW_ <= n) {
        if (inQ_.pushWait(data + consumed, 0) != QueueWait::Ready)
            return false;  // queue full (or cancelled at teardown)
        consumed += inW_;
        // Spans open at ingress so queue dwell and scheduler parking are
        // part of the measured end-to-end latency.
        if (spans_)
            spans_->onInput();
    }
    return true;
}

size_t
Session::outputAvailable()
{
    std::lock_guard<std::mutex> lk(mu_);
    return outRaw_.size() - outRawPos_;
}

size_t
Session::takeOutput(std::vector<uint8_t>& out, size_t max_bytes)
{
    std::lock_guard<std::mutex> lk(mu_);
    size_t avail = outRaw_.size() - outRawPos_;
    size_t take = std::min(avail, max_bytes);
    if (outW_ > 0)
        take -= take % outW_;  // whole elements only
    if (take == 0)
        return 0;
    out.insert(out.end(), outRaw_.begin() + static_cast<long>(outRawPos_),
               outRaw_.begin() + static_cast<long>(outRawPos_ + take));
    outRawPos_ += take;
    if (outRawPos_ == outRaw_.size()) {
        outRaw_.clear();
        outRawPos_ = 0;
    }
    return take;
}

Session::Completion
Session::completion()
{
    std::lock_guard<std::mutex> lk(mu_);
    return done_;
}

void
Session::cancel()
{
    fsrc_.cancel();  // unblocks a stall fault; also cancels the queue
    inQ_.cancel();
}

bool
Session::checkpoint(std::vector<uint8_t>& out, const uint8_t* pending_tail,
                    size_t pending_len, std::string* err)
{
    // The scheduler holds the session Dead, so the worker-owned pipeline
    // state is quiescent and safe to read from the I/O thread.
    std::vector<uint8_t> snap;
    if (started_) {
        try {
            snap = takeSnapshot(pipe_->root(), pipe_->frame(),
                                stepper_.consumed(), stepper_.emitted());
        } catch (const std::exception& e) {
            if (err)
                *err = e.what();
            return false;
        }
    }

    // Unconsumed input, oldest first: any unreplayed migration backlog,
    // the queue's backlog, then the I/O thread's decoded-but-unqueued
    // remainder.
    std::vector<uint8_t> backlog;
    if (replayPos_ < replay_.size())
        backlog.insert(backlog.end(),
                       replay_.begin() + static_cast<long>(replayPos_),
                       replay_.end());
    if (inW_) {
        std::vector<uint8_t> elem(inW_);
        while (inQ_.popWait(elem.data(), 0) == QueueWait::Ready)
            backlog.insert(backlog.end(), elem.begin(), elem.end());
    }
    backlog.insert(backlog.end(), pending_tail, pending_tail + pending_len);

    // applyCheckpoint on the target rejects a backlog that is not a
    // whole number of input elements, so emitting one here would report
    // a completed drain whose checkpoint is unusable.  The wire
    // protocol only admits whole-element Data payloads today; if a
    // partial tail ever reaches us, fail the checkpoint so the caller
    // counts the drain as aborted instead.
    if (inW_ ? backlog.size() % inW_ != 0 : !backlog.empty()) {
        if (err)
            *err = "input backlog is not element-aligned";
        return false;
    }

    StateWriter w;
    w.u32(kSessionCheckpointVersion);
    w.u64(stepper_.consumed());
    w.u64(stepper_.emitted());
    w.u64(inW_ ? backlog.size() / inW_ : 0);
    w.blob(snap.data(), snap.size());
    w.blob(backlog.data(), backlog.size());
    out = w.take();
    metrics::Registry::global().counter("server.migrations.saved").inc();
    return true;
}

void
Session::adoptCheckpoint(std::vector<uint8_t> payload)
{
    std::lock_guard<std::mutex> lk(mu_);
    pendingCkpt_ = std::move(payload);
    hasCkpt_ = true;
}

bool
Session::restorePending()
{
    std::lock_guard<std::mutex> lk(mu_);
    return hasCkpt_;
}

bool
Session::persistCheckpoint(std::vector<uint8_t>& out, std::string* err)
{
    // I/O thread, session parked: the worker-owned pipeline state is
    // quiescent (see the header contract), so reading it is safe.
    {
        // An adopted restore the worker has not applied yet means the
        // pipeline still holds fresh-start state; snapshotting it now
        // would persist (or migrate) an empty session over real state.
        std::lock_guard<std::mutex> lk(mu_);
        if (hasCkpt_) {
            if (err)
                *err = "adopted restore not yet applied";
            return false;
        }
    }
    std::vector<uint8_t> snap;
    if (started_) {
        try {
            snap = takeSnapshot(pipe_->root(), pipe_->frame(),
                                stepper_.consumed(), stepper_.emitted());
        } catch (const std::exception& e) {
            if (err)
                *err = e.what();
            return false;
        }
    }

    // Unconsumed input, oldest first, without draining anything: the
    // unreplayed restore backlog, a *peek* of the queue, then the I/O
    // thread's decoded-but-unqueued remainder.
    std::vector<uint8_t> backlog;
    if (replayPos_ < replay_.size())
        backlog.insert(backlog.end(),
                       replay_.begin() + static_cast<long>(replayPos_),
                       replay_.end());
    if (inW_)
        inQ_.peekAll(backlog);
    backlog.insert(backlog.end(),
                   pendingIn.begin() + static_cast<long>(pendingPos),
                   pendingIn.end());
    if (inW_ ? backlog.size() % inW_ != 0 : !backlog.empty()) {
        if (err)
            *err = "input backlog is not element-aligned";
        return false;
    }

    const uint64_t emittedB = stepper_.emitted() * outW_;
    std::vector<uint8_t> tail;
    uint64_t base;
    {
        std::lock_guard<std::mutex> lk(mu_);
        // Tail base: the sent watermark as of the *previous* persist —
        // bytes handed to the kernel a cadence ago are long delivered,
        // so a re-attaching client's received count can't be below it.
        base = prevPersistSentAbs;
        if (base < outTailBase_)
            base = outTailBase_;
        if (base >= emittedB || emittedB < outTailBase_) {
            // Mid-suppression (the retained window starts past the
            // snapshot) or nothing emitted since the base: an empty
            // tail anchored at the snapshot is consistent — a client
            // ahead of it takes the suppression path on re-attach.
            base = emittedB;
            tail.clear();
        } else {
            size_t drop = static_cast<size_t>(base - outTailBase_);
            outTail_.erase(outTail_.begin(),
                           outTail_.begin() + static_cast<long>(drop));
            outTailBase_ = base;
            if (outTailBase_ + outTail_.size() != emittedB) {
                if (err)
                    *err = "retained output tail is inconsistent";
                return false;
            }
            tail = outTail_;
        }
    }

    StateWriter w;
    w.u32(kSessionCheckpointVersionDurable);
    w.u64(stepper_.consumed());
    w.u64(stepper_.emitted());
    w.u64(inW_ ? backlog.size() / inW_ : 0);
    w.blob(snap.data(), snap.size());
    w.blob(backlog.data(), backlog.size());
    w.u64(base);
    w.blob(tail.data(), tail.size());
    out = w.take();
    prevPersistSentAbs = sentPayloadAbs;
    return true;
}

std::string
Session::adoptResume(const std::vector<uint8_t>& payload,
                     uint64_t client_received, std::vector<uint8_t>& resend,
                     uint64_t& resume_elems)
{
    resend.clear();
    uint64_t consumed, emitted, backlogElems, base;
    std::vector<uint8_t> backlog, tail;
    try {
        StateReader r(payload.data(), payload.size());
        uint32_t ver = r.u32();
        if (ver != kSessionCheckpointVersion &&
            ver != kSessionCheckpointVersionDurable)
            return "unsupported session checkpoint version " +
                   std::to_string(ver);
        consumed = r.u64();
        emitted = r.u64();
        backlogElems = r.u64();
        (void)r.blob();  // snapshot (applied worker-side)
        backlog = r.blob();
        if (ver == kSessionCheckpointVersionDurable) {
            base = r.u64();
            tail = r.blob();
        } else {
            base = emitted * outW_;
        }
    } catch (const std::exception& e) {
        return e.what();
    }
    const uint64_t emittedB = emitted * outW_;
    if (base + tail.size() != emittedB)
        return "checkpoint output tail is inconsistent";
    if (inW_ ? backlog.size() % inW_ != 0 : !backlog.empty())
        return "checkpoint backlog is not element-aligned";
    if (inW_ && backlog.size() / inW_ != backlogElems)
        return "checkpoint backlog count disagrees with header";

    uint64_t suppress = 0;
    if (client_received < base)
        return "client resume point precedes the retained output window";
    if (client_received > emittedB) {
        suppress = client_received - emittedB;
        if (outW_ == 0 || suppress % outW_ != 0)
            return "client resume point is not element-aligned";
    } else {
        resend.assign(tail.begin() +
                          static_cast<long>(client_received - base),
                      tail.end());
    }
    resume_elems = consumed + backlogElems;

    {
        std::lock_guard<std::mutex> lk(mu_);
        pendingCkpt_ = payload;
        hasCkpt_ = true;
        pendingSuppress_ = suppress;
        retainOut_ = true;
        outTailBase_ = client_received;
        outTail_ = resend;
        // Anything an emit-before-take pipeline produced before the
        // attach arrived is regenerated by the restore; the caller
        // guarantees none of it was staged to the wire.
        outRaw_.clear();
        outRawPos_ = 0;
    }
    stagedPayloadAbs = client_received;
    sentPayloadAbs = client_received;
    prevPersistSentAbs = client_received;
    return {};
}

void
Session::beginRetention()
{
    std::lock_guard<std::mutex> lk(mu_);
    retainOut_ = true;
    // An emit-before-take pipeline may have produced output before the
    // attach Hello arrived; the caller guarantees none of it was staged
    // to the wire yet, so seeding the tail from the raw buffer keeps the
    // retained window anchored at absolute offset 0.
    outTail_.assign(outRaw_.begin(), outRaw_.end());
    outTailBase_ = 0;
}

std::string
Session::applyCheckpoint(const std::vector<uint8_t>& payload)
{
    try {
        StateReader r(payload.data(), payload.size());
        uint32_t ver = r.u32();
        if (ver != kSessionCheckpointVersion &&
            ver != kSessionCheckpointVersionDurable)
            return "unsupported session checkpoint version " +
                   std::to_string(ver);
        (void)r.u64();  // consumed (client-facing; snapshot is canonical)
        (void)r.u64();  // emitted
        (void)r.u64();  // backlog element count (re-derived below)
        std::vector<uint8_t> snap = r.blob();
        replay_ = r.blob();
        if (ver == kSessionCheckpointVersionDurable) {
            // Output tail base + bytes: consumed on the I/O thread by
            // adoptResume (resend / suppression); ignored here.
            (void)r.u64();
            (void)r.blob();
        }
        replayPos_ = 0;
        if (inW_ && replay_.size() % inW_ != 0)
            return "checkpoint backlog is not element-aligned";
        if (inW_ == 0 && !replay_.empty())
            return "checkpoint backlog for a pipeline that takes no input";
        if (!snap.empty()) {
            // An empty snapshot means the donor never started stepping;
            // the backlog alone reconstructs the session.
            SnapshotInfo info =
                restoreSnapshot(pipe_->root(), pipe_->frame(), snap);
            stepper_.resume(info.consumed, info.emitted);
            started_ = true;
        }
        metrics::Registry::global()
            .counter("server.migrations.restored")
            .inc();
        return {};
    } catch (const std::exception& e) {
        return e.what();
    }
}

StepResult
Session::step()
{
    // A migration restore adopted on the I/O thread is applied here,
    // before any stepping, so the restored state is never mixed with
    // fresh-start progress.
    {
        std::vector<uint8_t> ck;
        bool has = false;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (hasCkpt_) {
                ck = std::move(pendingCkpt_);
                pendingCkpt_.clear();
                hasCkpt_ = false;
                has = true;
                suppressOut_ = pendingSuppress_;
                pendingSuppress_ = 0;
            }
        }
        if (has) {
            std::string err = applyCheckpoint(ck);
            if (!err.empty()) {
                std::lock_guard<std::mutex> lk(mu_);
                done_.finished = true;
                done_.failed = true;
                done_.failMessage = "checkpoint restore failed: " + err;
                return StepResult::Failed;
            }
        }
    }
    if (!started_) {
        stepper_.start(pipe_->frame());
        started_ = true;
    }
    // The fault decorator sits between the queue and the stepper, exactly
    // where it sits between a capture file and a pipeline in zirrun.
    InputSource& src =
        fault_.enabled() ? static_cast<InputSource&>(fsrc_) : qsrc_;
    auto pull = [&](const uint8_t** p) {
        // Migration backlog first: the donor's unconsumed elements
        // precede anything the client sends after reconnecting.
        if (replayPos_ < replay_.size()) {
            *p = replay_.data() + replayPos_;
            replayPos_ += inW_;
            return Feed::Ready;
        }
        *p = src.next();
        if (*p)
            return Feed::Ready;
        // A Truncate fault ends the stream without consulting the queue,
        // so the queue-source state would be stale for that one case.
        if (fault_.kind == FaultSpec::Kind::Truncate &&
            fsrc_.ticks() >= fault_.tick)
            return Feed::End;
        return qsrc_.state();
    };
    bool overHighWater = false;
    auto push = [&](const uint8_t* elem) {
        if (suppressOut_ > 0) {
            // The restored pipeline is regenerating output the client
            // already received (it was ahead of the snapshot when it
            // re-attached); deterministic replay makes these bytes
            // identical, so swallow them.
            suppressOut_ -= outW_;
            return true;
        }
        {
            std::lock_guard<std::mutex> lk(mu_);
            outRaw_.insert(outRaw_.end(), elem, elem + outW_);
            if (retainOut_)
                outTail_.insert(outTail_.end(), elem, elem + outW_);
            overHighWater =
                outRaw_.size() - outRawPos_ >= cfg_.outHighWaterBytes;
        }
        // Outside mu_: span completion may take the tracker's own lock
        // (and emit a timeline event) — keep the lock graph flat.
        if (spans_)
            spans_->onOutput();
        return !overHighWater;
    };

    try {
        StepOutcome oc =
            stepper_.drive(pipe_->frame(), pull, push, cfg_.stepQuantum);
        switch (oc) {
          case StepOutcome::Budget:
            return StepResult::Again;
          case StepOutcome::NeedInput:
            return StepResult::NeedInput;
          case StepOutcome::SinkFull:
            return StepResult::OutputFull;
          case StepOutcome::EndOfInput: {
            if (spans_)
                spans_->flush();
            std::lock_guard<std::mutex> lk(mu_);
            done_.finished = true;
            return StepResult::Finished;
          }
          case StepOutcome::Halted: {
            if (spans_)
                spans_->flush();
            std::lock_guard<std::mutex> lk(mu_);
            done_.finished = true;
            done_.halted = true;
            const uint8_t* cp = stepper_.ctrlData();
            if (cp && stepper_.ctrlWidth())
                done_.ctrl.assign(cp, cp + stepper_.ctrlWidth());
            return StepResult::Finished;
          }
        }
        return StepResult::Again;  // unreachable
    } catch (const std::exception& e) {
        StageFailure f;
        f.stage = 0;
        f.path = "session" + std::to_string(id_);
        f.cause = FailureCause::Exception;
        f.message = e.what();
        f.inner = std::current_exception();
        metrics::Registry::global()
            .counter("server.session.failures")
            .inc();
        if (sup_.onFailure(f)) {
            // Re-arm in place at a frame boundary: node state discarded,
            // the live input queue and buffered output kept — the crash
            // costs at most the elements already consumed this frame.
            stepper_.reset(pipe_->frame());
            fsrc_.rearm();
            // Abort the open spans of the discarded frame; the tracker
            // re-bases its epoch so post-restart inputs open cleanly.
            if (spans_)
                spans_->onRestart();
            restarts_.fetch_add(1);
            metrics::Registry::global()
                .counter("server.session.restarts")
                .inc();
            return StepResult::Again;
        }
        std::lock_guard<std::mutex> lk(mu_);
        done_.finished = true;
        done_.failed = true;
        done_.failMessage = f.message;
        if (f.restartsExhausted)
            done_.failMessage +=
                " (after " + std::to_string(f.restarts.size()) +
                " restart(s))";
        return StepResult::Failed;
    }
}

} // namespace serve
} // namespace ziria
