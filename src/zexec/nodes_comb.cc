#include "zexec/nodes.h"

#include "support/panic.h"
#include "zexpr/compile_expr.h"
#include "ztype/value.h"

namespace ziria {

// ----------------------------------------------------------------- Seq

SeqNode::SeqNode(std::vector<Item> items) : items_(std::move(items))
{
    ZIRIA_ASSERT(!items_.empty());
}

void
SeqNode::start(Frame& f)
{
    idx_ = 0;
    done_ = false;
    items_[0].node->start(f);
}

void
SeqNode::reset(Frame& f)
{
    // Unlike start(), which only initializes the first item, reach every
    // item: a restart mid-sequence leaves items_[0..idx_] with partial
    // state that start() alone would never revisit.
    for (Item& it : items_)
        it.node->reset(f);
    idx_ = 0;
    done_ = false;
}

Status
SeqNode::advance(Frame& f)
{
    while (true) {
        Item& it = items_[idx_];
        Status s = it.node->advance(f);
        if (s == Status::Yield || s == Status::NeedInput)
            return s;
        // The active computer halted: bind its control value and switch
        // to the next component (the "switchtable" of §2.6).
        if (it.bindOff >= 0) {
            std::memcpy(f.at(static_cast<size_t>(it.bindOff)),
                        it.node->ctrl(), it.bindWidth);
        }
        if (idx_ + 1 == items_.size()) {
            done_ = true;
            return Status::Done;
        }
        ++idx_;
        items_[idx_].node->start(f);
    }
}

void
SeqNode::supply(Frame& f, const uint8_t* in)
{
    items_[idx_].node->supply(f, in);
}

const uint8_t*
SeqNode::out() const
{
    return items_[idx_].node->out();
}

const uint8_t*
SeqNode::ctrl() const
{
    ZIRIA_ASSERT(done_);
    return items_.back().node->ctrl();
}

// ---------------------------------------------------------------- Pipe

PipeNode::PipeNode(NodePtr left, NodePtr right)
    : left_(std::move(left)), right_(std::move(right))
{
    inWidth_ = left_->inWidth();
    outWidth_ = right_->outWidth();
    ctrlWidth_ = std::max(left_->ctrlWidth(), right_->ctrlWidth());
}

void
PipeNode::start(Frame& f)
{
    left_->start(f);
    right_->start(f);
    ctrlSrc_ = nullptr;
    ctrlFrom_ = 0;
}

void
PipeNode::reset(Frame& f)
{
    left_->reset(f);
    right_->reset(f);
    ctrlSrc_ = nullptr;
    ctrlFrom_ = 0;
}

Status
PipeNode::advance(Frame& f)
{
    while (true) {
        // Drain from the right (§2.6): the pipe's tick is c2's tick.
        Status sr = right_->advance(f);
        if (sr == Status::Yield)
            return Status::Yield;
        if (sr == Status::Done) {
            ctrlSrc_ = right_->ctrl();
            ctrlWidth_ = right_->ctrlWidth();
            ctrlFrom_ = 2;
            return Status::Done;
        }
        // The right side needs one element: run the left side for it.
        while (true) {
            Status sl = left_->advance(f);
            if (sl == Status::Yield) {
                right_->supply(f, left_->out());
                break;
            }
            if (sl == Status::Done) {
                ctrlSrc_ = left_->ctrl();
                ctrlWidth_ = left_->ctrlWidth();
                ctrlFrom_ = 1;
                return Status::Done;
            }
            return Status::NeedInput;
        }
    }
}

void
PipeNode::supply(Frame& f, const uint8_t* in)
{
    left_->supply(f, in);
}

// ------------------------------------------------------------------ If

IfNode::IfNode(EvalInt cond, NodePtr then_n, NodePtr else_n)
    : cond_(std::move(cond)), then_(std::move(then_n)),
      else_(std::move(else_n))
{
    inWidth_ = std::max(then_->inWidth(),
                        else_ ? else_->inWidth() : size_t{0});
    outWidth_ = std::max(then_->outWidth(),
                         else_ ? else_->outWidth() : size_t{0});
    ctrlWidth_ = then_->ctrlWidth();
}

void
IfNode::start(Frame& f)
{
    chosen_ = cond_(f) ? then_.get() : (else_ ? else_.get() : nullptr);
    if (chosen_)
        chosen_->start(f);
}

void
IfNode::reset(Frame& f)
{
    // Reset BOTH branches — the previously chosen one may not be the one
    // the re-evaluated guard picks next, but its stale state must go
    // either way.  reset() leaves each branch started, so re-selecting
    // below needs no extra start().
    then_->reset(f);
    if (else_)
        else_->reset(f);
    chosen_ = cond_(f) ? then_.get() : (else_ ? else_.get() : nullptr);
}

Status
IfNode::advance(Frame& f)
{
    if (!chosen_)
        return Status::Done;  // `if` without else on false: unit return
    return chosen_->advance(f);
}

void
IfNode::supply(Frame& f, const uint8_t* in)
{
    ZIRIA_ASSERT(chosen_ != nullptr);
    chosen_->supply(f, in);
}

// -------------------------------------------------------------- Repeat

RepeatNode::RepeatNode(NodePtr body) : body_(std::move(body))
{
    inWidth_ = body_->inWidth();
    outWidth_ = body_->outWidth();
}

void
RepeatNode::start(Frame& f)
{
    body_->start(f);
    spins_ = 0;
}

void
RepeatNode::reset(Frame& f)
{
    body_->reset(f);
    spins_ = 0;
}

Status
RepeatNode::advance(Frame& f)
{
    while (true) {
        Status s = body_->advance(f);
        if (s == Status::Yield || s == Status::NeedInput) {
            spins_ = 0;
            return s;
        }
        // Body halted: re-initialize and continue (repeat semantics).
        zr_spin(hostTraps(), &spins_);
        body_->start(f);
    }
}

void
RepeatNode::supply(Frame& f, const uint8_t* in)
{
    body_->supply(f, in);
}

// --------------------------------------------------------------- Times

TimesNode::TimesNode(EvalInt count, long iv_off, TypeKind iv_kind,
                     NodePtr body)
    : count_(std::move(count)), ivOff_(iv_off), ivKind_(iv_kind),
      body_(std::move(body))
{
    inWidth_ = body_->inWidth();
    outWidth_ = body_->outWidth();
    ctrlWidth_ = 0;
}

void
TimesNode::start(Frame& f)
{
    n_ = count_(f);
    i_ = 0;
    if (ivOff_ >= 0)
        writeIntRaw(ivKind_, f.at(static_cast<size_t>(ivOff_)), 0);
    if (n_ > 0)
        body_->start(f);
}

void
TimesNode::reset(Frame& f)
{
    n_ = count_(f);
    i_ = 0;
    // Write the induction variable before resetting the body, matching
    // start()'s ordering (the body's own start may read the binder).
    if (ivOff_ >= 0)
        writeIntRaw(ivKind_, f.at(static_cast<size_t>(ivOff_)), 0);
    body_->reset(f);
}

Status
TimesNode::advance(Frame& f)
{
    while (true) {
        if (i_ >= n_)
            return Status::Done;
        Status s = body_->advance(f);
        if (s != Status::Done)
            return s;
        ++i_;
        if (i_ >= n_)
            return Status::Done;
        if (ivOff_ >= 0)
            writeIntRaw(ivKind_, f.at(static_cast<size_t>(ivOff_)), i_);
        body_->start(f);
    }
}

void
TimesNode::supply(Frame& f, const uint8_t* in)
{
    body_->supply(f, in);
}

// --------------------------------------------------------------- While

WhileNode::WhileNode(EvalInt cond, NodePtr body)
    : cond_(std::move(cond)), body_(std::move(body))
{
    inWidth_ = body_->inWidth();
    outWidth_ = body_->outWidth();
    ctrlWidth_ = 0;
}

void
WhileNode::start(Frame&)
{
    running_ = false;
    finished_ = false;
}

void
WhileNode::reset(Frame& f)
{
    // start() leaves the body to be lazily started once the guard holds,
    // so it would skip a body whose previous iteration was cut short —
    // reset it explicitly.  advance() re-starts it before use anyway.
    body_->reset(f);
    running_ = false;
    finished_ = false;
}

Status
WhileNode::advance(Frame& f)
{
    while (true) {
        if (finished_)
            return Status::Done;
        if (!running_) {
            if (!cond_(f)) {
                finished_ = true;
                return Status::Done;
            }
            body_->start(f);
            running_ = true;
        }
        Status s = body_->advance(f);
        if (s != Status::Done)
            return s;
        running_ = false;  // re-check the guard
    }
}

void
WhileNode::supply(Frame& f, const uint8_t* in)
{
    body_->supply(f, in);
}

// -------------------------------------------------------------- LetVar

LetVarNode::LetVarNode(size_t off, size_t width, EvalInto init,
                       NodePtr body)
    : off_(off), width_(width), init_(std::move(init)),
      body_(std::move(body))
{
    inWidth_ = body_->inWidth();
    outWidth_ = body_->outWidth();
    ctrlWidth_ = body_->ctrlWidth();
}

void
LetVarNode::start(Frame& f)
{
    if (init_)
        init_(f, f.at(off_));
    else
        std::memset(f.at(off_), 0, width_);
    body_->start(f);
}

void
LetVarNode::reset(Frame& f)
{
    if (init_)
        init_(f, f.at(off_));
    else
        std::memset(f.at(off_), 0, width_);
    body_->reset(f);
}

Status
LetVarNode::advance(Frame& f)
{
    return body_->advance(f);
}

void
LetVarNode::supply(Frame& f, const uint8_t* in)
{
    body_->supply(f, in);
}

// -------------------------------------------------- snapshot / restore
//
// Combinators serialize their own scheduling state (active index,
// chosen branch, loop counters), the frame cells they own (seq binders,
// induction variables, LetVar storage), and recurse into EVERY child —
// mirroring the reset() walk so the stream is total over the tree.
// restore() assumes reset(f) ran first and only patches state back in.

void
SeqNode::snapshot(const Frame& f, StateWriter& w) const
{
    w.u64(idx_);
    w.u8(done_ ? 1 : 0);
    for (const Item& it : items_) {
        if (it.bindOff >= 0)
            w.bytes(f.at(static_cast<size_t>(it.bindOff)), it.bindWidth);
        it.node->snapshot(f, w);
    }
}

void
SeqNode::restore(Frame& f, StateReader& r)
{
    // The stream is untrusted on the zserve migration path: an index
    // past the item list would send advance()/supply() out of bounds.
    size_t idx = static_cast<size_t>(r.u64());
    if (idx >= items_.size())
        throw StateFormatError("seq active index out of range");
    idx_ = idx;
    done_ = r.u8() != 0;
    // Binder cells land BEFORE each item restores: a NativeNode's
    // restore re-runs its factory, which reads the binders.
    for (Item& it : items_) {
        if (it.bindOff >= 0)
            r.bytes(f.at(static_cast<size_t>(it.bindOff)), it.bindWidth);
        it.node->restore(f, r);
    }
}

void
PipeNode::snapshot(const Frame& f, StateWriter& w) const
{
    w.u8(ctrlFrom_);
    w.u64(ctrlWidth_);
    left_->snapshot(f, w);
    right_->snapshot(f, w);
}

void
PipeNode::restore(Frame& f, StateReader& r)
{
    uint8_t from = r.u8();
    if (from > 2)
        throw StateFormatError("pipe control origin out of range");
    size_t cw = static_cast<size_t>(r.u64());
    left_->restore(f, r);
    right_->restore(f, r);
    // The control width is derivable from the (already restored)
    // children; an untrusted stream claiming a wider value would let a
    // parent copy past the halted child's control buffer.
    if (from != 0 &&
        cw != (from == 1 ? left_->ctrlWidth() : right_->ctrlWidth()))
        throw StateFormatError("pipe control width mismatch");
    ctrlFrom_ = from;
    ctrlWidth_ = cw;
    // Re-resolve the control pointer from the restored children; a
    // child's ctrl() is only callable once it actually halted.
    ctrlSrc_ = ctrlFrom_ == 0
        ? nullptr
        : (ctrlFrom_ == 1 ? left_->ctrl() : right_->ctrl());
}

void
IfNode::snapshot(const Frame& f, StateWriter& w) const
{
    uint8_t which = 0;
    if (chosen_ == then_.get())
        which = 1;
    else if (chosen_ && chosen_ == else_.get())
        which = 2;
    w.u8(which);
    then_->snapshot(f, w);
    if (else_)
        else_->snapshot(f, w);
}

void
IfNode::restore(Frame& f, StateReader& r)
{
    uint8_t which = r.u8();
    if (which > 2 || (which == 2 && !else_))
        throw StateFormatError("if branch selector out of range");
    then_->restore(f, r);
    if (else_)
        else_->restore(f, r);
    chosen_ = which == 1 ? then_.get()
                         : (which == 2 ? else_.get() : nullptr);
}

void
RepeatNode::snapshot(const Frame& f, StateWriter& w) const
{
    w.u64(spins_);
    body_->snapshot(f, w);
}

void
RepeatNode::restore(Frame& f, StateReader& r)
{
    spins_ = r.u64();
    body_->restore(f, r);
}

void
TimesNode::snapshot(const Frame& f, StateWriter& w) const
{
    w.i64(n_);
    w.i64(i_);
    // Round-trip the induction cell itself (not just i_): the body may
    // read it at any point and the cell is the source of truth.
    if (ivOff_ >= 0)
        w.i64(readIntRaw(ivKind_, f.at(static_cast<size_t>(ivOff_))));
    body_->snapshot(f, w);
}

void
TimesNode::restore(Frame& f, StateReader& r)
{
    n_ = r.i64();
    i_ = r.i64();
    if (ivOff_ >= 0)
        writeIntRaw(ivKind_, f.at(static_cast<size_t>(ivOff_)), r.i64());
    body_->restore(f, r);
}

void
WhileNode::snapshot(const Frame& f, StateWriter& w) const
{
    w.u8(running_ ? 1 : 0);
    w.u8(finished_ ? 1 : 0);
    body_->snapshot(f, w);
}

void
WhileNode::restore(Frame& f, StateReader& r)
{
    running_ = r.u8() != 0;
    finished_ = r.u8() != 0;
    body_->restore(f, r);
}

void
LetVarNode::snapshot(const Frame& f, StateWriter& w) const
{
    w.bytes(f.at(off_), width_);
    body_->snapshot(f, w);
}

void
LetVarNode::restore(Frame& f, StateReader& r)
{
    r.bytes(f.at(off_), width_);
    body_->restore(f, r);
}

} // namespace ziria
