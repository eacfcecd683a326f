/**
 * @file
 * Runtime frames and static frame layout.
 *
 * All mutable program state — `var` declarations, seq binders, kernel
 * parameters and locals — lives in one flat byte frame per pipeline
 * instance.  The layout pass assigns every VarSym a fixed byte offset at
 * compile time, so compiled closures address state with plain pointer
 * arithmetic.  Ziria programs have no recursion, so one slot per variable
 * suffices (matching the paper's constant-space execution guarantee).
 */
#ifndef ZIRIA_ZEXPR_FRAME_H
#define ZIRIA_ZEXPR_FRAME_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "support/log.h"
#include "support/panic.h"
#include "zast/expr.h"

namespace ziria {

/** A pipeline instance's mutable state. */
class Frame
{
  public:
    Frame() = default;

    explicit Frame(size_t size) : Frame(size, size) {}

    /** A frame whose bytes past @p stateSize are scratch (see
     *  FrameLayout::stateSize()). */
    Frame(size_t size, size_t stateSize)
        : mem_(size, 0), stateSize_(std::min(stateSize, size))
    {
    }

    void
    resize(size_t size)
    {
        mem_.assign(size, 0);
        stateSize_ = size;
    }

    uint8_t* at(size_t off) { return mem_.data() + off; }
    const uint8_t* at(size_t off) const { return mem_.data() + off; }

    size_t size() const { return mem_.size(); }

    /** Leading bytes that hold state between steps (checkpointed). */
    size_t stateSize() const { return stateSize_; }

    /** Zero all state (used when re-initializing a pipeline). */
    void
    clear()
    {
        std::memset(mem_.data(), 0, mem_.size());
    }

  private:
    std::vector<uint8_t> mem_;
    size_t stateSize_ = 0;
};

/** Compile-time assignment of variables to frame offsets. */
class FrameLayout
{
  public:
    /** Add a variable (idempotent); returns its offset. */
    size_t
    add(const VarRef& v)
    {
        ZIRIA_ASSERT(v != nullptr);
        auto it = off_.find(v.get());
        if (it != off_.end())
            return it->second;
        size_t o = size_;
        off_.emplace(v.get(), o);
        // Slots are keyed by VarSym address: pin every symbol for the
        // layout's lifetime, so a freed VarSym's heap address can never
        // be recycled into a new variable that would silently alias the
        // dead one's slot.
        vars_.push_back(v);
        size_ += v->type->byteWidth();
        return o;
    }

    bool has(const VarSym* v) const { return off_.count(v) != 0; }

    size_t
    offsetOf(const VarSym* v) const
    {
        auto it = off_.find(v);
        if (it == off_.end())
            panicf("variable ", v->name, "_", v->uid,
                   " has no frame slot");
        return it->second;
    }

    size_t frameSize() const { return size_; }

    /** Slots added from here on are scratch; see stateSize(). */
    void beginScratch() { scratchFrom_ = std::min(scratchFrom_, size_); }

    /**
     * Bytes before the first beginScratch().  The native emitter adds
     * its slots (re-inlined call parameters and locals) after that
     * point; each is written before it is read within one closure, so
     * none holds state between steps.  Checkpoints leave them out,
     * which makes a fused and a native frame of one program alike.
     */
    size_t stateSize() const { return std::min(scratchFrom_, size_); }

    /** Debug aid: print every slot (offset, width, name_uid). */
    void
    dumpVars() const
    {
        std::vector<std::pair<size_t, VarRef>> xs;
        for (const auto& v : vars_)
            xs.emplace_back(offsetOf(v.get()), v);
        std::sort(xs.begin(), xs.end(),
                  [](const auto& a, const auto& b) {
                      return a.first < b.first;
                  });
        for (const auto& [off, v] : xs) {
            char line[160];
            std::snprintf(line, sizeof(line), "%6zu %5zu %s_%d", off,
                          v->type->byteWidth(), v->name.c_str(), v->uid);
            log::raw(line);
        }
    }

  private:
    std::unordered_map<const VarSym*, size_t> off_;
    std::vector<VarRef> vars_;
    size_t size_ = 0;
    size_t scratchFrom_ = SIZE_MAX;
};

} // namespace ziria

#endif // ZIRIA_ZEXPR_FRAME_H
