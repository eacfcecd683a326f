#include "zopt/autolut.h"

#include "support/metrics.h"
#include "zcheck/check.h"

namespace ziria {

std::shared_ptr<const CompiledLut>
LutCache::find(const std::string& key) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = tables_.find(key);
    return it == tables_.end() ? nullptr : it->second;
}

std::shared_ptr<const CompiledLut>
LutCache::insert(const std::string& key,
                 std::shared_ptr<const CompiledLut> lut)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto [it, fresh] = tables_.emplace(key, std::move(lut));
    if (fresh)
        bytes_ += it->second->tableBytes();
    return it->second;
}

size_t
LutCache::tableBytes() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return bytes_;
}

namespace {

void
appendSlots(std::string& key, const std::vector<LutSlot>& slots)
{
    key += std::to_string(slots.size());
    for (const auto& s : slots) {
        key += ';';
        key += std::to_string(s.frameOff);
        key += ':';
        key += s.type->show();
    }
    key += '|';
}

} // namespace

std::shared_ptr<const CompiledLut>
tryBuildMapLut(const void* site, const FunRef& f,
               const CompiledKernel& kernel, ExprCompiler& ec,
               const LutLimits& limits, LutCache* cache)
{
    if (f->noLut || f->isNative())
        return nullptr;
    if (f->params.size() != 1)
        return nullptr;

    // Key = input parameter + every captured variable the kernel reads.
    // Outputs = return value + every captured variable it writes.
    std::vector<LutSlot> keySlots;
    keySlots.push_back(LutSlot{kernel.paramOffsets[0],
                               f->params[0]->type, 0});

    std::vector<LutSlot> outSlots;
    for (const auto& [var, acc] : freeVarAccessFun(f)) {
        // The captured variable must have a frame slot by now (the kernel
        // compilation touched it).
        if (!ec.layout().has(var))
            return nullptr;
        size_t off = ec.layout().offsetOf(var);
        // Find a shared_ptr-free handle: LutSlot only needs offset+type.
        if (acc.read)
            keySlots.push_back(LutSlot{off, var->type, 0});
        if (acc.write)
            outSlots.push_back(LutSlot{off, var->type, 0});
    }

    auto plan = planLut(std::move(keySlots), std::move(outSlots),
                        f->retType, limits);
    if (!plan)
        return nullptr;

    std::string key;
    if (cache) {
        key = std::to_string(reinterpret_cast<uintptr_t>(site)) + '|' +
              std::to_string(ec.layout().frameSize()) + '|';
        appendSlots(key, plan->keySlots);
        appendSlots(key, plan->outSlots);
        if (auto hit = cache->find(key))
            return hit;
    }
    // Built outside any lock: two pipelines missing at once both compute
    // the table and the cache keeps the first.
    auto lut = std::make_shared<const CompiledLut>(
        std::move(*plan), kernel.body, kernel.retInto,
        ec.layout().frameSize());
    metrics::Registry::global().counter("ziria.luts_built").inc();
    return cache ? cache->insert(key, std::move(lut)) : lut;
}

} // namespace ziria
