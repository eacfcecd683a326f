#include "support/fault_injector.h"

#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>

#include "support/panic.h"
#include "zast/comp.h"

namespace ziria {
namespace testsupport {

using namespace zb;

namespace {

class ThrowAtKernel : public NativeKernel
{
  public:
    explicit ThrowAtKernel(uint64_t tick) : tick_(tick) {}

    void reset() override { n_ = 0; }

    bool
    consume(const uint8_t* in, Emitter& em) override
    {
        if (n_ == tick_)
            fatalf("fault_injector: induced stage exception at tick ",
                   n_);
        ++n_;
        em.emit(in);
        return false;
    }

  private:
    uint64_t tick_;
    uint64_t n_ = 0;
};

class StallAtKernel : public NativeKernel
{
  public:
    StallAtKernel(uint64_t tick, uint64_t stall_ms)
        : tick_(tick), stallMs_(stall_ms)
    {
    }

    void reset() override { n_ = 0; }

    bool
    consume(const uint8_t* in, Emitter& em) override
    {
        if (n_ == tick_)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(stallMs_));
        ++n_;
        em.emit(in);
        return false;
    }

  private:
    uint64_t tick_;
    uint64_t stallMs_;
    uint64_t n_ = 0;
};

std::shared_ptr<const NativeBlockSpec>
passThroughSpec(const char* name,
                std::function<std::unique_ptr<NativeKernel>()> make)
{
    auto spec = std::make_shared<NativeBlockSpec>();
    spec->name = name;
    spec->ctype = CompType{false, nullptr, Type::int32(), Type::int32()};
    spec->make = [make = std::move(make)](const std::vector<Value>&) {
        auto k = make();
        k->reset();
        return k;
    };
    return spec;
}

} // namespace

CompPtr
throwAtBlock(uint64_t tick)
{
    return native(passThroughSpec("ThrowAt", [tick] {
        return std::make_unique<ThrowAtKernel>(tick);
    }));
}

CompPtr
stallAtBlock(uint64_t tick, uint64_t stall_ms)
{
    return native(passThroughSpec("StallAt", [tick, stall_ms] {
        return std::make_unique<StallAtKernel>(tick, stall_ms);
    }));
}

std::vector<uint8_t>
intBytes(const std::vector<int32_t>& xs)
{
    std::vector<uint8_t> out(xs.size() * 4);
    std::memcpy(out.data(), xs.data(), out.size());
    return out;
}

std::vector<int32_t>
bytesToInts(const std::vector<uint8_t>& bytes)
{
    std::vector<int32_t> out(bytes.size() / 4);
    std::memcpy(out.data(), bytes.data(), out.size() * 4);
    return out;
}

ThrownRun
runUntilThrow(const CompPtr& c, const CompilerOptions& opt,
              const std::vector<int32_t>& in)
{
    auto p = compilePipeline(c, opt);
    auto bytes = intBytes(in);
    MemSource src(bytes, 4);
    VecSink sink(4);
    ThrownRun r;
    try {
        p->run(src, sink);
    } catch (const FatalError& e) {
        r.what = e.what();
    }
    r.out = sink.data();
    return r;
}

} // namespace testsupport
} // namespace ziria
