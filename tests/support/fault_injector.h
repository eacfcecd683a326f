/**
 * @file
 * Shared helpers for the fault-injection tests: DSL-visible native
 * blocks that pass int32 elements through untouched until a chosen
 * tick, then misbehave (throw / stall), plus byte-vector conversions.
 *
 * The blocks let a test place a deterministic fault *inside* a
 * pipeline stage — complementing FaultySource/FaultySink from
 * zexec/faultpoint.h, which fault the endpoints.  runUntilThrow drives
 * a pipeline into such a fault so tests can compare how backends fail.
 */
#ifndef ZIRIA_TESTS_SUPPORT_FAULT_INJECTOR_H
#define ZIRIA_TESTS_SUPPORT_FAULT_INJECTOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "zast/builder.h"
#include "zir/compiler.h"

namespace ziria {
namespace testsupport {

/** int32 -> int32 pass-through that throws FatalError at element K. */
CompPtr throwAtBlock(uint64_t tick);

/**
 * int32 -> int32 pass-through that sleeps @p stall_ms once, at element
 * K.  The sleep is NOT cancellable (plain this_thread::sleep_for) —
 * exactly the "stage stuck in a kernel" case the watchdog exists for.
 */
CompPtr stallAtBlock(uint64_t tick, uint64_t stall_ms);

/** Reinterpret an int32 vector as its little-endian byte stream. */
std::vector<uint8_t> intBytes(const std::vector<int32_t>& xs);

/** Inverse of intBytes (trailing partial element ignored). */
std::vector<int32_t> bytesToInts(const std::vector<uint8_t>& bytes);

/** What a run delivered before a stage threw, and the error message. */
struct ThrownRun
{
    std::vector<uint8_t> out;
    std::string what;  ///< empty when the run finished
};

/** Compile @p c with @p opt and run it over int32 @p in until it throws. */
ThrownRun runUntilThrow(const CompPtr& c, const CompilerOptions& opt,
                        const std::vector<int32_t>& in);

} // namespace testsupport
} // namespace ziria

#endif // ZIRIA_TESTS_SUPPORT_FAULT_INJECTOR_H
