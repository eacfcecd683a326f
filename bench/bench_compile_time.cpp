/**
 * @file
 * Section 5.4, compile time: the paper reports 8 s for the 54 Mbps
 * transmitter (same as Sora's C++) and 15 s for the receiver (vs 26 s
 * for Sora), with the Ziria-to-C vectorization phase finishing in 2-4 s
 * thanks to local pruning.
 *
 * Our compiler front end targets closure trees rather than C, so wall
 * times are milliseconds; what carries over is the per-phase breakdown
 * and the RX-heavier-than-TX shape.
 */
#include "bench_util.h"

using namespace ziria;
using namespace ziria::wifi;
using namespace zbench;

namespace {

/**
 * Compile @p make()'s program twice from fresh ASTs: the first compile
 * runs every pass and builds the LUTs, the second ("repeat") is what a
 * server pays per session once the program cache holds the program.
 */
template <typename Make>
void
report(const char* name, Make make)
{
    const auto opt = CompilerOptions::forLevel(OptLevel::All);
    CompileReport rep;
    Stopwatch sw;
    auto p = compilePipeline(make(), opt, &rep);
    double total = sw.elapsedSec();
    CompileReport again;
    sw.reset();
    p = compilePipeline(make(), opt, &again);
    double repeat = sw.elapsedSec();
    printf("%-10s %8.1f %10.1f %8.1f %8.1f %8.1f %8.2f%s | %7ld cands, "
           "chose %d-in/%d-out, %d LUTs\n",
           name, total * 1e3, rep.frontendSec * 1e3,
           rep.vectorizeSec * 1e3, rep.optimizeSec * 1e3,
           rep.buildSec * 1e3, repeat * 1e3, again.cacheHit ? "" : "*",
           rep.vect.generated, rep.vect.chosenIn, rep.vect.chosenOut,
           rep.build.lutsBuilt);
}

} // namespace

int
main()
{
    printf("Compile time of the full WiFi pipelines (ms)\n");
    rule(' ', 0);
    printf("%-10s %8s %10s %8s %8s %8s %8s\n", "pipeline", "total",
           "frontend", "vect", "opt", "build", "repeat");
    rule();
    report("TX6", [] { return wifiTxDataComp(Rate::R6); });
    report("TX54", [] { return wifiTxDataComp(Rate::R54); });
    report("RX6", [] { return wifiRxDataComp(Rate::R6, 1500); });
    report("RX54", [] { return wifiRxDataComp(Rate::R54, 1500); });
    report("RX full", [] { return wifiReceiverComp(); });
    report("TX frame", [] { return wifiTxFrameComp(Rate::R54, 1000); });
    rule();
    printf("repeat: a second compile of a fresh AST of the same program, "
           "served by the\nprogram cache (no passes, no table builds; "
           "'*' marks a miss).\n");
    printf("=> paper: TX54 8 s (= Sora C++), RX54 15 s (vs Sora 26 s); "
           "vectorization\n   completes in 2-4 s due to local pruning.  "
           "Shape to compare: the RX\n   pipelines cost more to compile "
           "than TX, and vectorization dominates.\n");
    return 0;
}
