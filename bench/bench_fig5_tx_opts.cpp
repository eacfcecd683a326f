/**
 * @file
 * Figure 5b: optimization benefit for every WiFi transmitter block and
 * for the full transmitter at all eight rates, plus the Figure 3 synergy
 * report (how many LUTs the compiler builds for the TX pipelines —
 * the paper reports 40 LUT opportunities in the 54 Mbps transmitter).
 *
 * Paper shape: vectorization alone is modest on TX (bit-level operations
 * dominate), but it enables LUT generation; vect+LUT reaches up to
 * 1000x on bit-granularity blocks.
 *
 * The full-transmitter table also runs each level on the native
 * backend (docs/CODEGEN.md; median of 3 runs over 10x the VM's input),
 * where the optimizer's output is compiled C++ as in the paper.
 */
#include <algorithm>
#include <functional>

#include "bench_util.h"

#include "wifi/native_blocks.h"

using namespace ziria;
using namespace ziria::wifi;
using namespace zbench;
using namespace zb;

namespace {

struct Row
{
    std::string name;
    double none = 0;
    double vect = 0;
    double all = 0;
    double natNone = 0;
    double natVect = 0;
    double natAll = 0;
};

/** Median of three native-backend runs of @p comp at @p level. */
double
nativeElemsPerSec(const std::function<CompPtr()>& mk, OptLevel level,
                  const std::vector<uint8_t>& input, size_t elem_bytes,
                  uint64_t total_elems)
{
    CompilerOptions opt = CompilerOptions::forLevel(level);
    opt.backend = Backend::Native;
    double runs[3];
    for (double& r : runs)
        r = elemsPerSec(mk(), opt, input, elem_bytes, total_elems);
    std::sort(runs, runs + 3);
    return runs[1];
}

Row
measure(const std::string& name, const std::function<CompPtr()>& mk,
        const std::vector<uint8_t>& input, size_t elem_bytes,
        uint64_t total_elems)
{
    Row r;
    r.name = name;
    r.none = elemsPerSec(mk(), OptLevel::None, input, elem_bytes,
                         total_elems);
    r.vect = elemsPerSec(mk(), OptLevel::Vectorize, input, elem_bytes,
                         total_elems);
    r.all = elemsPerSec(mk(), OptLevel::All, input, elem_bytes,
                        total_elems);
    return r;
}

void
print(const Row& r)
{
    printf("%-22s %10.2f %10.2f %10.2f %8.1fx %8.1fx", r.name.c_str(),
           r.none / 1e6, r.vect / 1e6, r.all / 1e6, r.vect / r.none,
           r.all / r.none);
    if (r.natNone > 0)
        printf(" %9.2f %9.2f %9.2f %8.1fx", r.natNone / 1e6,
               r.natVect / 1e6, r.natAll / 1e6, r.natAll / r.natNone);
    printf("\n");
}

} // namespace

int
main()
{
    printf("Figure 5b: WiFi TX blocks, optimization benefit\n");
    printf("(throughput in M input elements/s)\n");
    rule();
    printf("%-22s %10s %10s %10s %9s %9s\n", "block", "none", "vect",
           "all", "vect/none", "all/none");
    rule();

    const uint64_t BITS = 576 * 1200;
    const uint64_t PTS = 48 * 3000;
    const uint64_t SYMS = 6000;
    auto bitsIn = randomBits(576 * 64, 15);
    auto ptsIn = randomSamples(48 * 256, 16, 500);
    auto symIn = randomSamples(64 * 256, 17, 500);

    using dsp::CodingRate;
    using dsp::Modulation;

    print(measure("scramble", [] { return scramblerBlock(); }, bitsIn, 1,
                  BITS));
    print(measure("encoding 12",
                  [] { return encoderBlock(CodingRate::Half); }, bitsIn,
                  1, BITS));
    print(measure("encoding 23",
                  [] { return encoderBlock(CodingRate::TwoThirds); },
                  bitsIn, 1, BITS));
    print(measure("encoding 34",
                  [] { return encoderBlock(CodingRate::ThreeQuarters); },
                  bitsIn, 1, BITS));
    for (auto [name, m] :
         {std::pair{"interleaving bpsk", Modulation::Bpsk},
          std::pair{"interleaving qpsk", Modulation::Qpsk},
          std::pair{"interleaving 16qam", Modulation::Qam16},
          std::pair{"interleaving 64qam", Modulation::Qam64}}) {
        print(measure(name, [m] { return interleaverBlock(m); }, bitsIn,
                      1, BITS));
    }
    for (auto [name, m] :
         {std::pair{"modulating bpsk", Modulation::Bpsk},
          std::pair{"modulating qpsk", Modulation::Qpsk},
          std::pair{"modulating 16qam", Modulation::Qam16},
          std::pair{"modulating 64qam", Modulation::Qam64}}) {
        print(measure(name, [m] { return modulatorBlock(m); }, bitsIn, 1,
                      BITS));
    }
    print(measure(
        "map_ofdm",
        [] {
            VarRef pi = freshVar("pilot_idx", Type::int32());
            return letvar(pi, cInt(1), mapOfdmBlock(pi));
        },
        ptsIn, 4, PTS));
    print(measure("ifft (native)", [] { return native(specIfft()); },
                  symIn, 256, SYMS));

    rule();
    printf("Full transmitter data path (M input bits/s), per rate:\n");
    printf("%-22s %10s %10s %10s %9s %9s %9s %9s %9s %9s\n", "rate",
           "none", "vect", "all", "vect/none", "all/none", "nat none",
           "nat vect", "nat all", "all/none");
    for (Rate rate : allRates()) {
        const RateInfo& ri = rateInfo(rate);
        uint64_t totalBits =
            static_cast<uint64_t>(ri.ndbps) * 600;
        auto in = randomBits(static_cast<size_t>(ri.ndbps) * 64, 19);
        auto mk = [rate] { return wifiTxDataComp(rate); };
        Row r = measure("TX" + std::to_string(ri.mbps) + "Mbps", mk, in, 1,
                        totalBits);
        r.natNone = nativeElemsPerSec(mk, OptLevel::None, in, 1,
                                      totalBits * 10);
        r.natVect = nativeElemsPerSec(mk, OptLevel::Vectorize, in, 1,
                                      totalBits * 10);
        r.natAll = nativeElemsPerSec(mk, OptLevel::All, in, 1,
                                     totalBits * 10);
        print(r);
    }

    rule();
    printf("Figure 3 synergy: LUTs found in the optimized TX pipelines\n");
    for (Rate rate : {Rate::R6, Rate::R54}) {
        CompileReport rep;
        auto p = compilePipeline(wifiTxDataComp(rate),
                                 CompilerOptions::forLevel(OptLevel::All),
                                 &rep);
        (void)p;
        printf("  TX%-2d: %d map kernels, %d LUTs (%zu KiB of tables), "
               "%d auto-mapped, %d fused\n",
               rateInfo(rate).mbps, rep.build.mapNodes,
               rep.build.lutsBuilt, rep.build.lutBytes / 1024,
               rep.maps.autoMapped, rep.maps.fused);
    }
    printf("=> paper: TX54 identifies 40 LUT opportunities; vect+LUT "
           "up to ~1000x on bit blocks.\n");
    return 0;
}
