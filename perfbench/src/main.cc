/**
 * @file
 * zbench: the repo benchmark's measuring binary.  run.py builds and
 * drives it; it can also be run directly:
 *
 *   zbench --workload phy_native|serve_mixed --seed N
 *          --seconds S --trace 0|1 --cache-dir DIR [--trace-out FILE]
 *          [--smoke]
 *
 * It prints one line per metric ("name value unit n=samples") and, as
 * its last line, one JSON document with the end-to-end metrics, the
 * per-layer metrics (traced runs), the printed-only detail metrics,
 * the failure counts and the build fingerprint.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "zcgen/cgen.h"

using namespace zbench;

namespace {

int
usage(const char* msg)
{
    std::fprintf(stderr,
                 "error: %s\nusage: zbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --cache-dir DIR "
                 "[--trace-out FILE] [--smoke]\n",
                 msg);
    return 2;
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::map<std::string, Metric>& ms)
{
    std::string out = "{";
    bool first = true;
    for (const auto& [name, m] : ms) {
        out += first ? "" : ",";
        first = false;
        out += "\"" + name + "\":{\"value\":" + num(m.value) +
               ",\"unit\":\"" + m.unit +
               "\",\"samples\":" + std::to_string(m.samples) + "}";
    }
    return out + "}";
}

void
printMetrics(const char* kind, const std::map<std::string, Metric>& ms)
{
    for (const auto& [name, m] : ms)
        std::printf("%-7s %-34s %16.6f %-10s n=%llu\n", kind, name.c_str(),
                    m.value, m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples));
}

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(("missing value for " + a).c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = val();
        else if (a == "--seed")
            o.seed = std::strtoull(val().c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(val().c_str());
        else if (a == "--trace")
            o.trace = val() == "1";
        else if (a == "--cache-dir")
            o.cacheDir = val();
        else if (a == "--trace-out")
            o.traceOut = val();
        else if (a == "--smoke")
            o.smoke = true;
        else
            return usage(("unknown argument " + a).c_str());
    }
    if (o.cacheDir.empty())
        return usage("--cache-dir is required (the benchmark never uses "
                     "the default zcgen cache)");
    if (!(o.seconds > 0))
        return usage("--seconds must be positive");

    Tracer::get().enable(o.trace);
    Result r;
    try {
        if (o.workload == "phy_native")
            r = runPhyNative(o);
        else if (o.workload == "serve_mixed")
            r = runServeMixed(o);
        else
            return usage(("unknown workload '" + o.workload + "'").c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s: %s\n", o.workload.c_str(),
                     e.what());
        return 1;
    }
    r.info["zcgen_compiler"] = ziria::zcgen::compilerVersion();
    if (o.trace) {
        fillMissingLayers(r);
        if (!o.traceOut.empty() && !Tracer::get().write(o.traceOut)) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         o.traceOut.c_str());
            return 1;
        }
    }

    std::printf("workload %s seed %llu seconds %g trace %d\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0);
    printMetrics("e2e", r.metrics);
    printMetrics("detail", r.detail);
    if (o.trace)
        printMetrics("layer", r.layers);
    std::printf("attempted %llu failed %llu self_check %s\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                r.selfCheckOk ? "ok" : "MISSED");

    std::string info = "{\"cxx\":\"" + jsonEscape(ZB_CXX) +
                       "\",\"cxx_flags\":\"" + jsonEscape(ZB_CXX_FLAGS) +
                       "\"";
    for (const auto& [k, v] : r.info)
        info += ",\"" + k + "\":\"" + jsonEscape(v) + "\"";
    info += "}";
    std::printf("{\"attempted\":%llu,\"failed\":%llu,\"self_check\":%s,"
                "\"metrics\":%s,\"layers\":%s,\"detail\":%s,\"info\":%s}\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                r.selfCheckOk ? "true" : "false",
                metricsJson(r.metrics).c_str(),
                metricsJson(o.trace ? r.layers
                                    : std::map<std::string, Metric>{})
                    .c_str(),
                metricsJson(r.detail).c_str(), info.c_str());
    return r.failed == 0 && r.selfCheckOk ? 0 : 3;
}
