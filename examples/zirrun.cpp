/**
 * @file
 * `zirrun` — compile and run a Ziria source file from the command line.
 *
 * Usage:
 *   zirrun FILE.zir [--opt none|vect|all] [--backend vm|fused|native]
 *                   [--dump] [--bytes N]
 *                   [--profile[=FILE]] [--trace-passes[=N]]
 *                   [--latency-budget-us N] [--trace-timeline FILE]
 *                   [--span-frame N]
 *                   [--deadline-ms N] [--inject-fault SPEC]
 *
 * The pipeline's input stream is fed with deterministic pseudo-random
 * bytes shaped to its input element type; the first output elements are
 * printed, together with the compile report (chosen vectorization
 * widths, LUTs built) — a miniature of the paper's `wplc` driver.
 *
 * `--backend fused` lowers the program into the linear bytecode
 * interpreter (docs/FUSION.md) instead of the closure-tree VM: one
 * region per pipeline, or per `|>>>|` partition when threaded, with
 * native blocks running as sites inside it.  The compile summary
 * reports `fused N region(s)`.  `--backend
 * native` runs the same regions as machine code compiled from emitted
 * C++ (docs/CODEGEN.md; `--cgen-cache-dir DIR` picks the shared-object
 * cache); a region that cannot be compiled is interpreted instead.
 *
 * `--profile` compiles with instrumentation and emits a JSON document
 * (to stdout, or FILE with `--profile=FILE`) containing the compile
 * report with per-pass timings, per-node runtime counters, and the
 * global metric registry.  `--trace-passes[=N]` narrates each compiler
 * pass to stderr (N >= 2 also dumps the AST between passes).  Leveled
 * diagnostics are controlled by the ZIRIA_LOG environment variable
 * (error|warn|info|debug|trace); see docs/OBSERVABILITY.md.
 *
 * Latency observability (docs/OBSERVABILITY.md):
 *   --latency-budget-us N  per-frame SLO: each frame span that closes
 *                      within N microseconds counts `latency.budget.met`,
 *                      the rest `latency.budget.missed` — distinct from
 *                      --deadline-ms, which is a liveness watchdog
 *   --trace-timeline FILE  record stage slices, frame spans, restarts,
 *                      and scheduler dwell; written as chrome://tracing
 *                      / Perfetto JSON on exit
 *   --span-frame N     input elements per tracked frame span (default
 *                      256)
 * Frame spans are enabled whenever --profile, --latency-budget-us, or
 * --trace-timeline is given; latency percentiles (p50/p90/p99/p999 of
 * source→sink time per frame) land in `latency.e2e_ns` in the registry
 * and in a one-line summary.  Under --listen every session gets its own
 * tracker; per-session results merge into `server.latency.*` on close.
 *
 * Robustness controls (docs/ROBUSTNESS.md):
 *   --deadline-ms N    run on the threaded executor under a supervisor
 *                      that fails the run if no stage makes progress
 *                      for N ms (`|>>>|` splits stages across threads)
 *   --inject-fault S   wrap the input in a fault injector; S is
 *                      truncate@K | throw@K[:N] | stall@K:MS[:N] |
 *                      shortread@K:SEED  (N = times the fault fires;
 *                      0 = forever, default 1)
 *   --restart N        self-healing: retry a failed run in place up to
 *                      N times (exponential backoff) before giving up
 *   --backoff-ms M     initial restart backoff (default 10; doubles per
 *                      attempt, capped at 1000 ms)
 *   --serve[=ELEMS]    long-running serve loop: feed the pipeline from a
 *                      cyclic source of ELEMS total elements (default:
 *                      indefinitely) instead of one finite buffer —
 *                      paired with --restart, an injected fault costs at
 *                      most one frame, not the process.  This is the
 *                      no-network variant of --listen: both drive the
 *                      same cooperative stepping core (zexec/stepper.h),
 *                      --serve in-process with a synthetic source,
 *                      --listen against real client connections.
 *
 * Durable checkpoints (docs/ROBUSTNESS.md, "Durable checkpoints & live
 * migration"):
 *   --ckpt-dir DIR     persist every cadence checkpoint to a crash-safe
 *                      on-disk store under DIR.  A solo run killed
 *                      mid-stream (even kill -9) resumes from the newest
 *                      valid generation on the next invocation with the
 *                      same program/backend/--out, producing a
 *                      byte-identical output file; under --listen every
 *                      keyed session (client attach Hello) is persisted
 *                      periodically and re-attachable after a server
 *                      restart.  Not combinable with --deadline-ms (the
 *                      threaded executor has no snapshot contract) or,
 *                      for solo runs, --inject-fault (fault-injector
 *                      state is not part of the checkpoint).
 *   --ckpt-interval-ms N  keyed-session persist cadence under --listen
 *                      (default 200)
 *   --out FILE         solo runs: write the full output byte stream to
 *                      FILE (crash-resume truncates it to the restored
 *                      emitted count and appends)
 *
 * Serving mode (docs/SERVING.md):
 *   --listen[=PORT]    run as a multi-session streaming server on
 *                      127.0.0.1:PORT (default 0 = kernel-assigned;
 *                      the bound port is printed either way).  Each
 *                      accepted connection gets its own compiled
 *                      pipeline instance; --inject-fault/--restart
 *                      then apply per session.  Stop with SIGINT/SIGTERM.
 *   --max-sessions N   admission cap: further clients are refused with
 *                      a protocol Error frame (default 64)
 *   --workers K        stepping worker threads (default 2)
 *   --idle-timeout-ms N  evict sessions with no socket traffic for N ms
 *   --metrics-interval-ms N  dump the metric registry as JSON every N ms
 *                      (to stderr, or --metrics-out FILE)
 *   --fault-session I  with --inject-fault: fault only the I-th accepted
 *                      session (default: every session)
 *
 * Exit codes:
 *   0  success
 *   2  user error: bad usage, unreadable file, parse/compile error
 *   3  stage failure: the pipeline (or an injected fault) threw at run
 *      time
 *   4  stall timeout: the --deadline-ms supervisor declared the run
 *      stalled
 *   5  retries exhausted: a --restart budget was spent without a clean
 *      run
 *   1  anything else (internal error)
 */
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <sys/types.h>
#include <unistd.h>

#include <cctype>

#include "support/metrics.h"
#include "support/rng.h"
#include "support/timeline.h"
#include "zexec/ckpt_store.h"
#include "zexec/span.h"
#include "zast/printer.h"
#include "zexec/faultpoint.h"
#include "zexec/threaded.h"
#include "zir/compiler.h"
#include "zserve/server.h"
#include "wifi/native_blocks.h"
#include "zparse/parser.h"

using namespace ziria;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitInternal = 1;
constexpr int kExitUserError = 2;
constexpr int kExitStageFailure = 3;
constexpr int kExitStallTimeout = 4;
constexpr int kExitRetriesExhausted = 5;

int
usage()
{
    std::fprintf(stderr,
                 "usage: zirrun FILE.zir [--opt none|vect|all] "
                 "[--backend vm|fused|native]\n"
                 "              [--cgen-cache-dir DIR]\n"
                 "              [--dump] [--bytes N]\n"
                 "              [--profile[=FILE]] [--trace-passes[=N]]\n"
                 "              [--latency-budget-us N] "
                 "[--trace-timeline FILE]\n"
                 "              [--span-frame N]\n"
                 "              [--deadline-ms N] [--inject-fault SPEC]\n"
                 "              [--restart N] [--backoff-ms M] "
                 "[--serve[=ELEMS]]\n"
                 "              [--checkpoint[=ELEMS]] "
                 "[--restart-scope pipeline|stage]\n"
                 "              [--listen[=PORT]] [--max-sessions N] "
                 "[--workers K]\n"
                 "              [--idle-timeout-ms N] "
                 "[--metrics-interval-ms N]\n"
                 "              [--metrics-out FILE] [--fault-session I]\n"
                 "              [--ckpt-dir DIR] [--ckpt-interval-ms N] "
                 "[--out FILE]\n"
                 "  SPEC: truncate@K | throw@K[:N] | stall@K:MS[:N] | "
                 "shortread@K:SEED\n"
                 "exit codes: 0 ok, 2 user error, 3 stage failure, "
                 "4 stall timeout,\n"
                 "            5 retries exhausted\n");
    return kExitUserError;
}

std::atomic<bool> g_stopRequested{false};
std::atomic<bool> g_drainRequested{false};

void
onStopSignal(int)
{
    g_stopRequested.store(true);
}

/** SIGTERM in --listen mode: graceful drain, not an abrupt stop. */
void
onDrainSignal(int)
{
    g_drainRequested.store(true);
}

/** Parse a positive integer CLI value; returns false on junk. */
bool
parsePositive(const char* s, long& out)
{
    char* end = nullptr;
    long v = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || v <= 0)
        return false;
    out = v;
    return true;
}

/**
 * Owns the optional timeline recorder; written (temp file + rename) and
 * uninstalled on every exit path, success or failure — a trace of the
 * run that failed is the one most worth keeping.
 */
struct TimelineGuard
{
    std::string path;
    std::unique_ptr<timeline::Recorder> rec;

    void
    install(const std::string& p)
    {
        path = p;
        rec = std::make_unique<timeline::Recorder>();
        timeline::setActive(rec.get());
    }

    ~TimelineGuard()
    {
        if (!rec)
            return;
        timeline::setActive(nullptr);
        if (rec->writeFile(path))
            std::printf("timeline written to %s (%zu event(s)%s)\n",
                        path.c_str(), rec->eventCount(),
                        rec->dropped() ? ", some dropped" : "");
        else
            std::fprintf(stderr, "cannot write timeline %s\n",
                         path.c_str());
    }
};

/** Streams output elements straight to a stdio file (`--out FILE`). */
class FileSink : public OutputSink
{
  public:
    FileSink(std::FILE* f, size_t elem_width) : f_(f), w_(elem_width) {}

    void
    put(const uint8_t* elem) override
    {
        std::fwrite(elem, 1, w_, f_);
    }

  private:
    std::FILE* f_;
    size_t w_;
};

/**
 * Durable checkpoint key for a solo run: program basename + backend,
 * squashed to the store's key alphabet.  Deterministic, so a relaunch
 * of the same command line finds its predecessor's state.
 */
std::string
soloCkptKey(const std::string& path, const char* backendName)
{
    std::string base = path;
    size_t slash = base.find_last_of('/');
    if (slash != std::string::npos)
        base = base.substr(slash + 1);
    std::string key = "solo-" + base + "-" + backendName;
    for (char& c : key)
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
            c != '_' && c != '.')
            c = '_';
    if (key.size() > 64)
        key.resize(64);
    return key;
}

/** Compose the --profile JSON document. */
std::string
profileJson(const std::string& program, const char* optName,
            const char* backendName, const CompileReport& rep,
            const RunStats& st)
{
    metrics::JsonWriter w;
    w.beginObject();
    w.field("program", program);
    w.field("opt", optName);
    w.field("backend", backendName);
    w.beginObject("compile");
    rep.writeJson(w);
    w.endObject();
    w.beginObject("run");
    w.field("consumed", st.consumed);
    w.field("emitted", st.emitted);
    w.field("halted", st.halted);
    if (st.metrics)
        st.metrics->writeJson(w);
    w.endObject();  // run
    w.endObject();  // root
    // The registry document is itself a JSON object; splice it in as
    // the root's final member.
    std::string doc = w.str();
    doc.pop_back();  // strip the root's closing '}'
    doc += ",\"registry\":";
    doc += metrics::toJson(metrics::Registry::global());
    doc += "}";
    return doc;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage();
    std::string path = argv[1];
    OptLevel level = OptLevel::All;
    const char* optName = "all";
    Backend backend = Backend::Vm;
    const char* backendName = "vm";
    bool dump = false;
    bool profile = false;
    std::string profilePath;
    int tracePasses = -1;  // -1 = off
    size_t nbytes = 64;
    double deadlineMs = 0;
    std::string faultStr;
    uint32_t restartN = 0;
    double backoffMs = -1;  // -1 = keep the policy default
    uint64_t checkpointElems = 0;  // --checkpoint (0 = off)
    bool stageScope = false;       // --restart-scope stage
    bool serve = false;
    uint64_t serveElems = 0;  // 0 = indefinitely
    bool listen = false;
    long listenPort = 0;
    long maxSessions = 64;
    long serveWorkers = 2;
    double idleTimeoutMs = 0;
    double metricsIntervalMs = 0;
    std::string metricsOut;
    long faultSession = -1;
    long budgetUs = 0;        // --latency-budget-us (0 = no SLO)
    std::string timelinePath; // --trace-timeline (empty = off)
    long spanFrame = 256;     // --span-frame
    std::string ckptDir;      // --ckpt-dir (empty = no durable store)
    std::string cgenCacheDir; // --cgen-cache-dir (empty = default cache)
    double ckptIntervalMs = 200;  // --ckpt-interval-ms (listen mode)
    std::string outPath;      // --out (solo output byte stream)
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--dump") {
            dump = true;
        } else if (a == "--opt" && i + 1 < argc) {
            std::string v = argv[++i];
            if (v == "none") {
                level = OptLevel::None;
            } else if (v == "vect") {
                level = OptLevel::Vectorize;
            } else if (v == "all") {
                level = OptLevel::All;
            } else {
                std::fprintf(stderr,
                             "zirrun: invalid --opt value '%s' "
                             "(expected none|vect|all)\n", v.c_str());
                return kExitUserError;
            }
            optName = v == "none" ? "none" : (v == "vect" ? "vect" : "all");
        } else if ((a == "--backend" && i + 1 < argc) ||
                   a.rfind("--backend=", 0) == 0) {
            std::string v = a.rfind("--backend=", 0) == 0
                                ? a.substr(strlen("--backend="))
                                : argv[++i];
            if (v == "vm") {
                backend = Backend::Vm;
            } else if (v == "fused") {
                backend = Backend::Fused;
            } else if (v == "native") {
                backend = Backend::Native;
            } else {
                std::fprintf(stderr,
                             "zirrun: invalid --backend value '%s' "
                             "(expected vm|fused|native)\n", v.c_str());
                return kExitUserError;
            }
            backendName = v == "vm" ? "vm"
                                    : (v == "fused" ? "fused" : "native");
        } else if (a == "--bytes" && i + 1 < argc) {
            const char* s = argv[++i];
            char* end = nullptr;
            long v = std::strtol(s, &end, 10);
            if (end == s || *end != '\0' || v <= 0) {
                std::fprintf(stderr,
                             "zirrun: invalid --bytes value '%s' "
                             "(expected a positive integer)\n", s);
                return kExitUserError;
            }
            nbytes = static_cast<size_t>(v);
        } else if (a == "--deadline-ms" && i + 1 < argc) {
            const char* s = argv[++i];
            char* end = nullptr;
            double v = std::strtod(s, &end);
            if (end == s || *end != '\0' || v <= 0) {
                std::fprintf(stderr,
                             "zirrun: invalid --deadline-ms value '%s' "
                             "(expected a positive number)\n", s);
                return kExitUserError;
            }
            deadlineMs = v;
        } else if (a == "--inject-fault" && i + 1 < argc) {
            faultStr = argv[++i];
        } else if (a == "--restart" || a.rfind("--restart=", 0) == 0) {
            const char* s = nullptr;
            if (a.rfind("--restart=", 0) == 0)
                s = a.c_str() + strlen("--restart=");
            else if (i + 1 < argc)
                s = argv[++i];
            char* end = nullptr;
            long v = s ? std::strtol(s, &end, 10) : 0;
            if (!s || end == s || *end != '\0' || v < 0) {
                std::fprintf(stderr,
                             "zirrun: invalid --restart value '%s' "
                             "(expected a non-negative integer)\n",
                             s ? s : "");
                return kExitUserError;
            }
            restartN = static_cast<uint32_t>(v);
        } else if (a == "--backoff-ms" ||
                   a.rfind("--backoff-ms=", 0) == 0) {
            const char* s = nullptr;
            if (a.rfind("--backoff-ms=", 0) == 0)
                s = a.c_str() + strlen("--backoff-ms=");
            else if (i + 1 < argc)
                s = argv[++i];
            char* end = nullptr;
            double v = s ? std::strtod(s, &end) : -1;
            if (!s || end == s || *end != '\0' || v < 0) {
                std::fprintf(stderr,
                             "zirrun: invalid --backoff-ms value '%s' "
                             "(expected a non-negative number)\n",
                             s ? s : "");
                return kExitUserError;
            }
            backoffMs = v;
        } else if (a == "--checkpoint" ||
                   a.rfind("--checkpoint=", 0) == 0) {
            checkpointElems = 4096;  // bare flag: a sensible cadence
            if (a.rfind("--checkpoint=", 0) == 0) {
                const char* s = a.c_str() + strlen("--checkpoint=");
                char* end = nullptr;
                unsigned long long v = std::strtoull(s, &end, 10);
                if (end == s || *end != '\0' || v == 0) {
                    std::fprintf(stderr,
                                 "zirrun: invalid --checkpoint value "
                                 "'%s' (expected a positive element "
                                 "count)\n", s);
                    return kExitUserError;
                }
                checkpointElems = v;
            }
        } else if ((a == "--restart-scope" && i + 1 < argc) ||
                   a.rfind("--restart-scope=", 0) == 0) {
            std::string v = a.rfind("--restart-scope=", 0) == 0
                                ? a.substr(strlen("--restart-scope="))
                                : argv[++i];
            if (v == "stage") {
                stageScope = true;
            } else if (v == "pipeline") {
                stageScope = false;
            } else {
                std::fprintf(stderr,
                             "zirrun: invalid --restart-scope value "
                             "'%s' (expected pipeline|stage)\n",
                             v.c_str());
                return kExitUserError;
            }
        } else if (a == "--serve" || a.rfind("--serve=", 0) == 0) {
            serve = true;
            if (a.size() > strlen("--serve=")) {
                const char* s = a.c_str() + strlen("--serve=");
                char* end = nullptr;
                unsigned long long v = std::strtoull(s, &end, 10);
                if (end == s || *end != '\0' || v == 0) {
                    std::fprintf(stderr,
                                 "zirrun: invalid --serve value '%s' "
                                 "(expected a positive element count)\n",
                                 s);
                    return kExitUserError;
                }
                serveElems = v;
            }
        } else if (a == "--listen" || a.rfind("--listen=", 0) == 0) {
            listen = true;
            if (a.size() > strlen("--listen=")) {
                const char* s = a.c_str() + strlen("--listen=");
                long v = 0;
                // Port 0 = kernel-assigned (the bound port is printed).
                if (!(std::strcmp(s, "0") == 0 ||
                      (parsePositive(s, v) && v <= 65535))) {
                    std::fprintf(stderr,
                                 "zirrun: invalid --listen port '%s'\n",
                                 s);
                    return kExitUserError;
                }
                listenPort = v;
            }
        } else if (a == "--max-sessions" && i + 1 < argc) {
            if (!parsePositive(argv[++i], maxSessions)) {
                std::fprintf(stderr,
                             "zirrun: invalid --max-sessions value "
                             "'%s'\n", argv[i]);
                return kExitUserError;
            }
        } else if (a == "--workers" && i + 1 < argc) {
            if (!parsePositive(argv[++i], serveWorkers)) {
                std::fprintf(stderr,
                             "zirrun: invalid --workers value '%s'\n",
                             argv[i]);
                return kExitUserError;
            }
        } else if (a == "--idle-timeout-ms" && i + 1 < argc) {
            long v = 0;
            if (!parsePositive(argv[++i], v)) {
                std::fprintf(stderr,
                             "zirrun: invalid --idle-timeout-ms value "
                             "'%s'\n", argv[i]);
                return kExitUserError;
            }
            idleTimeoutMs = static_cast<double>(v);
        } else if (a == "--metrics-interval-ms" && i + 1 < argc) {
            long v = 0;
            if (!parsePositive(argv[++i], v)) {
                std::fprintf(stderr,
                             "zirrun: invalid --metrics-interval-ms "
                             "value '%s'\n", argv[i]);
                return kExitUserError;
            }
            metricsIntervalMs = static_cast<double>(v);
        } else if (a == "--metrics-out" && i + 1 < argc) {
            metricsOut = argv[++i];
        } else if (a == "--fault-session" && i + 1 < argc) {
            const char* s = argv[++i];
            char* end = nullptr;
            long v = std::strtol(s, &end, 10);
            if (end == s || *end != '\0' || v < 0) {
                std::fprintf(stderr,
                             "zirrun: invalid --fault-session value "
                             "'%s'\n", s);
                return kExitUserError;
            }
            faultSession = v;
        } else if (a == "--latency-budget-us" && i + 1 < argc) {
            if (!parsePositive(argv[++i], budgetUs)) {
                std::fprintf(stderr,
                             "zirrun: invalid --latency-budget-us value "
                             "'%s'\n", argv[i]);
                return kExitUserError;
            }
        } else if (a == "--span-frame" && i + 1 < argc) {
            if (!parsePositive(argv[++i], spanFrame)) {
                std::fprintf(stderr,
                             "zirrun: invalid --span-frame value '%s'\n",
                             argv[i]);
                return kExitUserError;
            }
        } else if (a == "--cgen-cache-dir" && i + 1 < argc) {
            cgenCacheDir = argv[++i];
        } else if (a.rfind("--cgen-cache-dir=", 0) == 0) {
            cgenCacheDir = a.substr(strlen("--cgen-cache-dir="));
            if (cgenCacheDir.empty()) {
                std::fprintf(stderr, "zirrun: --cgen-cache-dir needs a "
                                     "directory\n");
                return kExitUserError;
            }
        } else if (a == "--ckpt-dir" && i + 1 < argc) {
            ckptDir = argv[++i];
        } else if (a.rfind("--ckpt-dir=", 0) == 0) {
            ckptDir = a.substr(strlen("--ckpt-dir="));
            if (ckptDir.empty()) {
                std::fprintf(stderr, "zirrun: --ckpt-dir needs a "
                                     "directory\n");
                return kExitUserError;
            }
        } else if (a == "--ckpt-interval-ms" && i + 1 < argc) {
            long v = 0;
            if (!parsePositive(argv[++i], v)) {
                std::fprintf(stderr,
                             "zirrun: invalid --ckpt-interval-ms value "
                             "'%s'\n", argv[i]);
                return kExitUserError;
            }
            ckptIntervalMs = static_cast<double>(v);
        } else if (a == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else if (a.rfind("--out=", 0) == 0) {
            outPath = a.substr(strlen("--out="));
            if (outPath.empty()) {
                std::fprintf(stderr, "zirrun: --out needs a file\n");
                return kExitUserError;
            }
        } else if (a == "--trace-timeline" && i + 1 < argc) {
            timelinePath = argv[++i];
        } else if (a.rfind("--trace-timeline=", 0) == 0) {
            timelinePath = a.substr(strlen("--trace-timeline="));
            if (timelinePath.empty()) {
                std::fprintf(stderr,
                             "zirrun: --trace-timeline needs a file\n");
                return kExitUserError;
            }
        } else if (a == "--profile" || a.rfind("--profile=", 0) == 0) {
            profile = true;
            if (a.size() > strlen("--profile="))
                profilePath = a.substr(strlen("--profile="));
        } else if (a == "--trace-passes" ||
                   a.rfind("--trace-passes=", 0) == 0) {
            tracePasses = 1;
            if (a.size() > strlen("--trace-passes="))
                tracePasses =
                    std::atoi(a.c_str() + strlen("--trace-passes="));
        } else {
            std::fprintf(stderr, "unknown option %s\n", a.c_str());
            return usage();
        }
    }

    if (listen && deadlineMs > 0) {
        std::fprintf(stderr,
                     "zirrun: --listen and --deadline-ms are mutually "
                     "exclusive (the server has its own scheduler)\n");
        return kExitUserError;
    }
    if (!ckptDir.empty() && deadlineMs > 0) {
        std::fprintf(stderr,
                     "zirrun: --ckpt-dir and --deadline-ms are mutually "
                     "exclusive (the threaded executor has no snapshot "
                     "contract to persist)\n");
        return kExitUserError;
    }
    if (!ckptDir.empty() && !listen && !faultStr.empty()) {
        std::fprintf(stderr,
                     "zirrun: --ckpt-dir cannot be combined with "
                     "--inject-fault in a solo run (fault-injector "
                     "state is not part of the checkpoint)\n");
        return kExitUserError;
    }
    if (!outPath.empty() && listen) {
        std::fprintf(stderr,
                     "zirrun: --out applies to solo runs only (server "
                     "output goes to each client)\n");
        return kExitUserError;
    }
    // A durable store without an explicit cadence gets a sensible one;
    // the cadence snapshot loop is what feeds the store.
    if (!ckptDir.empty() && checkpointElems == 0)
        checkpointElems = 4096;

    // Install the timeline recorder before anything that could emit an
    // event; the guard writes the file on every exit path.
    TimelineGuard tguard;
    if (!timelinePath.empty())
        tguard.install(timelinePath);
    const bool wantSpans =
        profile || budgetUs > 0 || !timelinePath.empty();

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return kExitUserError;
    }
    std::ostringstream ss;
    ss << in.rdbuf();

    // Front half: everything up to the run is a user error if it throws
    // (bad fault spec, parse error, type error).
    FaultSpec fault;
    std::unique_ptr<Pipeline> p;
    std::unique_ptr<ThreadedPipeline> tp;
    CompileReport rep;
    CompPtr program;
    const bool threaded = deadlineMs > 0;
    try {
        if (!faultStr.empty())
            fault = FaultSpec::parse(faultStr);
        wifi::registerWifiNatives();
        program = parseComp(ss.str());

        // Profiling always collects pass records (verbosity 0 unless
        // --trace-passes raises it).
        PassTracer tracer(tracePasses >= 0 ? tracePasses : 0);
        CompilerOptions copt = CompilerOptions::forLevel(level);
        if (tracePasses >= 0 || profile)
            copt.tracer = &tracer;
        copt.instrument = profile;
        copt.backend = backend;
        copt.stallDeadlineMs = deadlineMs;
        if (restartN > 0) {
            copt.restart.mode = RestartMode::OnFailure;
            copt.restart.maxRestarts = restartN;
            if (backoffMs >= 0)
                copt.restart.backoffInitialMs = backoffMs;
            if (stageScope)
                copt.restart.scope = RestartScope::Stage;
        }
        // Checkpointing only pays off under a restart policy (the
        // snapshot is consumed by the re-arm path), but setting it
        // unconditionally is harmless: the pipeline ignores it when no
        // restart ever fires.
        copt.checkpoint.interval = checkpointElems;
        copt.cgenCacheDir = cgenCacheDir;

        if (threaded)
            tp = compileThreadedPipeline(program, copt, &rep);
        else
            p = compilePipeline(program, copt, &rep);
        std::printf("signature: %s\n", rep.signature.show().c_str());
        std::printf("compiled in %.2f ms; %ld candidates, chose "
                    "%d-in/%d-out; %d LUTs (%zu KiB)\n",
                    rep.totalSec() * 1e3, rep.vect.generated,
                    rep.vect.chosenIn, rep.vect.chosenOut,
                    rep.build.lutsBuilt, rep.build.lutBytes / 1024);
        if (backend == Backend::Fused)
            std::printf("fused %d region(s) (%d op(s), %d channel(s))\n",
                        rep.fuse.nodesFused, rep.fuse.fusedOps,
                        rep.fuse.channels);
        if (backend == Backend::Native)
            std::printf("cgen %d region(s): %d native (%s, %.1f ms, "
                        "%d bridge(s)), %d fallback(s)\n",
                        rep.cgen.regions,
                        rep.cgen.regions - rep.cgen.fallbacks,
                        rep.cgen.cacheHits > 0 ? "cache hit"
                                               : "compiled",
                        rep.cgen.compileSec * 1e3,
                        rep.cgen.hostBridges, rep.cgen.fallbacks);
        if (dump) {
            CompPtr opt = optimizeComp(program,
                                       CompilerOptions::forLevel(level));
            std::printf("---- optimized AST ----\n%s\n",
                        showComp(opt).c_str());
        }
    } catch (const FatalError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return kExitUserError;
    }

    // Frame spans: stamp every --span-frame-th consumed element and
    // close the span when its expected output has been emitted.
    std::shared_ptr<SpanTracker> spans;
    uint64_t spanElems = static_cast<uint64_t>(spanFrame);
    if (wantSpans && !listen) {
        SpanConfig sc;
        // A finite run shorter than one frame would never complete a
        // span; shrink the frame to the run so it still measures.
        size_t w = threaded ? tp->inWidth() : p->inWidth();
        uint64_t elems = w ? nbytes / w : 0;
        if (!serve && elems > 0 && elems < spanElems)
            spanElems = elems;
        sc.frameElems = spanElems;
        sc.budgetNs = static_cast<uint64_t>(budgetUs) * 1000;
        spans = std::make_shared<SpanTracker>(sc);
        if (threaded)
            tp->setSpans(spans);
        else
            p->setSpans(spans);
    }

    // Serving mode: hand the compiled program to the multi-session
    // server and run until a stop signal.  Every accepted connection
    // gets a fresh pipeline instance from the factory below.
    if (listen) {
        try {
            serve::ServerConfig scfg;
            scfg.port = static_cast<uint16_t>(listenPort);
            scfg.workers = static_cast<int>(serveWorkers);
            scfg.maxSessions = static_cast<size_t>(maxSessions);
            scfg.idleTimeoutMs = idleTimeoutMs;
            scfg.metricsIntervalMs = metricsIntervalMs;
            scfg.metricsPath = metricsOut;
            scfg.ckptDir = ckptDir;
            scfg.ckptIntervalMs = ckptIntervalMs;
            scfg.fault = fault;
            scfg.faultSession = faultSession;
            // Every session tracks its own frame spans; results merge
            // into server.latency.* on close and are sampled live by a
            // client's Stat frame.
            scfg.session.trackLatency = true;
            scfg.session.span.frameElems =
                static_cast<uint64_t>(spanFrame);
            scfg.session.span.budgetNs =
                static_cast<uint64_t>(budgetUs) * 1000;
            if (restartN > 0) {
                scfg.session.restart.mode = RestartMode::OnFailure;
                scfg.session.restart.maxRestarts = restartN;
                if (backoffMs >= 0)
                    scfg.session.restart.backoffInitialMs = backoffMs;
            }
            // Factory options: same opt level, no tracer/instrumentation
            // (those belong to the one-shot profiling path).
            CompilerOptions fcopt = CompilerOptions::forLevel(level);
            fcopt.backend = backend;
            fcopt.cgenCacheDir = cgenCacheDir;
            // Warm the program cache: the factory runs on the server's
            // I/O thread, and every session, the first included, should
            // find the optimized program and its LUTs already built.
            compilePipeline(program, fcopt, nullptr);
            serve::Server server(
                [program, fcopt](uint64_t) {
                    return compilePipeline(program, fcopt, nullptr);
                },
                scfg);
            // SIGINT stops hard; SIGTERM drains: in-flight sessions
            // finish or are checkpointed onto the wire before exit
            // (docs/ROBUSTNESS.md, "Checkpointing & migration").
            std::signal(SIGINT, onStopSignal);
            std::signal(SIGTERM, onDrainSignal);
            server.start();
            if (fault.enabled())
                std::printf("injecting fault: %s (session %s)\n",
                            fault.show().c_str(),
                            faultSession < 0
                                ? "all"
                                : std::to_string(faultSession).c_str());
            std::printf("listening on port %u\n",
                        static_cast<unsigned>(server.port()));
            std::fflush(stdout);
            while (!g_stopRequested.load() && !g_drainRequested.load())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
            if (g_drainRequested.load() && !g_stopRequested.load()) {
                std::printf("draining: finishing in-flight sessions, "
                            "checkpointing the rest\n");
                std::fflush(stdout);
                server.drainStop();
            } else {
                server.stop();
            }
            serve::Server::Counters c = server.counters();
            std::printf("server stopped: accepted %llu, completed %llu, "
                        "evicted %llu, rejected %llu\n",
                        static_cast<unsigned long long>(c.accepted),
                        static_cast<unsigned long long>(c.completed),
                        static_cast<unsigned long long>(c.evicted),
                        static_cast<unsigned long long>(c.rejected));
            return kExitOk;
        } catch (const FatalError& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return kExitUserError;
        }
    }

    // Back half: run-time failures get their own exit codes so scripted
    // fault matrices (scripts/soak.sh) can tell outcomes apart.
    try {
        const size_t inW = threaded ? tp->inWidth() : p->inWidth();
        const size_t outW = threaded ? tp->outWidth() : p->outWidth();

        // Durable checkpointing: attach the store and restore the
        // newest valid generation (if any) before the source and output
        // file are built — the resumed counters shape both.
        std::unique_ptr<CkptStore> store;
        std::FILE* outFile = nullptr;
        uint64_t resumedConsumed = 0, resumedEmitted = 0;
        bool resumed = false;
        if (!ckptDir.empty()) {
            store = std::make_unique<CkptStore>(ckptDir);
            p->setDurable(store.get(),
                          soloCkptKey(path, backendName),
                          [&outFile](std::string*) {
                              // On-disk output must always cover the
                              // persisted emitted count: flush before
                              // every save (kernel buffers survive a
                              // kill -9 of this process).
                              return !outFile ||
                                     std::fflush(outFile) == 0;
                          });
            resumed = p->restoreDurable(resumedConsumed, resumedEmitted);
            if (resumed)
                std::printf(
                    "resumed from durable checkpoint: consumed %llu, "
                    "emitted %llu\n",
                    static_cast<unsigned long long>(resumedConsumed),
                    static_cast<unsigned long long>(resumedEmitted));
        }
        if (!outPath.empty()) {
            outFile = std::fopen(outPath.c_str(), resumed ? "r+b" : "wb");
            if (!outFile) {
                std::fprintf(stderr, "cannot open %s%s\n",
                             outPath.c_str(),
                             resumed ? " (required to resume)" : "");
                return kExitUserError;
            }
            if (resumed) {
                // Drop output past the restored emitted count: bytes
                // written after the last persisted checkpoint are
                // regenerated deterministically by the resumed run.
                if (ftruncate(fileno(outFile),
                              static_cast<off_t>(resumedEmitted *
                                                 outW)) != 0 ||
                    std::fseek(outFile, 0, SEEK_END) != 0) {
                    std::fprintf(stderr, "cannot truncate %s\n",
                                 outPath.c_str());
                    std::fclose(outFile);
                    return kExitUserError;
                }
            }
        }

        // Feed deterministic input bytes (bit-typed streams get 0/1).
        Rng rng(1);
        std::vector<uint8_t> input(nbytes);
        bool bitStream = inW == 1;
        for (auto& b : input) {
            b = bitStream ? rng.bit() : static_cast<uint8_t>(rng.next());
        }
        // --serve swaps the finite buffer for a cyclic source: the same
        // bytes loop for ELEMS elements (default: indefinitely), the
        // long-running radio-loop shape the restart policy exists for.
        if (serve && input.size() < inW)
            input.resize(inW);  // at least one whole element to cycle
        MemSource mem(input, inW);
        std::unique_ptr<CyclicSource> cyc;
        if (serve)
            cyc = std::make_unique<CyclicSource>(
                input, inW, serveElems ? serveElems : UINT64_MAX);
        InputSource& plain = serve ? static_cast<InputSource&>(*cyc)
                                   : mem;
        FaultySource faulty(plain, fault);
        InputSource& src = fault.enabled()
                               ? static_cast<InputSource&>(faulty)
                               : plain;
        if (serve)
            std::printf("serving %s element(s) from a cyclic source\n",
                        serveElems
                            ? std::to_string(serveElems).c_str()
                            : "unlimited");
        if (fault.enabled())
            std::printf("injecting fault: %s\n", fault.show().c_str());

        // A resumed run re-reads the deterministic input stream from
        // the top; skip what the restored pipeline already consumed.
        for (uint64_t i = 0; i < resumedConsumed; ++i)
            if (!src.next())
                break;

        VecSink vsink(outW);
        std::unique_ptr<FileSink> fsink;
        OutputSink* sink = &vsink;
        if (outFile) {
            fsink = std::make_unique<FileSink>(outFile, outW);
            sink = fsink.get();
        }
        RunStats st = threaded ? tp->run(src, *sink) : p->run(src, *sink);
        if (outFile) {
            std::fclose(outFile);
            outFile = nullptr;
        }
        const auto& out = vsink.data();
        std::printf("consumed %llu element(s), emitted %llu",
                    static_cast<unsigned long long>(st.consumed),
                    static_cast<unsigned long long>(st.emitted));
        if (fsink) {
            std::printf("; output in %s\n", outPath.c_str());
        } else {
            std::printf("; first bytes:");
            for (size_t i = 0; i < std::min<size_t>(out.size(), 24); ++i)
                std::printf(" %02x", out[i]);
            std::printf("%s\n", out.size() > 24 ? " ..." : "");
        }
        if (st.halted)
            std::printf("pipeline halted with a control value (%zu "
                        "bytes)\n", st.ctrl.size());

        if (spans) {
            SpanTracker::Snapshot snap = spans->snapshot();
            spans->mergeInto(metrics::Registry::global(), "latency");
            if (snap.completed > 0) {
                const metrics::Histogram& h = snap.latencyNs;
                std::printf(
                    "latency: %llu frame(s) of %llu element(s): "
                    "p50 %.1f us, p90 %.1f us, p99 %.1f us, "
                    "p999 %.1f us\n",
                    static_cast<unsigned long long>(snap.completed),
                    static_cast<unsigned long long>(spanElems),
                    h.percentile(0.50) / 1e3,
                    h.percentile(0.90) / 1e3, h.percentile(0.99) / 1e3,
                    h.percentile(0.999) / 1e3);
            }
            if (budgetUs > 0)
                std::printf(
                    "latency budget %ld us: met %llu, missed %llu\n",
                    budgetUs,
                    static_cast<unsigned long long>(snap.budgetMet),
                    static_cast<unsigned long long>(snap.budgetMissed));
        }

        if (profile) {
            std::string doc =
                profileJson(path, optName, backendName, rep, st);
            if (profilePath.empty()) {
                std::printf("%s\n", doc.c_str());
            } else {
                std::FILE* f = std::fopen(profilePath.c_str(), "w");
                if (!f) {
                    std::fprintf(stderr, "cannot write %s\n",
                                 profilePath.c_str());
                    return kExitUserError;
                }
                std::fprintf(f, "%s\n", doc.c_str());
                std::fclose(f);
                std::printf("profile written to %s\n",
                            profilePath.c_str());
            }
        }
        return kExitOk;
    } catch (const StageFailureError& e) {
        const StageFailure& f = e.failure();
        std::fprintf(stderr, "stage failure: %s (stage %zu, %s, %s)\n",
                     f.message.c_str(), f.stage, f.path.c_str(),
                     failureCauseName(f.cause));
        if (f.restartsExhausted) {
            for (const auto& r : f.restarts)
                std::fprintf(stderr,
                             "  restart %u: stage %zu [%s] %s "
                             "(backoff %.0f ms)\n",
                             r.attempt, r.stage,
                             failureCauseName(r.cause),
                             r.message.c_str(), r.backoffMs);
            return kExitRetriesExhausted;
        }
        return f.cause == FailureCause::Stall ? kExitStallTimeout
                                              : kExitStageFailure;
    } catch (const FatalError& e) {
        std::fprintf(stderr, "runtime failure: %s\n", e.what());
        return kExitStageFailure;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "internal error: %s\n", e.what());
        return kExitInternal;
    }
}
