/**
 * @file
 * Shared pieces of the repo benchmark: the clock, sample statistics,
 * the in-memory span tracer, the result record and the workload entry
 * points.  Everything here sits outside the library: spans are taken
 * around calls into it, never inside it.
 */
#ifndef ZBENCH_COMMON_H
#define ZBENCH_COMMON_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace zbench {

/** Monotonic nanoseconds. */
int64_t nowNs();

/** CPU nanoseconds of the whole process (all threads).  Unlike wall
 *  time this excludes time the hypervisor gave our vCPUs to other
 *  tenants ("steal"). */
int64_t processCpuNs();

/** Share of all CPU time stolen by the hypervisor since construction. */
class StealMeter
{
  public:
    StealMeter();
    double percent() const;

  private:
    uint64_t steal0_, total0_;
};

/** Throw std::runtime_error(@p what) unless @p ok: a failed check stops
 *  the run loudly. */
void require(bool ok, const std::string& what);

/** Peak resident set of this process, in MB (VmHWM). */
double peakRssMb();

/**
 * Spreads a run's work over the host's CPUs.  The cores of a shared
 * host slow down independently (a busy neighbour costs memory-bound
 * code up to half its speed for seconds at a time), so rotating keeps
 * one core's bad spell from setting a run's numbers.  The destructor
 * restores the calling thread's original mask.
 */
class CpuRotation
{
  public:
    CpuRotation();
    ~CpuRotation();
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    /** Pin the calling thread to CPU @p i of the allowed set (mod). */
    void pin(size_t i);

    /** Give every thread of the process its own CPU, the assignment
     *  shifted by @p i (for a multi-threaded run with one thread per
     *  CPU, such as the in-process server). */
    void pinAllThreads(size_t i);

  private:
    std::vector<int> cpus_;
    std::vector<unsigned char> saved_;  ///< original cpu_set_t bytes
};

/**
 * Host speed gauge.  Other tenants of a shared host slow this VM's
 * vCPUs by up to ~40 % for spells from tens of milliseconds to minutes
 * (busy SMT siblings, shared caches), in CPU time as much as in wall
 * time, so neither clock removes it.  The gauge times a fixed kernel of
 * the benchmark's own (bit scrambling, shift-register coding and table
 * look-ups over 256 KiB, the kind of work the TX data path does) in
 * short slices interleaved with the measured work, on the same CPUs,
 * and reports how much slower than kRefSliceNs (the mean slice time on
 * the reference host, README.md) they ran.  The kernel reacts to host
 * load about twice as strongly as the program does (in log terms), so
 * workloads divide their times by the square root of that slowdown,
 * scale(), and multiply their rates by it.  The program under test
 * never runs the kernel, so a change to the program moves the scaled
 * metrics in full, while host load moves the gauge and the work
 * together.
 */
class HostGauge
{
  public:
    /** Mean slice time on the reference host (README.md, "Noise"). */
    static constexpr double kRefSliceNs = 160'000;

    /** @p clock times the slices: the clock the workload's own
     *  measurements use. */
    explicit HostGauge(int64_t (*clock)());

    /** Run and time @p slices slices. */
    void sample(int slices = 1);

    /** Mean slice time over kRefSliceNs (1 when nothing was sampled). */
    double slowdown() const;

    /** What times are divided by: the square root of slowdown(). */
    double scale() const;
    size_t samples() const { return n_; }

  private:
    int64_t (*clock_)();
    double totalNs_ = 0;
    size_t n_ = 0;
    uint32_t state_ = 1;
};

/** Linear-interpolated quantile (q in [0,1]) of unsorted samples. */
double quantile(std::vector<double> xs, double q);
double median(const std::vector<double>& xs);

/** Command-line settings shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;       ///< tiny inputs, one pass
    std::string cacheDir;     ///< benchmark-owned zcgen cache root
    std::string traceOut;     ///< span dump (traced runs)
};

/** One reported metric: value, unit and the samples behind it. */
struct Metric
{
    double value = 0;
    std::string unit;
    uint64_t samples = 0;
};

/** What a workload run hands back to main(). */
struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool selfCheckOk = true;  ///< the corrupted-reference probe was caught
    std::map<std::string, Metric> metrics;  ///< end-to-end (trace 0)
    std::map<std::string, Metric> layers;   ///< per-layer (trace 1)
    std::map<std::string, Metric> detail;   ///< printed, not gated
    std::map<std::string, std::string> info;  ///< fingerprint extras

    void
    set(std::map<std::string, Metric>& into, const std::string& name,
        double v, const std::string& unit, uint64_t n)
    {
        into[name] = Metric{v, unit, n};
    }
};

/**
 * In-memory spans: name, start, end, parent and request id.  Recording
 * is a no-op unless enabled; spans are written out once, at the end.
 * The parent is the innermost open span of the recording thread.
 */
class Tracer
{
  public:
    struct Span
    {
        int name = 0;
        int64_t start = 0;
        int64_t end = 0;
        int64_t parent = -1;
        int64_t req = -1;
    };

    static Tracer& get();

    void enable(bool on) { on_ = on; }
    bool on() const { return on_; }

    int64_t begin(const char* name, int64_t req);
    void end(int64_t id);

    /** Add a finished span whose times were stamped elsewhere (e.g. by
     *  a source or sink callback); no-op while disabled. */
    void record(const char* name, int64_t start, int64_t end,
                int64_t parent, int64_t req);

    /** Write every span plus per-name totals and self times as JSON. */
    bool write(const std::string& path) const;

  private:
    struct Agg
    {
        uint64_t n = 0;
        double totalMs = 0;
        double selfMs = 0;
    };
    std::map<std::string, Agg> aggregate() const;
    int nameId(const char* name);  ///< caller holds mu_

    bool on_ = false;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::vector<std::string> names_;
    std::map<std::string, int> nameIds_;
};

/** RAII span on the global tracer. */
class Scope
{
  public:
    Scope(const char* name, int64_t req = -1)
        : id_(Tracer::get().on() ? Tracer::get().begin(name, req) : -1)
    {
    }
    ~Scope()
    {
        if (id_ >= 0)
            Tracer::get().end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    int64_t id_;
};

/** Set the per-layer metrics a workload does not exercise to 0. */
void fillMissingLayers(Result& r);

/** Names of every per-layer metric, with their units, in print order. */
const std::vector<std::pair<std::string, std::string>>& layerNames();

// Workloads (phy.cc, serve.cc).
Result runPhyNative(const Options& o);
Result runServeMixed(const Options& o);

} // namespace zbench

#endif // ZBENCH_COMMON_H
