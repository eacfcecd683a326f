#include "common.h"

#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace zbench {

int64_t
nowNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

int64_t
processCpuNs()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

namespace {

/** {steal, total} ticks of all CPUs, from /proc/stat's "cpu" line. */
std::pair<uint64_t, uint64_t>
statTicks()
{
    std::ifstream in("/proc/stat");
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ss(line);
        std::string name;
        ss >> name;
        if (name != "cpu")
            continue;
        // user nice system idle iowait irq softirq steal ...
        uint64_t v, steal = 0, total = 0;
        for (int i = 0; ss >> v; ++i) {
            if (i == 7)
                steal = v;
            if (i < 8)
                total += v;
        }
        return {steal, total};
    }
    return {0, 0};
}

} // namespace

StealMeter::StealMeter()
{
    auto t = statTicks();
    steal0_ = t.first;
    total0_ = t.second;
}

double
StealMeter::percent() const
{
    auto t = statTicks();
    if (t.second <= total0_)
        return 0;
    return 100.0 * static_cast<double>(t.first - steal0_) /
           static_cast<double>(t.second - total0_);
}

void
require(bool ok, const std::string& what)
{
    if (!ok)
        throw std::runtime_error(what);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream ss(line.substr(6));
            double kb = 0;
            ss >> kb;
            return kb / 1024.0;
        }
    }
    return 0;
}

CpuRotation::CpuRotation()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return;
    saved_.resize(sizeof set);
    std::memcpy(saved_.data(), &set, sizeof set);
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            cpus_.push_back(c);
}

CpuRotation::~CpuRotation()
{
    if (saved_.empty())
        return;
    cpu_set_t set;
    std::memcpy(&set, saved_.data(), sizeof set);
    sched_setaffinity(0, sizeof set, &set);
}

void
CpuRotation::pin(size_t i)
{
    if (cpus_.size() < 2)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[i % cpus_.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
}

void
CpuRotation::pinAllThreads(size_t i)
{
    if (cpus_.size() < 2)
        return;
    std::vector<int> tids;
    if (DIR* d = opendir("/proc/self/task")) {
        while (dirent* e = readdir(d))
            if (e->d_name[0] != '.')
                tids.push_back(std::atoi(e->d_name));
        closedir(d);
    }
    std::sort(tids.begin(), tids.end());
    for (size_t j = 0; j < tids.size(); ++j) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus_[(i + j) % cpus_.size()], &set);
        sched_setaffinity(tids[j], sizeof set, &set);
    }
}

namespace {

/** The gauge's look-up table: 128 Ki 16-bit entries (256 KiB). */
const std::vector<uint16_t>&
gaugeTable()
{
    static const std::vector<uint16_t> tab = [] {
        std::vector<uint16_t> v(1u << 17);
        for (size_t i = 0; i < v.size(); ++i)
            v[i] = static_cast<uint16_t>(i * 40503u ^ (i >> 7));
        return v;
    }();
    return tab;
}

constexpr int kGaugeSteps = 25'000;  ///< steps per slice

} // namespace

HostGauge::HostGauge(int64_t (*clock)()) : clock_(clock)
{
    gaugeTable();
}

void
HostGauge::sample(int slices)
{
    const auto& tab = gaugeTable();
    const uint32_t mask = static_cast<uint32_t>(tab.size() - 1);
    for (int s = 0; s < slices; ++s) {
        const int64_t t0 = clock_();
        // A 7-bit scrambler feeding a rate-1/2 K=7 shift register, plus
        // one wide and one narrow table look-up per step.
        uint32_t sc = 0x5D, reg = 0, acc = 0, h = state_;
        for (int i = 0; i < kGaugeSteps; ++i) {
            uint32_t fb = ((sc >> 6) ^ (sc >> 3)) & 1u;
            sc = ((sc << 1) | fb) & 0x7Fu;
            h = h * 1664525u + 1013904223u;
            reg = ((reg << 1) | (((h >> 17) & 1u) ^ fb)) & 0x7Fu;
            acc += static_cast<uint32_t>(__builtin_popcount(reg & 0x5Bu) &
                                         1u)
                   << (i & 15);
            acc += tab[(h >> 7) & mask];
            acc ^= tab[(acc + reg) & 1023u];
        }
        state_ = h ^ acc;  // keeps the loop from being optimized away
        totalNs_ += static_cast<double>(clock_() - t0);
        ++n_;
    }
}

double
HostGauge::slowdown() const
{
    return n_ ? totalNs_ / static_cast<double>(n_) / kRefSliceNs : 1.0;
}

double
HostGauge::scale() const
{
    return std::sqrt(slowdown());
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    double pos = q * static_cast<double>(xs.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double
median(const std::vector<double>& xs)
{
    return quantile(xs, 0.5);
}

// ---------------------------------------------------------------- spans

Tracer&
Tracer::get()
{
    static Tracer t;
    return t;
}

namespace {
thread_local int64_t tlsOpen = -1;
} // namespace

int
Tracer::nameId(const char* name)
{
    auto it = nameIds_.find(name);
    if (it != nameIds_.end())
        return it->second;
    int nid = static_cast<int>(names_.size());
    names_.push_back(name);
    nameIds_.emplace(name, nid);
    return nid;
}

int64_t
Tracer::begin(const char* name, int64_t req)
{
    int64_t start = nowNs();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(Span{nameId(name), start, 0, tlsOpen, req});
    int64_t id = static_cast<int64_t>(spans_.size() - 1);
    tlsOpen = id;
    return id;
}

void
Tracer::end(int64_t id)
{
    int64_t stop = nowNs();
    std::lock_guard<std::mutex> lk(mu_);
    Span& s = spans_[static_cast<size_t>(id)];
    s.end = stop;
    tlsOpen = s.parent;
}

void
Tracer::record(const char* name, int64_t start, int64_t end, int64_t parent,
               int64_t req)
{
    if (!on_)
        return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(Span{nameId(name), start, end, parent, req});
}

std::map<std::string, Tracer::Agg>
Tracer::aggregate() const
{
    std::lock_guard<std::mutex> lk(mu_);
    // Self time = duration minus the part of the span its children
    // cover (children may overlap each other, e.g. concurrent frames).
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
    for (const Span& s : spans_)
        if (s.parent >= 0)
            kids[static_cast<size_t>(s.parent)].push_back({s.start, s.end});
    std::map<std::string, Agg> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, from = s.start;
        for (auto [a, b] : iv) {
            a = std::max(a, from);
            b = std::min(b, s.end);
            if (b > a) {
                covered += b - a;
                from = b;
            }
        }
        Agg& agg = out[names_[static_cast<size_t>(s.name)]];
        agg.n += 1;
        agg.totalMs += static_cast<double>(s.end - s.start) / 1e6;
        agg.selfMs += static_cast<double>(s.end - s.start - covered) / 1e6;
    }
    return out;
}

bool
Tracer::write(const std::string& path) const
{
    auto agg = aggregate();
    std::ofstream out(path);
    if (!out)
        return false;
    std::lock_guard<std::mutex> lk(mu_);
    out << "{\"names\":[";
    for (size_t i = 0; i < names_.size(); ++i)
        out << (i ? "," : "") << '"' << names_[i] << '"';
    out << "],\n\"spans\":[";
    // One row per span: [name, start_ns, end_ns, parent, request id].
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << (i ? ",\n" : "") << '[' << s.name << ',' << s.start << ','
            << s.end << ',' << s.parent << ',' << s.req << ']';
    }
    out << "],\n\"by_name\":{";
    bool first = true;
    for (const auto& [name, a] : agg) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "\"count\":%llu,\"total_ms\":%.6f,\"self_ms\":%.6f",
                      static_cast<unsigned long long>(a.n), a.totalMs,
                      a.selfMs);
        out << (first ? "" : ",\n") << '"' << name << "\":{" << buf << '}';
        first = false;
    }
    out << "}}\n";
    return static_cast<bool>(out);
}

// ------------------------------------------------------------ layer names

const std::vector<std::pair<std::string, std::string>>&
layerNames()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"zir.compile_ms", "ms"},
        {"zopt.passes_ms", "ms"},
        {"zexpr.build_ms", "ms"},
        {"zcgen.jit_cold_ms", "ms"},
        {"zcgen.jit_warm_ms", "ms"},
        {"compile.luts_built", "count"},
        {"compile.lut_bytes", "bytes"},
        {"cgen.regions", "count"},
        {"cgen.host_bridges", "count"},
        {"fuse.fallbacks", "count"},
        {"tx.block.scrambler_ns_per_bit", "ns/bit"},
        {"tx.block.encoder_ns_per_bit", "ns/bit"},
        {"tx.block.interleaver_ns_per_bit", "ns/bit"},
        {"tx.block.modulator_ns_per_bit", "ns/bit"},
        {"tx.block.ofdm_ns_per_bit", "ns/bit"},
        {"tx.machinery_ns_per_bit", "ns/bit"},
        {"rx.datapath_ns_per_sample", "ns/sample"},
        {"rx.sync_ns_per_sample", "ns/sample"},
        {"sora.tx_ns_per_bit", "ns/bit"},
        {"sora.rx_ns_per_sample", "ns/sample"},
        {"tx.vs_sora", "ratio"},
        {"rx.vs_sora", "ratio"},
        {"zexec.single_ms", "ms"},
        {"zexec.stage_max_ms", "ms"},
        {"zexec.threaded_ms", "ms"},
        {"zexec.handoff_ms", "ms"},
        {"zserve.admit_p50_ms", "ms"},
        {"zserve.admit_p99_ms", "ms"},
        {"zserve.solo_build_ms", "ms"},
        {"zserve.solo_run_ms", "ms"},
        {"zserve.drain_ms", "ms"},
        {"zserve.sched.parked_ns", "ns"},
        {"zserve.sched.queued_ns", "ns"},
        {"zserve.sched.running_ns", "ns"},
        {"zserve.wire_parse_ns_per_kib", "ns/KiB"},
        {"loadgen.late_p99_ms", "ms"},
        {"loadgen.cap_wait_ms", "ms"},
        {"trace.overhead_pct", "%"},
    };
    return names;
}

void
fillMissingLayers(Result& r)
{
    for (const auto& [name, unit] : layerNames())
        if (!r.layers.count(name))
            r.layers[name] = Metric{0.0, unit, 0};
}

} // namespace zbench
