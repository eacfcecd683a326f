/**
 * @file
 * phy_native: a seeded 802.11a/g packet train through the Ziria
 * transmitter and receiver on Backend::Native, OptLevel::All, one
 * thread.  TX runs each packet's DATA bits through wifiTxDataComp(rate);
 * RX runs AWGN captures of Sora-built frames through
 * wifiReceiverLoopComp().  The traced run adds the per-layer probes,
 * among them the paper's two-thread |>>>| split on Backend::Vm.
 *
 * References are independent of the code under test: TX output must
 * equal sora::txDataSamples byte for byte, RX output must equal the
 * generated payload plus an FCS computed here.
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <unistd.h>

#include "channel/channel.h"
#include "common.h"
#include "sora/sora.h"
#include "support/rng.h"
#include "wifi/native_blocks.h"
#include "wifi/rx.h"
#include "wifi/tx.h"
#include "zcgen/cgen.h"
#include "zir/compiler.h"

namespace zbench {

using namespace ziria;
using namespace ziria::wifi;

namespace {

/** A time source: wall (nowNs) or the process's CPU time. */
using Clock = int64_t (*)();

// ------------------------------------------------------------ references

/** IEEE 802.3 CRC-32 (the 802.11 FCS), bitwise, independent of dsp/. */
uint32_t
crc32(const uint8_t* p, size_t n)
{
    uint32_t c = 0xFFFFFFFFu;
    for (size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
    return ~c;
}

std::vector<uint8_t>
withFcs(const std::vector<uint8_t>& payload)
{
    std::vector<uint8_t> out = payload;
    uint32_t f = crc32(payload.data(), payload.size());
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(f >> (8 * i)));
    return out;
}

/** Pack one-byte-per-bit values LSB first (the 802.11 bit order). */
std::vector<uint8_t>
packBits(const uint8_t* bits, size_t nbits)
{
    std::vector<uint8_t> out(nbits / 8, 0);
    for (size_t i = 0; i < out.size() * 8; ++i)
        out[i / 8] |= static_cast<uint8_t>((bits[i] & 1u) << (i % 8));
    return out;
}

bool
sameBytes(const uint8_t* got, size_t gotLen, const uint8_t* want,
          size_t wantLen)
{
    return gotLen >= wantLen && std::memcmp(got, want, wantLen) == 0;
}

// ---------------------------------------------------------------- inputs

struct Packet
{
    Rate rate = Rate::R6;
    std::vector<uint8_t> psdu;      ///< payload + FCS
    std::vector<uint8_t> dataBits;  ///< SERVICE + PSDU + tail + pad
    std::vector<uint8_t> txIn;      ///< dataBits zero-padded for the TX
    std::vector<Complex16> txRef;   ///< sora::txDataSamples(dataBits)
    size_t capFirst = 0;            ///< first sample index in the capture
    size_t capLast = 0;             ///< last sample index in the capture
};

/**
 * A seeded packet train, in chunks of @p chunk packets (a multiple of
 * eight).  Every chunk carries the same grid of work: payload lengths
 * evenly spaced over [minLen, maxLen], and in each run of eight
 * consecutive lengths every rate once (the pairing shifts from chunk to
 * chunk).  The seed draws the payload bits and the order of the packets
 * within each chunk, so every seed carries the same mix of rates and
 * lengths while the bits, the order and the channel noise differ: a
 * seed cannot make a run lighter or heavier.
 */
std::vector<Packet>
makeTrain(uint64_t seed, int n, int chunk, int minLen, int maxLen)
{
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 11);
    std::vector<Packet> train(static_cast<size_t>(n));
    for (int c = 0; c * chunk < n; ++c) {
        std::vector<int> order(static_cast<size_t>(chunk));
        for (int j = 0; j < chunk; ++j)
            order[static_cast<size_t>(j)] = j;
        for (int j = chunk - 1; j > 0; --j)
            std::swap(order[static_cast<size_t>(j)],
                      order[rng.below(static_cast<uint64_t>(j) + 1)]);
        for (int k = 0; k < chunk && c * chunk + k < n; ++k) {
            const int j = order[static_cast<size_t>(k)];
            const int len =
                minLen + (chunk > 1 ? j * (maxLen - minLen) / (chunk - 1) : 0);
            const int rate = (j % numRates + c + 3 * (j / numRates)) % numRates;
            Packet& p = train[static_cast<size_t>(c * chunk + k)];
            p.rate = allRates()[static_cast<size_t>(rate)];
            std::vector<uint8_t> payload(static_cast<size_t>(len));
            for (auto& b : payload)
                b = static_cast<uint8_t>(rng.next());
            p.psdu = withFcs(payload);
            p.dataBits = assembleDataBits(payload, p.rate);
            p.txRef = sora::txDataSamples(p.dataBits, p.rate);
        }
    }
    return train;
}

std::vector<uint8_t>
payloadOf(const Packet& p)
{
    return std::vector<uint8_t>(p.psdu.begin(), p.psdu.end() - 4);
}

/** Zero-pad @p bits to whole input elements plus @p extra elements. */
std::vector<uint8_t>
padInput(const std::vector<uint8_t>& bits, size_t width, size_t extra)
{
    size_t w = std::max<size_t>(width, 1);
    size_t n = (bits.size() + w - 1) / w * w + extra * w;
    std::vector<uint8_t> out = bits;
    out.resize(n, 0);
    return out;
}

/**
 * TX input: the DATA bits plus zero symbols.  The optimized pipeline
 * emits in chunks larger than one OFDM symbol, so trailing zeros push
 * the last real samples out; measured runs stop at the reference
 * length (Pipeline::run's max_out) and the others compare the prefix.
 */
std::vector<uint8_t>
txInput(const Packet& p, size_t width)
{
    size_t w = std::max<size_t>(width, 1);
    size_t extra = (16 * static_cast<size_t>(rateInfo(p.rate).ndbps)) / w + 1;
    return padInput(p.dataBits, w, extra);
}

std::vector<uint8_t>
samplesToBytes(const std::vector<Complex16>& xs)
{
    std::vector<uint8_t> out(xs.size() * sizeof(Complex16));
    std::memcpy(out.data(), xs.data(), out.size());
    return out;
}

/**
 * RX DATA-path input: the symbol-aligned DATA samples plus zero
 * symbols.  The vectorized receiver takes samples in arrays; without
 * a tail, the last partial array (up to two symbols at R48) is never
 * decoded.
 */
std::vector<uint8_t>
rxInput(const std::vector<Complex16>& samples, size_t width)
{
    size_t w = std::max<size_t>(width, 1);
    size_t extra = (8 * symLen * sizeof(Complex16)) / w + 1;
    return padInput(samplesToBytes(samples), w, extra);
}

// ------------------------------------------------------- sources / sinks

/** Memory source that stamps the moment chosen elements are taken. */
class StampSource : public InputSource
{
  public:
    struct Event
    {
        size_t elem;
        int64_t* stamp;
    };

    StampSource(const std::vector<uint8_t>& buf, size_t width,
                std::vector<Event> events, Clock clock = nowNs)
        : buf_(buf), width_(width), events_(std::move(events)), clock_(clock)
    {
        std::sort(events_.begin(), events_.end(),
                  [](const Event& a, const Event& b) {
                      return a.elem < b.elem;
                  });
    }

    const uint8_t*
    next() override
    {
        if (pos_ + width_ > buf_.size())
            return nullptr;
        const uint8_t* p = buf_.data() + pos_;
        size_t idx = pos_ / width_;
        pos_ += width_;
        if (ev_ < events_.size() && events_[ev_].elem == idx) {
            int64_t t = clock_();
            while (ev_ < events_.size() && events_[ev_].elem == idx)
                *events_[ev_++].stamp = t;
        }
        return p;
    }

  private:
    const std::vector<uint8_t>& buf_;
    size_t width_;
    std::vector<Event> events_;
    Clock clock_;
    size_t ev_ = 0;
    size_t pos_ = 0;
};

/**
 * Collects output bytes into a caller-owned buffer (cleared, capacity
 * kept, so measured runs do not allocate) and stamps the moment the
 * running byte count first reaches each boundary.
 */
class StampSink : public OutputSink
{
  public:
    StampSink(std::vector<uint8_t>& buf, size_t width,
              std::vector<size_t> bounds = {},
              std::vector<int64_t>* stamps = nullptr, Clock clock = nowNs)
        : buf_(buf), width_(width), bounds_(std::move(bounds)),
          stamps_(stamps), clock_(clock)
    {
        buf_.clear();
    }

    void
    put(const uint8_t* elem) override
    {
        buf_.insert(buf_.end(), elem, elem + width_);
        if (next_ < bounds_.size() && buf_.size() >= bounds_[next_]) {
            int64_t t = clock_();
            while (next_ < bounds_.size() && buf_.size() >= bounds_[next_])
                (*stamps_)[next_++] = t;
        }
    }

    const std::vector<uint8_t>& data() const { return buf_; }

  private:
    std::vector<uint8_t>& buf_;
    size_t width_;
    std::vector<size_t> bounds_;
    std::vector<int64_t>* stamps_;
    Clock clock_;
    size_t next_ = 0;
};

/** Output buffers reused by every measured run. */
struct OutBufs
{
    std::vector<uint8_t> tx, rx;
};

// ------------------------------------------------------------- compiling

CompilerOptions
optionsFor(Backend backend, const std::string& cgenDir)
{
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::All);
    opt.backend = backend;
    opt.cgenCacheDir = cgenDir;
    return opt;
}

struct Totals
{
    int luts = 0;
    double lutBytes = 0;
    int regions = 0;
    int bridges = 0;
    int fuseFallbacks = 0;
    int cgenFallbacks = 0;

    void
    add(const CompileReport& r)
    {
        luts += r.build.lutsBuilt;
        lutBytes += static_cast<double>(r.build.lutBytes);
        regions += r.cgen.regions;
        bridges += r.cgen.hostBridges;
        fuseFallbacks += r.fuse.fallbacks;
        cgenFallbacks += r.cgen.fallbacks;
    }
};

std::unique_ptr<Pipeline>
compileOne(const CompPtr& c, const CompilerOptions& opt, Totals* t)
{
    Scope s("zir.compile");
    CompileReport rep;
    auto p = compilePipeline(c, opt, &rep);
    if (t)
        t->add(rep);
    return p;
}

/** Time one call, in ns of @p clock. */
template <typename F>
int64_t
timed(F&& f, Clock clock = nowNs)
{
    int64_t t0 = clock();
    f();
    return clock() - t0;
}

// ------------------------------------------------------- shared per-pass

struct PassStats
{
    std::vector<double> txMbps;  ///< per chunk
    std::vector<double> rxMsps;  ///< per chunk
    std::vector<double> pktUs;   ///< decode latency per packet
    std::vector<double> jobMs;   ///< receive time per packet
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double txSec = 0, rxSec = 0;
    uint64_t txBits = 0, rxSamples = 0;

    /** One chunk's rates from its bit/sample counts and run times. */
    void
    addChunk(uint64_t bits, int64_t txNs, uint64_t samples, int64_t rxNs)
    {
        txMbps.push_back(static_cast<double>(bits) * 1e3 /
                         static_cast<double>(txNs));
        rxMsps.push_back(static_cast<double>(samples) * 1e3 /
                         static_cast<double>(rxNs));
        txSec += static_cast<double>(txNs) / 1e9;
        rxSec += static_cast<double>(rxNs) / 1e9;
        txBits += bits;
        rxSamples += samples;
    }
};

/**
 * End-to-end metrics, scaled to the reference host by @p gauge (times
 * divided by its scale(), rates multiplied); the raw.* detail lines
 * keep the unscaled readings.  Rates are totals over the run, not
 * medians over chunks, so they mix slow and fast spells the way the
 * gauge's mean does.
 */
void
reportPhy(Result& r, const PassStats& ps, const std::vector<double>& setups,
          const HostGauge& gauge)
{
    const double scale = gauge.scale();
    uint64_t npass = ps.txMbps.size();
    double txMbps = static_cast<double>(ps.txBits) / ps.txSec / 1e6;
    double rxMsps = static_cast<double>(ps.rxSamples) / ps.rxSec / 1e6;
    double pkt50 = quantile(ps.pktUs, 0.5), pkt99 = quantile(ps.pktUs, 0.99);
    double job50 = quantile(ps.jobMs, 0.5), job90 = quantile(ps.jobMs, 0.9);
    r.set(r.metrics, "setup_s", median(setups) / scale, "s", setups.size());
    r.set(r.metrics, "tx_mbps", txMbps * scale, "Mbit/s", npass);
    r.set(r.metrics, "lat_p50_ms", pkt50 / 1e3 / scale, "ms",
          ps.pktUs.size());
    r.set(r.metrics, "lat_p99_ms", pkt99 / 1e3 / scale, "ms",
          ps.pktUs.size());
    r.set(r.metrics, "job_p50_ms", job50 / scale, "ms", ps.jobMs.size());
    r.set(r.metrics, "job_p90_ms", job90 / scale, "ms", ps.jobMs.size());

    r.set(r.detail, "host.slowdown", gauge.slowdown(), "ratio",
          gauge.samples());
    r.set(r.detail, "raw.setup_s", median(setups), "s", setups.size());
    r.set(r.detail, "raw.tx_mbps", txMbps, "Mbit/s", npass);
    r.set(r.detail, "rx_msps", rxMsps * scale, "Msample/s", npass);
    r.set(r.detail, "raw.rx_msps", rxMsps, "Msample/s", npass);
    r.set(r.detail, "pkt_p50_us", pkt50 / scale, "us", ps.pktUs.size());
    r.set(r.detail, "pkt_p99_us", pkt99 / scale, "us", ps.pktUs.size());
    r.set(r.detail, "raw.pkt_p50_us", pkt50, "us", ps.pktUs.size());
    r.set(r.detail, "raw.pkt_p99_us", pkt99, "us", ps.pktUs.size());
    r.set(r.detail, "rx_pkt_p50_ms", job50 / scale, "ms", ps.jobMs.size());
    r.set(r.detail, "rx_pkt_p99_ms", quantile(ps.jobMs, 0.99) / scale, "ms",
          ps.jobMs.size());
    r.set(r.detail, "fail_ratio",
          static_cast<double>(ps.failed) /
              static_cast<double>(std::max<uint64_t>(ps.attempted, 1)),
          "ratio", ps.attempted);
    r.attempted = ps.attempted;
    r.failed = ps.failed;
}

/**
 * Set-up times in seconds: @p reps calls of @p setup, each pinned to
 * the next CPU and timed in process CPU time.  With every thread of the
 * process on that one CPU, CPU time counts work moved to other threads
 * too, but not time the hypervisor gave the CPU to other tenants.  The
 * gauge samples each CPU after its set-up.
 */
template <typename F>
std::vector<double>
timeSetups(int reps, HostGauge& gauge, F&& setup)
{
    CpuRotation cpus;
    std::vector<double> out;
    for (int i = 0; i < reps; ++i) {
        cpus.pin(static_cast<size_t>(i));
        out.push_back(static_cast<double>(timed(setup, processCpuNs)) / 1e9);
        gauge.sample(16);
    }
    return out;
}

/** Chunk run times, split by whether the chunk was traced. */
struct ChunkTimes
{
    std::vector<double> traced, plain;
};

/**
 * Run @p runChunk(step, stats) -> seconds on rotating CPUs until the
 * time is up (one pass over @p chunks in smoke mode), gathering each
 * chunk's stats into @p ps.  A traced run alternates traced and
 * untraced chunks, so the tracing overhead is measured under the same
 * host conditions.
 */
template <typename F>
ChunkTimes
measureChunks(const Options& o, size_t chunks, PassStats& ps, F&& runChunk)
{
    ChunkTimes t;
    CpuRotation rotate;
    const int64_t deadline =
        nowNs() + static_cast<int64_t>(o.seconds * 1e9);
    size_t step = 0;
    do {
        rotate.pin(step);
        bool traced = o.trace && step % 2 == 0;
        Tracer::get().enable(traced);
        double sec = runChunk(step, ps);
        (traced ? t.traced : t.plain).push_back(sec);
        ++step;
    } while (o.smoke ? step < chunks : nowNs() < deadline);
    Tracer::get().enable(o.trace);
    return t;
}

void
reportOverhead(Result& r, const ChunkTimes& t)
{
    if (!t.traced.empty() && !t.plain.empty())
        r.set(r.layers, "trace.overhead_pct",
              100.0 * (median(t.traced) / median(t.plain) - 1.0), "%",
              t.traced.size() + t.plain.size());
}

// ================================================================ native

constexpr int kSetupReps = 5;  ///< set-ups per run (one CPU each)
constexpr int kGapSamples = 400;
constexpr size_t kNativeChunk = 24;  ///< packets per measured chunk

struct Capture
{
    std::vector<uint8_t> bytes;  ///< complex16 samples, padded
    size_t samples = 0;          ///< real (unpadded) sample count
};

/** The frames of packets [begin, end) separated by silence, through
 *  seeded AWGN; packet positions are recorded relative to it. */
Capture
makeCapture(std::vector<Packet>& train, size_t begin, size_t end,
            uint64_t seed, size_t inWidth)
{
    std::vector<Complex16> stream;
    for (size_t k = begin; k < end; ++k) {
        Packet& p = train[k];
        stream.insert(stream.end(), kGapSamples, Complex16{0, 0});
        auto frame = sora::txFrame(payloadOf(p), p.rate);
        p.capFirst = stream.size();
        stream.insert(stream.end(), frame.begin(), frame.end());
        p.capLast = stream.size() - 1;
    }
    stream.insert(stream.end(), kGapSamples, Complex16{0, 0});

    channel::ChannelConfig cfg;
    cfg.snrDb = 30.0;
    cfg.delaySamples = 200;
    cfg.seed = seed * 7919 + 3 + begin;
    auto rx = channel::applyChannel(stream, cfg);
    for (size_t k = begin; k < end; ++k) {
        train[k].capFirst += static_cast<size_t>(cfg.delaySamples);
        train[k].capLast += static_cast<size_t>(cfg.delaySamples);
    }
    Capture c;
    c.samples = rx.size();
    c.bytes = padInput(samplesToBytes(rx), inWidth, 1);
    return c;
}

struct NativeSet
{
    std::vector<std::unique_ptr<Pipeline>> tx;  ///< indexed by Rate
    std::unique_ptr<Pipeline> rx;
    Totals totals;
};

NativeSet
compileNativeSet(const CompilerOptions& opt)
{
    NativeSet s;
    for (Rate rate : allRates())
        s.tx.push_back(compileOne(wifiTxDataComp(rate), opt, &s.totals));
    s.rx = compileOne(wifiReceiverLoopComp(), opt, &s.totals);
    return s;
}

void
checkNative(const Totals& t, const char* what)
{
    require(t.cgenFallbacks == 0,
            std::string(what) + ": " + std::to_string(t.cgenFallbacks) +
                " region(s) fell back from native code (cgen.fallbacks > "
                "0); refusing to measure the interpreter instead");
    require(t.regions > 0,
            std::string(what) + ": no native regions were generated");
}

/** Receive one chunk's capture (packets [begin, end)); returns the run
 *  time in ns. */
int64_t
receiveChunk(Pipeline& rx, const Capture& cap,
             const std::vector<Packet>& train, size_t begin, size_t end,
             PassStats& ps, OutBufs& bufs, Clock clock)
{
    const size_t n = end - begin;
    const size_t w = rx.inWidth();
    std::vector<int64_t> first(n, 0), last(n, 0), done(n, 0);
    std::vector<StampSource::Event> ev;
    std::vector<size_t> bounds;
    size_t bits = 0;
    for (size_t k = 0; k < n; ++k) {
        const Packet& p = train[begin + k];
        ev.push_back({p.capFirst * sizeof(Complex16) / w, &first[k]});
        ev.push_back({p.capLast * sizeof(Complex16) / w, &last[k]});
        bits += 8 * p.psdu.size();
        bounds.push_back(bits);
    }
    StampSource src(cap.bytes, w, std::move(ev), clock);
    StampSink sink(bufs.rx, rx.outWidth(), bounds, &done, clock);
    int64_t ns;
    {
        Scope s("rx.run");
        ns = timed([&] { rx.run(src, sink); }, clock);
    }
    // Check every packet against its payload + FCS (untimed).
    const auto& out = sink.data();
    size_t off = 0;
    for (size_t k = 0; k < n; ++k) {
        const auto& want = train[begin + k].psdu;
        size_t nb = 8 * want.size();
        bool ok = off + nb <= out.size() && done[k] >= last[k] &&
                  done[k] > 0;
        if (ok) {
            auto got = packBits(out.data() + off, nb);
            ok = sameBytes(got.data(), got.size(), want.data(), want.size());
        }
        off += nb;
        ps.attempted += 1;
        if (!ok) {
            ps.failed += 1;
            continue;
        }
        ps.pktUs.push_back(static_cast<double>(done[k] - last[k]) / 1e3);
        ps.jobMs.push_back(static_cast<double>(done[k] - first[k]) / 1e6);
    }
    if (out.size() != off)
        ps.failed += 1;  // trailing garbage: a phantom packet
    return ns;
}

/** Transmit packets [begin, end); returns the summed run time in ns and
 *  marks mismatches against the Sora reference in @p failedPkts.  The
 *  gauge takes a slice (untimed) after every fourth packet. */
int64_t
transmitChunk(std::vector<std::unique_ptr<Pipeline>>& tx,
              const std::vector<Packet>& train, size_t begin, size_t end,
              std::vector<bool>& failedPkts, OutBufs& bufs, Clock clock,
              HostGauge& gauge)
{
    int64_t ns = 0;
    for (size_t k = begin; k < end; ++k) {
        const Packet& p = train[k];
        Pipeline& pl = *tx[static_cast<size_t>(p.rate)];
        size_t refBytes = p.txRef.size() * sizeof(Complex16);
        size_t ow = std::max<size_t>(pl.outWidth(), 1);
        uint64_t maxOut = (refBytes + ow - 1) / ow;
        MemSource src(p.txIn, pl.inWidth());
        StampSink sink(bufs.tx, ow);
        {
            Scope s("tx.run", static_cast<int64_t>(k));
            ns += timed([&] { pl.run(src, sink, maxOut); }, clock);
        }
        const auto& got = sink.data();
        if (!sameBytes(got.data(), got.size(),
                       reinterpret_cast<const uint8_t*>(p.txRef.data()),
                       refBytes))
            failedPkts[k] = true;
        if ((k - begin) % 4 == 3)
            gauge.sample();
    }
    return ns;
}

/** The checks must see one corrupted reference byte: @p txOut and
 *  @p psduOut are a packet's real TX output and decoded PSDU. */
bool
selfCheck(const Packet& p, const std::vector<uint8_t>& txOut,
          const std::vector<uint8_t>& psduOut)
{
    size_t refBytes = p.txRef.size() * sizeof(Complex16);
    std::vector<uint8_t> ref(refBytes);
    std::memcpy(ref.data(), p.txRef.data(), refBytes);
    std::vector<uint8_t> psdu = p.psdu;
    bool ok = sameBytes(txOut.data(), txOut.size(), ref.data(), refBytes) &&
              psduOut == psdu;
    ref[refBytes / 2] ^= 0x10;
    psdu[psdu.size() / 2] ^= 0x01;
    return ok &&
           !sameBytes(txOut.data(), txOut.size(), ref.data(), refBytes) &&
           psduOut != psdu;
}

/** Packets in the train: one chunk in smoke mode. */
int
trainSize(const Options& o, int full, size_t chunk)
{
    return o.smoke ? static_cast<int>(chunk) : full;
}

// ---------------------------------------------------- per-layer (native)

/** Build one TX block alone (the OFDM back end with its pilot state). */
CompPtr
txBlock(int which, Rate rate)
{
    const RateInfo& ri = rateInfo(rate);
    switch (which) {
      case 0: return scramblerBlock();
      case 1: return encoderBlock(ri.coding);
      case 2: return interleaverBlock(ri.modulation);
      case 3: return modulatorBlock(ri.modulation);
      default: {
        VarRef pilot = freshVar("pilot_idx", Type::int32());
        return zb::letvar(pilot, zb::cInt(1),
                      zb::pipe(zb::pipe(mapOfdmBlock(pilot),
                                        zb::native(specIfft())),
                               cpInsertBlock()));
      }
    }
}

const char* const kBlockNames[5] = {"scrambler", "encoder", "interleaver",
                                    "modulator", "ofdm"};

/** Run @p p over @p in once (padded), return (ns, output bytes). */
std::pair<int64_t, std::vector<uint8_t>>
runAlone(Pipeline& p, const std::vector<uint8_t>& in, Clock clock = nowNs)
{
    auto padded = padInput(in, p.inWidth(), 0);
    MemSource src(padded, p.inWidth());
    std::vector<uint8_t> out;
    StampSink sink(out, std::max<size_t>(p.outWidth(), 1));
    int64_t ns = timed([&] { p.run(src, sink); }, clock);
    return {ns, std::move(out)};
}

/**
 * tx.block.*: each TX block run alone over each rate's share of the
 * train's DATA bits, fed the previous block's output; ns per DATA bit.
 * Returns the summed per-block ns per bit.
 */
double
txBlockLayers(Result& r, const std::vector<Packet>& train,
              const CompilerOptions& opt, Clock clock)
{
    double blockNs[5] = {0, 0, 0, 0, 0};
    uint64_t bits = 0;
    for (Rate rate : allRates()) {
        std::vector<uint8_t> stream;
        for (const Packet& p : train)
            if (p.rate == rate)
                stream.insert(stream.end(), p.dataBits.begin(),
                              p.dataBits.end());
        if (stream.empty())
            continue;
        bits += stream.size();
        for (int b = 0; b < 5; ++b) {
            std::unique_ptr<Pipeline> p;
            {
                Scope s("tx.block.compile");
                p = compilePipeline(txBlock(b, rate), opt);
            }
            std::pair<int64_t, std::vector<uint8_t>> res;
            {
                Scope s(kBlockNames[b]);
                res = runAlone(*p, stream, clock);
            }
            blockNs[b] += static_cast<double>(res.first);
            stream = std::move(res.second);
        }
    }
    double sum = 0;
    for (int b = 0; b < 5; ++b) {
        double v = bits ? blockNs[b] / static_cast<double>(bits) : 0;
        sum += v;
        r.set(r.layers,
              std::string("tx.block.") + kBlockNames[b] + "_ns_per_bit", v,
              "ns/bit", bits);
    }
    return sum;
}

/** Sora baselines over the same packets (clean frames through the full
 *  receiver): TX ns/bit and RX ns/sample. */
void
soraLayers(Result& r, const std::vector<Packet>& train, double zTxNsPerBit,
           double zRxNsPerSample, Clock clock)
{
    int64_t txNs = 0, rxNs = 0;
    uint64_t bits = 0, samples = 0;
    for (const Packet& p : train) {
        Scope s("sora.packet");
        txNs += timed([&] {
            auto out = sora::txDataSamples(p.dataBits, p.rate);
            (void)out;
        }, clock);
        bits += p.dataBits.size();
        auto frame = sora::txFrame(payloadOf(p), p.rate);
        rxNs += timed([&] {
            auto res = sora::rxFrame(frame);
            (void)res;
        }, clock);
        samples += frame.size();
    }
    double soraTx = static_cast<double>(txNs) / static_cast<double>(bits);
    double soraRx =
        static_cast<double>(rxNs) / static_cast<double>(samples);
    r.set(r.layers, "sora.tx_ns_per_bit", soraTx, "ns/bit", train.size());
    r.set(r.layers, "sora.rx_ns_per_sample", soraRx, "ns/sample",
          train.size());
    // Speed ratios: > 1 means Ziria is faster than the baseline.
    r.set(r.layers, "tx.vs_sora", soraTx / zTxNsPerBit, "ratio",
          train.size());
    r.set(r.layers, "rx.vs_sora", soraRx / zRxNsPerSample, "ratio",
          train.size());
}

/** Compile-side layers: the workload's programs compiled once more
 *  (warm cache) and put through optimizeComp alone, wall time. */
void
compileLayers(Result& r, const std::vector<CompPtr>& programs,
              const CompilerOptions& opt)
{
    Totals t;
    int64_t compileNs = 0, passNs = 0;
    for (const CompPtr& c : programs) {
        compileNs += timed([&] { compileOne(c, opt, &t); });
        Scope s("zopt.passes");
        passNs += timed([&] { optimizeComp(c, opt); });
    }
    const double compileMs = static_cast<double>(compileNs) / 1e6;
    const double passMs = static_cast<double>(passNs) / 1e6;
    const uint64_t n = programs.size();
    r.set(r.layers, "zir.compile_ms", compileMs, "ms", n);
    r.set(r.layers, "zopt.passes_ms", passMs, "ms", n);
    r.set(r.layers, "zexpr.build_ms", compileMs - passMs, "ms", n);
    r.set(r.layers, "compile.luts_built", t.luts, "count", n);
    r.set(r.layers, "compile.lut_bytes", t.lutBytes, "bytes", n);
    r.set(r.layers, "cgen.regions", t.regions, "count", n);
    r.set(r.layers, "cgen.host_bridges", t.bridges, "count", n);
    r.set(r.layers, "fuse.fallbacks", t.fuseFallbacks, "count", n);
}

std::vector<CompPtr>
nativePrograms()
{
    std::vector<CompPtr> v;
    for (Rate rate : allRates())
        v.push_back(wifiTxDataComp(rate));
    v.push_back(wifiReceiverLoopComp());
    return v;
}

/** zcgen.jit_{cold,warm}_ms: the workload's programs compiled into a
 *  fresh private cache, then again into the now-primed one. */
void
jitLayers(Result& r, const Options& o)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::path(o.cacheDir) /
                   ("cold-" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    CompilerOptions opt = optionsFor(Backend::Native, dir.string());
    for (int pass = 0; pass < 2; ++pass) {
        const char* name = pass == 0 ? "zcgen.jit_cold" : "zcgen.jit_warm";
        Totals t;
        int64_t ns = 0;
        for (const CompPtr& c : nativePrograms()) {
            Scope s(name);
            ns += timed([&] { compileOne(c, opt, &t); });
        }
        checkNative(t, name);
        r.set(r.layers, std::string(name) + "_ms",
              static_cast<double>(ns) / 1e6, "ms", nativePrograms().size());
    }
    fs::remove_all(dir);
}

/** rx.datapath / rx.sync: the DATA path alone (one PSDU length per
 *  rate) against the receiver loop over the whole capture. */
void
rxSplitLayers(Result& r, const std::vector<Packet>& train,
              const CompilerOptions& opt, double loopNs, size_t capSamples,
              uint64_t seed, Clock clock)
{
    const int psdu = 1000;
    double dpNs = 0;  // modeled DATA-path time of the capture
    uint64_t probes = 0;
    Rng rng(seed + 101);
    for (Rate rate : allRates()) {
        std::vector<uint8_t> payload(psdu - 4);
        for (auto& b : payload)
            b = static_cast<uint8_t>(rng.next());
        auto ref = sora::txDataSamples(assembleDataBits(payload, rate), rate);
        std::unique_ptr<Pipeline> p;
        {
            Scope s("rx.datapath.compile");
            p = compilePipeline(wifiRxDataComp(rate, psdu), opt);
        }
        auto in = rxInput(ref, p->inWidth());
        std::vector<double> perSample;
        for (int k = 0; k < 3; ++k) {
            Scope s("rx.datapath", static_cast<int64_t>(rate));
            auto res = runAlone(*p, in, clock);
            perSample.push_back(static_cast<double>(res.first) /
                                static_cast<double>(ref.size()));
            ++probes;
        }
        double ns = median(perSample);
        for (const Packet& pk : train)
            if (pk.rate == rate)
                dpNs += ns * static_cast<double>(pk.txRef.size());
    }
    double cap = static_cast<double>(capSamples);
    r.set(r.layers, "rx.datapath_ns_per_sample", dpNs / cap, "ns/sample",
          probes);
    r.set(r.layers, "rx.sync_ns_per_sample", (loopNs - dpNs) / cap,
          "ns/sample", probes);
}

// ----------------------------------------------------- zexec (|>>>|)

constexpr int kSplitPsdu = 400;      ///< bytes incl. FCS
constexpr size_t kServiceBits = 16;  ///< SERVICE field ahead of the PSDU

/** The two halves of the TX and RX DATA paths' |>>>| split. */
CompPtr
txStage(int which, Rate rate)
{
    const RateInfo& ri = rateInfo(rate);
    if (which == 0)
        return zb::pipe(zb::pipe(zb::pipe(scramblerBlock(),
                                          encoderBlock(ri.coding)),
                                 interleaverBlock(ri.modulation)),
                        modulatorBlock(ri.modulation));
    return txBlock(4, rate);
}

CompPtr
rxStage(int which, Rate rate)
{
    const RateInfo& ri = rateInfo(rate);
    if (which == 0)
        return zb::pipe(
            zb::pipe(zb::pipe(zb::pipe(zb::pipe(dataSymbolBlock(),
                                                zb::native(specFft())),
                                       getDataBlock()),
                              demapLimitBlock()),
                     demapperBlock(ri.modulation)),
            deinterleaverBlock(ri.modulation));
    return zb::pipe(zb::native(specViterbi(),
                               {zb::cInt(codCode(ri.coding)),
                                zb::cInt(dataFieldBits(rate, kSplitPsdu))}),
                    scramblerBlock());
}

/** Wall ns of one threaded run of @p in; its output goes to @p out. */
int64_t
runThreaded(ThreadedPipeline& p, const std::vector<uint8_t>& in,
            std::vector<uint8_t>& out)
{
    MemSource src(in, p.inWidth());
    StampSink sink(out, std::max<size_t>(p.outWidth(), 1));
    Scope s("zexec.threaded");
    return timed([&] { p.run(src, sink); });
}

/**
 * zexec.*: the paper's two-thread split of the TX and RX DATA paths on
 * Backend::Vm, over 32 packets at one PSDU length.  Per packet, wall
 * time of the unsplit program, of each partition alone and of the
 * threaded run; handoff is the threaded total minus the slower
 * partition's.  The threaded outputs are checked against Sora and the
 * payload.
 */
void
zexecLayers(Result& r, uint64_t seed)
{
    const CompilerOptions opt = optionsFor(Backend::Vm, "");
    auto train = makeTrain(seed + 1, 32, 8, kSplitPsdu - 4, kSplitPsdu - 4);
    int64_t single = 0, threaded = 0, stageMax = 0;
    std::vector<uint8_t> out;
    for (Rate rate : allRates()) {
        auto tx1 = compilePipeline(wifiTxDataComp(rate, true), opt);
        auto txT = compileThreadedPipeline(wifiTxDataComp(rate, true), opt);
        auto txA = compilePipeline(txStage(0, rate), opt);
        auto txB = compilePipeline(txStage(1, rate), opt);
        auto rx1 = compilePipeline(wifiRxDataComp(rate, kSplitPsdu, true),
                                   opt);
        auto rxT = compileThreadedPipeline(
            wifiRxDataComp(rate, kSplitPsdu, true), opt);
        auto rxA = compilePipeline(rxStage(0, rate), opt);
        auto rxB = compilePipeline(rxStage(1, rate), opt);
        int64_t txANs = 0, txBNs = 0, rxANs = 0, rxBNs = 0;
        for (const Packet& p : train) {
            if (p.rate != rate)
                continue;
            auto txIn = txInput(p, txT->inWidth());
            auto rxIn = rxInput(p.txRef, rxT->inWidth());
            {
                Scope s("zexec.single");
                single += runAlone(*tx1, txIn).first;
                single += runAlone(*rx1, rxIn).first;
            }
            {
                Scope s("zexec.stage");
                auto ta = runAlone(*txA, p.dataBits);
                txANs += ta.first;
                txBNs += runAlone(*txB, ta.second).first;
                auto ra = runAlone(*rxA, rxIn);
                rxANs += ra.first;
                rxBNs += runAlone(*rxB, ra.second).first;
            }
            threaded += runThreaded(*txT, txIn, out);
            require(sameBytes(out.data(), out.size(),
                              reinterpret_cast<const uint8_t*>(p.txRef.data()),
                              p.txRef.size() * sizeof(Complex16)),
                    "zexec: threaded TX output differs from Sora");
            threaded += runThreaded(*rxT, rxIn, out);
            auto got = out.size() >= kServiceBits + 8 * p.psdu.size()
                           ? packBits(out.data() + kServiceBits,
                                      8 * p.psdu.size())
                           : std::vector<uint8_t>{};
            require(got == p.psdu,
                    "zexec: threaded RX did not decode the payload");
        }
        stageMax += std::max(txANs, txBNs) + std::max(rxANs, rxBNs);
    }
    const double n = static_cast<double>(train.size());
    r.set(r.layers, "zexec.single_ms", static_cast<double>(single) / 1e6,
          "ms", train.size());
    r.set(r.layers, "zexec.stage_max_ms",
          static_cast<double>(stageMax) / 1e6, "ms", train.size());
    r.set(r.layers, "zexec.threaded_ms", static_cast<double>(threaded) / 1e6,
          "ms", train.size());
    r.set(r.layers, "zexec.handoff_ms",
          static_cast<double>(threaded - stageMax) / 1e6, "ms",
          static_cast<uint64_t>(n));
}

} // namespace

// ================================================================ phy_native

Result
runPhyNative(const Options& o)
{
    Result r;
    require(zcgen::compilerAvailable(),
            "phy_native: no C++ compiler for the native backend "
            "(set $ZIRIA_CXX or $CXX)");
    const std::string warmDir = o.cacheDir + "/warm";
    std::filesystem::create_directories(warmDir);
    const CompilerOptions opt = optionsFor(Backend::Native, warmDir);

    // Prime the private cache, untimed (a no-op once it is warm).
    {
        NativeSet primed = compileNativeSet(opt);
        checkNative(primed.totals, "phy_native prime");
    }

    // set-up: compile every pipeline the workload uses, from the warm
    // cache, several times; the last set is the one measured.
    const int reps = o.smoke ? 1 : kSetupReps;
    NativeSet set;
    // Process CPU time, like every timing below: the run is
    // single-threaded and pinned.
    HostGauge gauge(processCpuNs);
    auto setups = timeSetups(reps, gauge, [&] {
        set = compileNativeSet(opt);
        checkNative(set.totals, "phy_native");
    });

    const size_t chunk = kNativeChunk;
    auto train = makeTrain(o.seed, trainSize(o, 240, chunk), chunk, 100, 1500);
    std::vector<Capture> caps;
    size_t capSamples = 0;
    for (size_t c = 0; c < train.size(); c += chunk) {
        caps.push_back(makeCapture(train, c, c + chunk, o.seed,
                                   set.rx->inWidth()));
        capSamples += caps.back().samples;
    }
    for (Packet& p : train)
        p.txIn = txInput(p, set.tx[static_cast<size_t>(p.rate)]->inWidth());

    // Self-check of the comparisons on the first packet's real outputs.
    {
        const Packet& p = train[0];
        Pipeline& pl = *set.tx[static_cast<size_t>(p.rate)];
        MemSource src(p.txIn, pl.inWidth());
        std::vector<uint8_t> txOut, rxOut;
        StampSink txSink(txOut, std::max<size_t>(pl.outWidth(), 1));
        pl.run(src, txSink);
        MemSource capSrc(caps[0].bytes, set.rx->inWidth());
        StampSink rxSink(rxOut, std::max<size_t>(set.rx->outWidth(), 1));
        set.rx->run(capSrc, rxSink);
        const size_t nb = 8 * p.psdu.size();
        r.selfCheckOk = selfCheck(
            p, txOut,
            rxOut.size() >= nb ? packBits(rxOut.data(), nb)
                               : std::vector<uint8_t>{});
    }

    // Chunk by chunk: TX then RX of the same packets.  Rates are per
    // chunk, latencies per packet.
    PassStats ps;
    // Timed in process CPU time: the run is single-threaded and pinned,
    // so that is its run time without the hypervisor's steal.
    StealMeter steal;
    OutBufs bufs;
    ChunkTimes times = measureChunks(
        o, caps.size(), ps, [&](size_t step, PassStats& one) {
            const size_t c = step % caps.size();
            const size_t begin = c * chunk, end = begin + chunk;
            std::vector<bool> txFailed(train.size(), false);
            int64_t txNs = transmitChunk(set.tx, train, begin, end,
                                         txFailed, bufs, processCpuNs, gauge);
            int64_t rxNs = receiveChunk(*set.rx, caps[c], train, begin, end,
                                        one, bufs, processCpuNs);
            gauge.sample(6);
            uint64_t bits = 0;
            for (size_t k = begin; k < end; ++k) {
                bits += train[k].dataBits.size();
                if (txFailed[k])
                    one.failed += 1;
            }
            one.addChunk(bits, txNs, caps[c].samples, rxNs);
            return static_cast<double>(txNs + rxNs) / 1e9;
        });
    r.set(r.detail, "host.steal_pct", steal.percent(), "%", 1);

    reportPhy(r, ps, setups, gauge);
    r.set(r.metrics, "peak_rss_mb", peakRssMb(), "MB", 1);
    r.info["backend"] = "native";

    if (o.trace) {
        compileLayers(r, nativePrograms(), opt);
        jitLayers(r, o);
        double zTx = ps.txSec * 1e9 / static_cast<double>(ps.txBits);
        double blocks = txBlockLayers(r, train, opt, processCpuNs);
        r.set(r.layers, "tx.machinery_ns_per_bit", zTx - blocks, "ns/bit",
              ps.txMbps.size());
        double loopNs = static_cast<double>(capSamples) * 1e3 /
                        median(ps.rxMsps);
        rxSplitLayers(r, train, opt, loopNs, capSamples, o.seed,
                      processCpuNs);
        soraLayers(r, train, zTx,
                   ps.rxSec * 1e9 / static_cast<double>(ps.rxSamples),
                   processCpuNs);
        zexecLayers(r, o.seed);
        reportOverhead(r, times);
    }
    return r;
}

} // namespace zbench
