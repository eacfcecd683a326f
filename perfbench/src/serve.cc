/**
 * @file
 * serve_mixed: an in-process zserve Server (2 workers) whose factory
 * compiles the 24 Mbps TX data path for every session, driven by one
 * open-loop generator (this thread) over at most 4 connections:
 *
 *  - 2 long sessions stream Data frames of whole OFDM symbols at a
 *    fixed frame rate for the whole window;
 *  - short sessions (one packet's worth of DATA bits) arrive at a fixed
 *    rate, at most 2 open at once; waiting for the cap counts in their
 *    latency.
 *
 * Frame latency runs from a frame's scheduled send time to the arrival
 * of the last output sample derived from it; session latency from the
 * scheduled arrival to the server's End.  Every session's output must be
 * a prefix of sora::txDataSamples of its input that covers all of its
 * real data (the input ends with zero symbols that flush the pipeline).
 */
#include <poll.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common.h"
#include "sora/sora.h"
#include "support/rng.h"
#include "wifi/tx.h"
#include "zir/compiler.h"
#include "zserve/server.h"
#include "zserve/socket.h"
#include "zserve/wire.h"

namespace zbench {

using namespace ziria;
using namespace ziria::serve;

namespace {

constexpr wifi::Rate kRate = wifi::Rate::R24;
constexpr int kNdbps = 96;             ///< DATA bits per symbol at 24 Mbps
constexpr int kSymsPerFrame = 96;      ///< long-session frame size
constexpr int kFlushSyms = 16;         ///< zero symbols closing an input
constexpr int kShortSyms = 125;        ///< a 1500-byte packet at 24 Mbps
/** Long sessions repeat a block of this many symbols: the scrambler
 *  (127 bits) and the pilot polarity (127 symbols) both come back to
 *  their start after it, so Sora's output repeats with the same period
 *  and one period of reference checks the whole stream. */
constexpr int kPeriodSyms = 127;
constexpr int kLongSessions = 2;
constexpr int kMaxShortOpen = 2;
constexpr int64_t kFramePeriodNs = 40'000'000;   ///< 25 frames/s/session
constexpr int64_t kShortIntervalNs = 1'500'000'000;  ///< 1 session/1.5 s
constexpr int64_t kSoloTxNs = 6'000'000'000;  ///< solo TX measurement
constexpr size_t kSampleBytes = 4;     ///< complex16
constexpr size_t kSymBytes = 80 * kSampleBytes;
constexpr size_t kWireKeepBytes = 4u << 20;  ///< stream kept for parsing

std::vector<uint8_t>
randomBits(Rng& rng, size_t n)
{
    std::vector<uint8_t> v(n);
    for (auto& b : v)
        b = static_cast<uint8_t>(rng.next() & 1u);
    return v;
}

std::vector<uint8_t>
referenceBytes(const std::vector<uint8_t>& bits)
{
    auto s = sora::txDataSamples(bits, kRate);
    std::vector<uint8_t> out(s.size() * kSampleBytes);
    std::memcpy(out.data(), s.data(), out.size());
    return out;
}

/** Index of the first byte where @p got departs from @p ref. */
size_t
agreeingPrefix(const std::vector<uint8_t>& got,
               const std::vector<uint8_t>& ref)
{
    size_t n = std::min(got.size(), ref.size());
    size_t i = 0;
    while (i < n && got[i] == ref[i])
        ++i;
    return i;
}

/** Compile statistics gathered by the factory (runs on the I/O thread). */
struct FactoryStats
{
    std::mutex mu;
    CompileReport sum;
    int builds = 0;
    int64_t ns = 0;
};

CompilerOptions
serveOptions()
{
    return CompilerOptions::forLevel(OptLevel::All);  // Backend::Vm
}

std::unique_ptr<Pipeline>
buildSession(FactoryStats* st, uint64_t sid)
{
    Scope s("zir.compile", static_cast<int64_t>(sid));
    CompileReport rep;
    int64_t t0 = nowNs();
    auto p = compilePipeline(wifi::wifiTxDataComp(kRate), serveOptions(),
                             &rep);
    int64_t dt = nowNs() - t0;
    if (st) {
        std::lock_guard<std::mutex> lk(st->mu);
        st->builds += 1;
        st->ns += dt;
        st->sum.build.lutsBuilt += rep.build.lutsBuilt;
        st->sum.build.lutBytes += rep.build.lutBytes;
        st->sum.cgen.regions += rep.cgen.regions;
        st->sum.cgen.hostBridges += rep.cgen.hostBridges;
        st->sum.fuse.fallbacks += rep.fuse.fallbacks;
    }
    return p;
}

uint64_t
jsonU64(const std::string& doc, const std::string& key)
{
    auto pos = doc.find("\"" + key + "\":");
    if (pos == std::string::npos)
        return 0;
    return std::strtoull(doc.c_str() + pos + key.size() + 3, nullptr, 10);
}

/** One client connection, long or short. */
struct Conn
{
    bool isLong = false;
    int index = 0;
    bool traced = false;        ///< spans for this session
    SockFd fd;
    FrameParser parser;
    size_t inWidth = 0;
    bool greeted = false, ended = false, failed = false;
    std::string error;

    std::vector<uint8_t> input;   ///< short: every bit it sends;
                                  ///< long: one period, repeated
    size_t realBits = 0;          ///< bits before the flush symbols
    std::vector<uint8_t> output;  ///< short: raw output bytes received
    std::vector<uint8_t> refPeriod;  ///< long: Sora output of periods 0, 1
    uint64_t outBytes = 0;        ///< long: output bytes received
    uint64_t agreeBytes = 0;      ///< long: ... that matched, in a row
    std::vector<uint8_t> wire;    ///< raw stream bytes (one long session)
    bool keepWire = false;

    int64_t dueNs = 0;       ///< scheduled arrival (short)
    int64_t connectNs = 0;
    int64_t helloNs = 0;
    int64_t endSentNs = 0;
    int64_t endRecvNs = 0;
    int64_t spanId = -1;

    // Long sessions: per-frame schedule and arrival.
    size_t framesSent = 0;
    std::vector<int64_t> frameDue;
    std::vector<int64_t> frameArrive;
    size_t nextFrameDone = 0;
    bool statPending = false;
    bool statDone = false;
    std::string stat;
};

class Generator
{
  public:
    explicit Generator(uint16_t port) : port_(port) {}

    /** Open a connection (blocking connect to the local listener). */
    std::unique_ptr<Conn>
    open(bool isLong, int index, bool traced)
    {
        auto c = std::make_unique<Conn>();
        c->isLong = isLong;
        c->index = index;
        c->traced = traced;
        c->connectNs = nowNs();
        c->fd = connectTcp("127.0.0.1", port_);
        setNoDelay(c->fd.get());
        setNonBlocking(c->fd.get());
        if (traced)
            c->spanId = Tracer::get().begin(
                isLong ? "zserve.long_session" : "zserve.short_session",
                index);
        return c;
    }

    bool
    send(Conn& c, FrameType t, const uint8_t* p, size_t n)
    {
        std::vector<uint8_t> out;
        encodeFrame(out, t, p, n);
        if (!sendAll(c.fd.get(), out.data(), out.size())) {
            c.failed = true;
            c.error = "send failed";
            return false;
        }
        return true;
    }

    /** Read what is ready on @p c and handle every complete frame. */
    void
    pump(Conn& c)
    {
        uint8_t buf[64 * 1024];
        bool closed = false;
        for (;;) {
            long n = recvSome(c.fd.get(), buf, sizeof buf);
            if (n > 0) {
                if (c.keepWire && c.wire.size() < kWireKeepBytes)
                    c.wire.insert(c.wire.end(), buf, buf + n);
                c.parser.feed(buf, static_cast<size_t>(n));
                if (static_cast<size_t>(n) < sizeof buf)
                    break;
                continue;
            }
            if (n == -2) {
                c.failed = true;
                c.error = "recv failed";
                c.ended = true;
            } else if (n == 0) {
                closed = true;
            }
            break;  // -1: would block
        }
        serve::Frame f;
        for (;;) {
            auto r = c.parser.next(f);
            if (r == FrameParser::Result::NeedMore)
                break;
            if (r == FrameParser::Result::Error) {
                c.failed = true;
                c.error = "wire: " + c.parser.error();
                c.ended = true;
                break;
            }
            handle(c, f);
        }
        if (closed && !c.ended) {
            c.failed = true;
            c.error = "connection closed before End";
            c.ended = true;
        }
    }

    void
    handle(Conn& c, serve::Frame& f)
    {
        int64_t now = nowNs();
        switch (f.type) {
          case FrameType::Hello: {
            HelloInfo hi;
            if (!decodeHello(f.payload, hi)) {
                c.failed = true;
                c.error = "bad Hello";
                return;
            }
            c.greeted = true;
            c.helloNs = now;
            c.inWidth = hi.inWidth;
            if (c.traced)
                Tracer::get().record("zserve.admit", c.connectNs, now,
                                     c.spanId, c.index);
            if (!c.isLong)
                startShort(c);
            break;
          }
          case FrameType::Data:
            if (c.isLong) {
                checkLong(c, f.payload);
                while (c.nextFrameDone < c.frameArrive.size() &&
                       c.outBytes >=
                           (c.nextFrameDone + 1) * kSymsPerFrame * kSymBytes) {
                    size_t j = c.nextFrameDone++;
                    c.frameArrive[j] = now;
                    if (c.traced)
                        Tracer::get().record("zserve.frame", c.frameDue[j],
                                             now, c.spanId,
                                             static_cast<int64_t>(j));
                }
                break;
            }
            c.output.insert(c.output.end(), f.payload.begin(),
                            f.payload.end());
            if (!c.statPending && !c.statDone &&
                c.output.size() >= c.realBits / kNdbps * kSymBytes) {
                // All real output is in: ask for the scheduler dwell
                // (worker run time), then close.
                c.statPending = send(c, FrameType::Stat, nullptr, 0);
            }
            break;
          case FrameType::Stat:
            c.stat.assign(f.payload.begin(), f.payload.end());
            c.statPending = false;
            c.statDone = true;
            if (!c.isLong && c.endSentNs == 0) {
                c.endSentNs = nowNs();
                send(c, FrameType::End, nullptr, 0);
            }
            break;
          case FrameType::End:
            c.endRecvNs = now;
            c.ended = true;
            break;
          case FrameType::Halt:
            break;
          case FrameType::Error:
            c.failed = true;
            c.error = "server Error: " +
                      std::string(f.payload.begin(), f.payload.end());
            c.ended = true;
            break;
          default:
            c.failed = true;
            c.error = std::string("unexpected ") + frameTypeName(f.type);
            c.ended = true;
        }
    }

    /** Compare a long session's output with the periodic reference as
     *  it arrives, keeping only counts. */
    static void
    checkLong(Conn& c, const std::vector<uint8_t>& payload)
    {
        // refPeriod holds the first period and the repeating one.
        const uint64_t period = c.refPeriod.size() / 2;
        for (uint8_t b : payload) {
            uint64_t i = c.outBytes < period
                             ? c.outBytes
                             : period + (c.outBytes - period) % period;
            if (c.agreeBytes == c.outBytes && b == c.refPeriod[i])
                ++c.agreeBytes;
            ++c.outBytes;
        }
    }

    /** A short session's whole input goes out at once after Hello. */
    void
    startShort(Conn& c)
    {
        if (c.input.size() % c.inWidth != 0) {
            c.failed = true;
            c.error = "input is not a whole number of elements";
            return;
        }
        send(c, FrameType::Data, c.input.data(), c.input.size());
    }

  private:
    uint16_t port_;
};

/**
 * set-up: Server construction + start(), @p reps times, each on the next
 * CPU (which the server's threads inherit) and in process CPU time, as
 * for the PHY set-ups: the server's own threads count, the hypervisor's
 * steal does not.  The last server is kept in @p server.
 */
std::vector<double>
timeServerSetups(const Server::PipelineFactory& factory,
                 const ServerConfig& cfg, int reps,
                 std::unique_ptr<Server>& server)
{
    std::vector<double> setups;
    CpuRotation cpus;
    for (int i = 0; i < reps; ++i) {
        if (server) {
            server->stop();
            server.reset();
        }
        cpus.pin(static_cast<size_t>(i));
        int64_t t0 = processCpuNs();
        {
            Scope s("zserve.setup", i);
            server = std::make_unique<Server>(factory, cfg);
            server->start();
        }
        setups.push_back(static_cast<double>(processCpuNs() - t0) / 1e9);
    }
    return setups;
}

} // namespace

Result
runServeMixed(const Options& o)
{
    Result r;
    FactoryStats fstats;
    ServerConfig cfg;
    cfg.port = 0;
    cfg.workers = 2;
    auto factory = [&fstats](uint64_t sid) {
        return buildSession(&fstats, sid);
    };

    std::unique_ptr<Server> server;
    auto setups = timeServerSetups(factory, cfg, o.smoke ? 5 : 101, server);

    const int64_t windowNs =
        static_cast<int64_t>((o.smoke ? 1.5 : o.seconds) * 1e9);
    const int frames = static_cast<int>(windowNs / kFramePeriodNs);
    const int shortCount = static_cast<int>(windowNs / kShortIntervalNs);

    Rng rng(o.seed * 0xD1B54A32D192ED03ull + 5);
    Generator gen(server->port());

    // Long sessions connect first; the open-loop schedule starts once
    // both have been admitted.
    std::vector<std::unique_ptr<Conn>> longs;
    for (int i = 0; i < kLongSessions; ++i) {
        auto c = gen.open(true, i, o.trace);
        c->keepWire = o.trace && i == 0;
        c->input = randomBits(rng, kPeriodSyms * kNdbps);
        // Three periods of reference: the first differs (the encoder
        // starts from zero state), the later ones must repeat.
        std::vector<uint8_t> thrice;
        for (int k = 0; k < 3; ++k)
            thrice.insert(thrice.end(), c->input.begin(), c->input.end());
        c->refPeriod = referenceBytes(thrice);
        const size_t p = c->refPeriod.size() / 3;
        require(std::equal(c->refPeriod.begin() + static_cast<long>(p),
                           c->refPeriod.begin() + static_cast<long>(2 * p),
                           c->refPeriod.begin() + static_cast<long>(2 * p)),
                "serve: Sora TX output is not periodic in the input block");
        c->refPeriod.resize(2 * p);
        c->realBits =
            static_cast<size_t>(frames) * kSymsPerFrame * kNdbps;
        c->frameDue.assign(static_cast<size_t>(frames), 0);
        c->frameArrive.assign(static_cast<size_t>(frames), 0);
        longs.push_back(std::move(c));
    }
    std::vector<std::unique_ptr<Conn>> shorts(
        static_cast<size_t>(shortCount));
    std::vector<std::vector<uint8_t>> shortInputs;
    for (int i = 0; i < shortCount; ++i) {
        auto bits = randomBits(rng, kShortSyms * kNdbps);
        bits.resize((kShortSyms + kFlushSyms) * kNdbps, 0);
        shortInputs.push_back(std::move(bits));
    }

    auto pollOnce = [&](std::vector<Conn*>& live, int64_t waitNs) {
        std::vector<pollfd> pfds;
        for (Conn* c : live)
            pfds.push_back(pollfd{c->fd.get(), POLLIN, 0});
        timespec ts{static_cast<time_t>(waitNs / 1000000000),
                    static_cast<long>(waitNs % 1000000000)};
        if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0)
            return;
        for (size_t i = 0; i < pfds.size(); ++i)
            if (pfds[i].revents)
                gen.pump(*live[i]);
    };

    const int64_t admitDeadline = nowNs() + 30'000'000'000LL;
    for (;;) {
        std::vector<Conn*> live;
        for (auto& c : longs)
            if (!c->greeted && !c->ended)
                live.push_back(c.get());
        if (live.empty() || nowNs() > admitDeadline)
            break;
        pollOnce(live, 1'000'000);
    }
    for (auto& c : longs)
        if (!c->greeted && !c->failed) {
            c->failed = true;
            c->error = "no Hello";
        }

    const int64_t t0 = nowNs() + 5'000'000;
    for (int i = 0; i < kLongSessions; ++i)
        for (int j = 0; j < frames; ++j)
            longs[static_cast<size_t>(i)]->frameDue[static_cast<size_t>(j)] =
                t0 + j * kFramePeriodNs + i * (kFramePeriodNs / 2);

    StealMeter steal;
    // One CPU per thread (generator, I/O thread, 2 workers), the
    // assignment shifted at every short-session arrival.
    auto rotate = std::make_unique<CpuRotation>();
    size_t rotation = 0;
    rotate->pinAllThreads(rotation);

    std::vector<double> lateMs, capWaitMs;
    std::vector<uint8_t> frame(kSymsPerFrame * kNdbps);
    std::deque<int> waiting;  // short sessions due but over the cap
    int nextShort = 0;
    int openShorts = 0;
    std::vector<Conn*> openShortConns;
    const int64_t hardStop = t0 + windowNs + 60'000'000'000LL;
    bool longsClosing = false;

    for (;;) {
        int64_t now = nowNs();
        if (now > hardStop)
            break;
        // Long-session frames that are due.
        int64_t nextEvent = now + 2'000'000;
        for (auto& cp : longs) {
            Conn& c = *cp;
            if (c.failed || c.ended)
                continue;
            while (c.framesSent < c.frameDue.size() &&
                   c.frameDue[c.framesSent] <= now) {
                lateMs.push_back(
                    static_cast<double>(nowNs() - c.frameDue[c.framesSent]) /
                    1e6);
                const size_t n = kSymsPerFrame * kNdbps;
                for (size_t k = 0; k < n; ++k)
                    frame[k] = c.input[(c.framesSent * n + k) %
                                       c.input.size()];
                gen.send(c, FrameType::Data, frame.data(), n);
                ++c.framesSent;
            }
            if (c.framesSent < c.frameDue.size())
                nextEvent = std::min(nextEvent, c.frameDue[c.framesSent]);
        }
        // Close the long sessions once every frame is out: the flush
        // symbols, then a Stat, then End.
        if (!longsClosing &&
            std::all_of(longs.begin(), longs.end(), [](auto& c) {
                return c->failed || c->framesSent == c->frameDue.size();
            }) &&
            nextShort >= shortCount && waiting.empty()) {
            longsClosing = true;
            for (auto& cp : longs) {
                Conn& c = *cp;
                if (c.failed)
                    continue;
                const std::vector<uint8_t> flush(kFlushSyms * kNdbps, 0);
                gen.send(c, FrameType::Data, flush.data(), flush.size());
                c.statPending = gen.send(c, FrameType::Stat, nullptr, 0);
                c.endSentNs = nowNs();
                gen.send(c, FrameType::End, nullptr, 0);
            }
        }
        // Short-session arrivals.
        while (nextShort < shortCount &&
               t0 + nextShort * kShortIntervalNs <= now) {
            waiting.push_back(nextShort++);
            rotate->pinAllThreads(++rotation);
        }
        if (nextShort < shortCount)
            nextEvent = std::min(nextEvent, t0 + nextShort * kShortIntervalNs);
        while (!waiting.empty() && openShorts < kMaxShortOpen) {
            int i = waiting.front();
            waiting.pop_front();
            int64_t due = t0 + i * kShortIntervalNs;
            capWaitMs.push_back(static_cast<double>(nowNs() - due) / 1e6);
            // Traced runs trace every other session, so the overhead of
            // tracing shows as traced minus untraced session latency.
            auto c = gen.open(false, i, o.trace && i % 2 == 0);
            c->dueNs = due;
            c->input = std::move(shortInputs[static_cast<size_t>(i)]);
            c->realBits = kShortSyms * kNdbps;
            openShortConns.push_back(c.get());
            shorts[static_cast<size_t>(i)] = std::move(c);
            ++openShorts;
        }

        std::vector<Conn*> live;
        for (auto& c : longs)
            if (!c->ended)
                live.push_back(c.get());
        for (Conn* c : openShortConns)
            live.push_back(c);
        bool allDone = longsClosing && live.empty();
        if (allDone)
            break;
        int64_t wait = std::max<int64_t>(0, nextEvent - nowNs());
        pollOnce(live, wait);
        // Retire finished short sessions (frees a cap slot).
        for (auto it = openShortConns.begin(); it != openShortConns.end();) {
            Conn* c = *it;
            if (c->ended || c->failed) {
                if (c->spanId >= 0)
                    Tracer::get().end(c->spanId);
                c->fd.reset();
                it = openShortConns.erase(it);
                --openShorts;
            } else {
                ++it;
            }
        }
    }
    for (auto& c : longs)
        if (c->spanId >= 0)
            Tracer::get().end(c->spanId);

    // ---------------------------------------------------- verification
    std::vector<double> frameMs, sessionMs, sessionTraced, sessionPlain;
    std::vector<double> admitMs, drainMs, servedMbps;
    std::vector<double> parked, queued, running;
    uint64_t attempted = 0, failed = 0;
    // Output bytes that agree with Sora TX of the input, or 0 if the
    // output is not a prefix of it (or the session failed).
    auto goodBytes = [&](const Conn& c) -> size_t {
        if (c.failed)
            return 0;
        auto ref = referenceBytes(c.input);
        size_t agree = agreeingPrefix(c.output, ref);
        return agree == c.output.size() ? agree : 0;
    };
    auto stat = [&](const Conn& c) {
        if (c.stat.empty())
            return;
        parked.push_back(
            static_cast<double>(jsonU64(c.stat, "sched_parked_ns")));
        queued.push_back(
            static_cast<double>(jsonU64(c.stat, "sched_queued_ns")));
        running.push_back(
            static_cast<double>(jsonU64(c.stat, "sched_running_ns")));
    };
    for (auto& cp : longs) {
        Conn& c = *cp;
        // The flush symbols are not periodic: only the real data (every
        // frame) has to match.
        size_t good = c.failed ? 0 : c.agreeBytes;
        attempted += 1;  // the session itself
        bool sessionOk = !c.failed && c.endRecvNs > 0 &&
                         good >= c.realBits / kNdbps * kSymBytes;
        if (!sessionOk) {
            failed += 1;
            if (!c.error.empty())
                std::fprintf(stderr, "serve: long session %d: %s\n",
                             c.index, c.error.c_str());
        }
        for (size_t j = 0; j < c.frameDue.size(); ++j) {
            attempted += 1;
            size_t boundary = (j + 1) * kSymsPerFrame * kSymBytes;
            if (good < boundary || c.frameArrive[j] == 0) {
                failed += 1;
                continue;
            }
            frameMs.push_back(
                static_cast<double>(c.frameArrive[j] - c.frameDue[j]) / 1e6);
        }
        if (c.helloNs)
            admitMs.push_back(static_cast<double>(c.helloNs - c.connectNs) /
                              1e6);
        stat(c);
    }
    for (auto& cp : shorts) {
        attempted += 1;
        if (!cp) {
            failed += 1;
            continue;
        }
        Conn& c = *cp;
        size_t good = goodBytes(c);
        if (c.failed || c.endRecvNs == 0 ||
            good < c.realBits / kNdbps * kSymBytes) {
            failed += 1;
            std::fprintf(stderr, "serve: short session %d failed: %s\n",
                         c.index, c.error.c_str());
            continue;
        }
        double ms = static_cast<double>(c.endRecvNs - c.dueNs) / 1e6;
        sessionMs.push_back(ms);
        (c.traced ? sessionTraced : sessionPlain).push_back(ms);
        admitMs.push_back(static_cast<double>(c.helloNs - c.connectNs) / 1e6);
        drainMs.push_back(static_cast<double>(c.endRecvNs - c.endSentNs) /
                          1e6);
        // Worker run time the server charged to this session until all
        // of its real output was out.
        uint64_t runNs = jsonU64(c.stat, "sched_running_ns");
        if (runNs > 0)
            servedMbps.push_back(static_cast<double>(c.realBits) * 1e3 /
                                 static_cast<double>(runNs));
        stat(c);
    }

    // Self-check: a corrupted reference byte must break the prefix.
    {
        Conn* c = nullptr;
        for (auto& cp : shorts)
            if (cp && !cp->output.empty()) {
                c = cp.get();
                break;
            }
        if (c) {
            auto ref = referenceBytes(c->input);
            size_t before = agreeingPrefix(c->output, ref);
            ref[c->output.size() / 2] ^= 0x04;
            r.selfCheckOk = before == c->output.size() &&
                            agreeingPrefix(c->output, ref) < before;
        } else {
            r.selfCheckOk = false;
        }
    }

    auto counters = server->counters();
    server->stop();
    rotate.reset();  // back to the original CPU mask
    const double stealPct = steal.percent();

    // tx_mbps: the served program (the factory's pipeline) run directly
    // over the short sessions' inputs, chunk by chunk over the CPUs.
    // Like phy_native's run side, it is scaled by a host speed gauge
    // sampled between the runs, in the same clock.
    double soloBits = 0, soloSec = 0;
    HostGauge gauge(processCpuNs);
    {
        auto p = buildSession(nullptr, 0);
        CpuRotation cpus;
        const int64_t until = nowNs() + kSoloTxNs;
        size_t step = 0;
        do {
            cpus.pin(step);
            const Conn* c =
                shorts.empty() ? nullptr : shorts[step % shorts.size()].get();
            const auto& in = c ? c->input : longs[0]->input;  // one period
            MemSource src(in, p->inWidth());
            NullSink sink;
            // Single-threaded and pinned: process CPU time is its run
            // time without the hypervisor's steal.
            int64_t t = processCpuNs();
            {
                Scope s("zserve.solo_tx", static_cast<int64_t>(step));
                p->run(src, sink);
            }
            const int64_t ns = processCpuNs() - t;
            soloBits += static_cast<double>(in.size());
            soloSec += static_cast<double>(ns) / 1e9;
            gauge.sample();
            ++step;
        } while (o.smoke ? step < 2 : nowNs() < until);
    }

    r.attempted = attempted;
    r.failed = failed;
    // Only tx_mbps is scaled.  The latencies span sleeping and waking
    // threads, and scaling them by gauge slices run on the generator
    // doubled their spread (README.md, "Noise").
    const double scale = gauge.scale();
    const double soloMbps = soloBits / soloSec / 1e6;
    const uint64_t soloRuns = gauge.samples();  // one slice per run
    const double frame50 = quantile(frameMs, 0.5);
    const double frame99 = quantile(frameMs, 0.99);
    const double session50 = quantile(sessionMs, 0.5);
    const double session90 = quantile(sessionMs, 0.9);
    r.set(r.metrics, "setup_s", median(setups), "s", setups.size());
    r.set(r.metrics, "tx_mbps", soloMbps * scale, "Mbit/s", soloRuns);
    r.set(r.metrics, "lat_p50_ms", frame50, "ms", frameMs.size());
    r.set(r.metrics, "lat_p99_ms", frame99, "ms", frameMs.size());
    r.set(r.metrics, "job_p50_ms", session50, "ms", sessionMs.size());
    r.set(r.metrics, "job_p90_ms", session90, "ms", sessionMs.size());
    r.set(r.metrics, "peak_rss_mb", peakRssMb(), "MB", 1);

    r.set(r.detail, "host.slowdown", gauge.slowdown(), "ratio",
          gauge.samples());
    r.set(r.detail, "raw.tx_mbps", soloMbps, "Mbit/s", soloRuns);

    r.set(r.detail, "frame_p50_ms", frame50, "ms", frameMs.size());
    r.set(r.detail, "frame_p99_ms", frame99, "ms", frameMs.size());
    r.set(r.detail, "session_p50_ms", session50, "ms", sessionMs.size());
    r.set(r.detail, "session_p90_ms", session90, "ms", sessionMs.size());
    r.set(r.detail, "session_p99_ms", quantile(sessionMs, 0.99), "ms",
          sessionMs.size());
    r.set(r.detail, "served_tx_mbps", median(servedMbps), "Mbit/s",
          servedMbps.size());
    r.set(r.detail, "fail_ratio",
          static_cast<double>(failed) /
              static_cast<double>(std::max<uint64_t>(attempted, 1)),
          "ratio", attempted);
    r.set(r.detail, "loadgen.late_p99_ms", quantile(lateMs, 0.99), "ms",
          lateMs.size());
    r.set(r.detail, "loadgen.cap_wait_ms", quantile(capWaitMs, 0.99), "ms",
          capWaitMs.size());
    r.set(r.detail, "host.steal_pct", stealPct, "%", 1);
    r.set(r.detail, "server.rejected", static_cast<double>(counters.rejected),
          "count", counters.accepted + counters.rejected);
    r.info["backend"] = "vm, 2 workers";

    if (o.trace) {
        int builds;
        double compileMs;
        CompileReport sum;
        {
            std::lock_guard<std::mutex> lk(fstats.mu);
            builds = fstats.builds;
            compileMs = static_cast<double>(fstats.ns) / 1e6;
            sum = fstats.sum;
        }
        std::vector<double> passes, solo, soloRun;
        for (int k = 0; k < 3; ++k) {
            int64_t t = nowNs();
            {
                Scope s("zopt.passes");
                optimizeComp(wifi::wifiTxDataComp(kRate), serveOptions());
            }
            passes.push_back(static_cast<double>(nowNs() - t) / 1e6);
            t = nowNs();
            std::unique_ptr<Pipeline> p;
            {
                Scope s("zserve.solo_build");
                p = buildSession(nullptr, 0);
            }
            solo.push_back(static_cast<double>(nowNs() - t) / 1e6);
            const auto& in = shorts.empty() || !shorts[0]
                                 ? longs[0]->input
                                 : shorts[0]->input;
            MemSource src(in, p->inWidth());
            NullSink sink;
            t = nowNs();
            {
                Scope s("zserve.solo_run");
                p->run(src, sink);
            }
            soloRun.push_back(static_cast<double>(nowNs() - t) / 1e6);
        }
        double passMs = median(passes) * builds;
        r.set(r.layers, "zir.compile_ms", compileMs, "ms", builds);
        r.set(r.layers, "zopt.passes_ms", passMs, "ms", builds);
        r.set(r.layers, "zexpr.build_ms", compileMs - passMs, "ms", builds);
        r.set(r.layers, "compile.luts_built", sum.build.lutsBuilt, "count",
              builds);
        r.set(r.layers, "compile.lut_bytes",
              static_cast<double>(sum.build.lutBytes), "bytes", builds);
        r.set(r.layers, "cgen.regions", sum.cgen.regions, "count", builds);
        r.set(r.layers, "cgen.host_bridges", sum.cgen.hostBridges, "count",
              builds);
        r.set(r.layers, "fuse.fallbacks", sum.fuse.fallbacks, "count",
              builds);
        r.set(r.layers, "zserve.admit_p50_ms", quantile(admitMs, 0.5), "ms",
              admitMs.size());
        r.set(r.layers, "zserve.admit_p99_ms", quantile(admitMs, 0.99), "ms",
              admitMs.size());
        r.set(r.layers, "zserve.solo_build_ms", median(solo), "ms",
              solo.size());
        r.set(r.layers, "zserve.solo_run_ms", median(soloRun), "ms",
              soloRun.size());
        r.set(r.layers, "zserve.drain_ms", median(drainMs), "ms",
              drainMs.size());
        r.set(r.layers, "zserve.sched.parked_ns", median(parked), "ns",
              parked.size());
        r.set(r.layers, "zserve.sched.queued_ns", median(queued), "ns",
              queued.size());
        r.set(r.layers, "zserve.sched.running_ns", median(running), "ns",
              running.size());
        // FrameParser over the recorded stream of one long session.
        {
            const auto& w = longs[0]->wire;
            std::vector<double> perKib;
            for (int k = 0; k < 5 && !w.empty(); ++k) {
                FrameParser fp;
                serve::Frame f;
                int64_t t = nowNs();
                {
                    Scope s("zserve.wire_parse");
                    for (size_t off = 0; off < w.size(); off += 64 * 1024) {
                        fp.feed(w.data() + off,
                                std::min<size_t>(64 * 1024, w.size() - off));
                        while (fp.next(f) == FrameParser::Result::Frame) {
                        }
                    }
                }
                perKib.push_back(static_cast<double>(nowNs() - t) /
                                 (static_cast<double>(w.size()) / 1024.0));
            }
            r.set(r.layers, "zserve.wire_parse_ns_per_kib", median(perKib),
                  "ns/KiB", perKib.size());
        }
        r.set(r.layers, "loadgen.late_p99_ms", quantile(lateMs, 0.99), "ms",
              lateMs.size());
        r.set(r.layers, "loadgen.cap_wait_ms", quantile(capWaitMs, 0.99),
              "ms", capWaitMs.size());
        if (!sessionTraced.empty() && !sessionPlain.empty())
            r.set(r.layers, "trace.overhead_pct",
                  100.0 * (median(sessionTraced) / median(sessionPlain) -
                           1.0),
                  "%", sessionTraced.size() + sessionPlain.size());
    }
    return r;
}

} // namespace zbench
