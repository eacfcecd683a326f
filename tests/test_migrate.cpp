/**
 * @file
 * Durable session resume and live migration tests (ctest labels
 * `serve`, `checkpoint`): keyed sessions re-attaching from the on-disk
 * checkpoint store after a hard client disconnect, live Migrate
 * hand-off between two running servers (byte-identity for the moved
 * session, zero disturbance for its neighbor, live_{sent,received}
 * counters), rejection rollback (a failed hand-off leaves the source
 * session running, no data loss), the negotiated above-1-MiB
 * Checkpoint/Migrate payload cap through the frame parser.
 *
 * All traffic is loopback TCP; no test talks to the outside world.
 */
#include <dirent.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/metrics.h"
#include "support/panic.h"
#include "support/rng.h"
#include "zir/compiler.h"
#include "zparse/parser.h"
#include "zserve/server.h"
#include "zserve/socket.h"
#include "zserve/wire.h"

namespace ziria {
namespace serve {
namespace {

const char* kScramblerSrc = R"(
let comp scrambler() =
    var scrmbl_st : arr[7] bit := {'1,'1,'1,'1,'1,'1,'1} in
    repeat {
        seq { (x : bit) <- take : bit
            ; (tmp : bit) <- return (scrmbl_st[3] ^ scrmbl_st[0])
            ; do { scrmbl_st[0, 6] := scrmbl_st[1, 6];
                   scrmbl_st[6] := tmp; }
            ; emit (x ^ tmp)
            }
    }

scrambler()
)";

std::vector<uint8_t>
randomBits(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> out(n);
    for (auto& b : out)
        b = rng.bit();
    return out;
}

Server::PipelineFactory
scramblerFactory()
{
    CompPtr program = parseComp(kScramblerSrc);
    CompilerOptions opt = CompilerOptions::forLevel(OptLevel::All);
    return [program, opt](uint64_t) {
        return compilePipeline(program, opt, nullptr);
    };
}

std::vector<uint8_t>
soloRun(const Server::PipelineFactory& factory,
        const std::vector<uint8_t>& input)
{
    auto p = factory(~0ull);
    return p->runBytes(input);
}

uint64_t
ctrValue(const char* name)
{
    return metrics::Registry::global().counter(name).value();
}

std::string
scratchDir(const char* tag)
{
    static int seq = 0;
    return std::string("/tmp/ziria_test_migrate.") +
           std::to_string(::getpid()) + "." + tag + "." +
           std::to_string(seq++);
}

void
nukeDir(const std::string& path)
{
    DIR* d = ::opendir(path.c_str());
    if (!d) {
        ::unlink(path.c_str());
        return;
    }
    while (struct dirent* e = ::readdir(d)) {
        std::string n = e->d_name;
        if (n == "." || n == "..")
            continue;
        nukeDir(path + "/" + n);
    }
    ::closedir(d);
    ::rmdir(path.c_str());
}

/**
 * A blocking keyed-session client speaking the attach/resume protocol:
 * connect, read the greeting, attach with the key and the output byte
 * count received so far, read the resume Hello, and stream/drain in
 * explicit steps so tests control the interleaving.
 */
struct KeyedClient
{
    SockFd sock;
    FrameParser parser;
    HelloInfo greet;     ///< server greeting (widths + ckpt cap)
    HelloInfo resume;    ///< resume acknowledgement (resumeElems)
    std::vector<uint8_t> out;
    std::string errorMsg;
    bool sawEnd = false;
    bool sawError = false;
    bool sawRedirect = false;
    std::string redirectHost;
    uint16_t redirectPort = 0;

    bool
    readFrame(Frame& f)
    {
        uint8_t buf[16 * 1024];
        for (;;) {
            FrameParser::Result r = parser.next(f);
            if (r == FrameParser::Result::Frame)
                return true;
            if (r == FrameParser::Result::Error)
                return false;
            long n = recvSome(sock.get(), buf, sizeof buf);
            if (n > 0) {
                parser.feed(buf, static_cast<size_t>(n));
                continue;
            }
            if (n != -1)
                return false;
        }
    }

    /** Connect + attach; true when the resume Hello arrived. */
    bool
    attach(uint16_t port, const std::string& key)
    {
        parser = FrameParser();
        sock = connectTcp("127.0.0.1", port);
        if (sock.get() < 0)
            return false;
        Frame f;
        if (!readFrame(f) || f.type != FrameType::Hello ||
            !decodeHello(f.payload, greet))
            return false;
        std::vector<uint8_t> wire;
        encodeAttachHello(wire, key, out.size());
        if (!sendAll(sock.get(), wire.data(), wire.size()))
            return false;
        if (!readFrame(f))
            return false;
        if (f.type == FrameType::Error) {
            sawError = true;
            errorMsg.assign(f.payload.begin(), f.payload.end());
            return false;
        }
        return f.type == FrameType::Hello &&
               decodeHello(f.payload, resume) && resume.hasResume;
    }

    /** Send @p input elements [from, to) as Data frames. */
    bool
    sendRange(const std::vector<uint8_t>& input, uint64_t fromElem,
              uint64_t toElem)
    {
        size_t w = greet.inWidth ? greet.inWidth : 1;
        size_t off = static_cast<size_t>(fromElem) * w;
        size_t end = static_cast<size_t>(toElem) * w;
        const size_t chunk = 256 * w;
        while (off < end) {
            size_t n = std::min(chunk, end - off);
            std::vector<uint8_t> wire;
            encodeFrame(wire, FrameType::Data, input.data() + off, n);
            if (!sendAll(sock.get(), wire.data(), wire.size()))
                return false;
            off += n;
        }
        return true;
    }

    bool
    sendEnd()
    {
        std::vector<uint8_t> wire;
        encodeFrame(wire, FrameType::End);
        return sendAll(sock.get(), wire.data(), wire.size());
    }

    /** Read until End, Error, Redirect, or close. */
    void
    drain()
    {
        Frame f;
        while (readFrame(f)) {
            switch (f.type) {
              case FrameType::Data:
                out.insert(out.end(), f.payload.begin(), f.payload.end());
                break;
              case FrameType::End:
                sawEnd = true;
                return;
              case FrameType::Error:
                sawError = true;
                errorMsg.assign(f.payload.begin(), f.payload.end());
                return;
              case FrameType::Migrate:
                if (!f.payload.empty() &&
                    f.payload[0] ==
                        static_cast<uint8_t>(MigrateSub::Redirect) &&
                    decodeMigrateRedirect(f.payload, redirectHost,
                                          redirectPort)) {
                    sawRedirect = true;
                    return;
                }
                break;
              default:
                break;  // Hello / Halt / Stat / Checkpoint: ignore
            }
        }
    }
};

/**
 * Attach with retry: a hard-closed predecessor session may still be
 * live on the server for a poll tick or two, so the key can be busy.
 */
bool
attachWithRetry(KeyedClient& c, uint16_t port, const std::string& key,
                int ms = 3000)
{
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    for (;;) {
        c.sawError = false;
        c.errorMsg.clear();
        if (c.attach(port, key))
            return true;
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
}

/** Operator-side migrate request; returns the Ack's ok flag. */
bool
requestMigrate(uint16_t srcPort, const std::string& key,
               const std::string& peerHost, uint16_t peerPort,
               std::string* msg = nullptr)
{
    SockFd sock = connectTcp("127.0.0.1", srcPort);
    if (sock.get() < 0)
        return false;
    FrameParser parser;
    Frame f;
    uint8_t buf[4096];
    auto read = [&](Frame& out) {
        for (;;) {
            FrameParser::Result r = parser.next(out);
            if (r == FrameParser::Result::Frame)
                return true;
            if (r == FrameParser::Result::Error)
                return false;
            long n = recvSome(sock.get(), buf, sizeof buf);
            if (n > 0) {
                parser.feed(buf, static_cast<size_t>(n));
                continue;
            }
            if (n != -1)
                return false;
        }
    };
    if (!read(f) || f.type != FrameType::Hello)
        return false;
    std::vector<uint8_t> wire;
    encodeMigrateRequest(wire, key, peerHost, peerPort);
    if (!sendAll(sock.get(), wire.data(), wire.size()))
        return false;
    while (read(f)) {
        if (f.type != FrameType::Migrate)
            continue;
        bool ok = false;
        std::string m;
        if (!decodeMigrateAck(f.payload, ok, m))
            return false;
        if (msg)
            *msg = m;
        return ok;
    }
    return false;
}

// -------------------------------------------- disk re-attach resume

TEST(Migrate, DiskReattachResumesByteIdentical)
{
    auto factory = scramblerFactory();
    std::string dir = scratchDir("reattach");
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.ckptDir = dir;
    cfg.ckptIntervalMs = 5;
    Server server(factory, cfg);
    server.start();

    auto input = randomBits(65536 * 8, 31);
    auto expect = soloRun(factory, input);
    const uint64_t totalElems = input.size() / 8;

    // First attach: stream half the input, give the persist cadence a
    // few turns, then die without warning (no End, hard close).
    KeyedClient c1;
    ASSERT_TRUE(c1.attach(server.port(), "reattach-1")) << c1.errorMsg;
    EXPECT_EQ(c1.resume.resumeElems, 0u);
    ASSERT_TRUE(c1.sendRange(input, 0, totalElems / 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    std::vector<uint8_t> sofar;
    {
        // Read the full output for the half input before "crashing":
        // the retained-tail window is keyed to bytes the kernel
        // accepted, so a client that resumes must present at least
        // that count — exactly what a live client that kept reading
        // until the crash would hold.  The scrambler is one-for-one,
        // so the half input yields exactly half the expected bytes.
        Frame f;
        uint8_t buf[16 * 1024];
        long n;
        while (sofar.size() < expect.size() / 2 &&
               (n = recvSome(c1.sock.get(), buf, sizeof buf)) > 0) {
            c1.parser.feed(buf, static_cast<size_t>(n));
            while (c1.parser.next(f) == FrameParser::Result::Frame)
                if (f.type == FrameType::Data)
                    sofar.insert(sofar.end(), f.payload.begin(),
                                 f.payload.end());
        }
        ASSERT_EQ(sofar.size(), expect.size() / 2);
    }
    // Die abortively (RST, as a crashed process would after the kernel
    // tears the connection down), not with an orderly FIN — the server
    // treats a clean half-close as End-of-input, which would drain the
    // session to completion and delete the durable key.
    {
        struct linger lg;
        lg.l_onoff = 1;
        lg.l_linger = 0;
        ::setsockopt(c1.sock.get(), SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    }
    c1.sock = SockFd();  // hard close mid-session

    // Second attach under the same key: the server restores from disk
    // and tells us which input element to resume from.
    KeyedClient c2;
    c2.out = std::move(sofar);
    ASSERT_TRUE(attachWithRetry(c2, server.port(), "reattach-1"))
        << c2.errorMsg;
    uint64_t from = c2.resume.resumeElems;
    ASSERT_LE(from, totalElems);
    ASSERT_TRUE(c2.sendRange(input, from, totalElems));
    ASSERT_TRUE(c2.sendEnd());
    c2.drain();
    EXPECT_TRUE(c2.sawEnd) << c2.errorMsg;
    EXPECT_EQ(c2.out, expect);

    server.stop();
    nukeDir(dir);
}

// ------------------------------------------------------ live migrate

TEST(Migrate, LiveHandOffByteIdenticalNeighborUntouched)
{
    auto factory = scramblerFactory();
    ServerConfig cfg;
    cfg.workers = 2;
    Server a(factory, cfg);
    a.start();
    Server b(factory, cfg);
    b.start();

    auto input = randomBits(131072 * 8, 41);
    auto expect = soloRun(factory, input);
    const uint64_t totalElems = input.size() / 8;

    // Neighbor: a plain unkeyed session on A, running concurrently.
    auto nbrInput = randomBits(16384 * 8, 43);
    auto nbrExpect = soloRun(factory, nbrInput);
    std::vector<uint8_t> nbrOut;
    bool nbrEnd = false;
    std::thread nbr([&] {
        KeyedClient n;  // reuse the frame plumbing; no attach
        n.sock = connectTcp("127.0.0.1", a.port());
        Frame f;
        if (!n.readFrame(f) || f.type != FrameType::Hello ||
            !decodeHello(f.payload, n.greet))
            return;
        if (!n.sendRange(nbrInput, 0, nbrInput.size() / 8))
            return;
        if (!n.sendEnd())
            return;
        n.drain();
        nbrOut = std::move(n.out);
        nbrEnd = n.sawEnd;
    });

    uint64_t sent0 = ctrValue("server.migrations.live_sent");
    uint64_t recv0 = ctrValue("server.migrations.live_received");

    KeyedClient c;
    ASSERT_TRUE(c.attach(a.port(), "live-1")) << c.errorMsg;
    ASSERT_TRUE(c.sendRange(input, 0, totalElems / 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::string msg;
    ASSERT_TRUE(requestMigrate(a.port(), "live-1", "127.0.0.1", b.port(),
                               &msg))
        << msg;
    EXPECT_EQ(ctrValue("server.migrations.live_sent"), sent0 + 1);
    EXPECT_EQ(ctrValue("server.migrations.live_received"), recv0 + 1);

    // Drain A until the Redirect, then finish the session against B.
    c.drain();
    ASSERT_TRUE(c.sawRedirect) << c.errorMsg;
    EXPECT_EQ(c.redirectPort, b.port());
    ASSERT_TRUE(c.attach(c.redirectPort, "live-1")) << c.errorMsg;
    uint64_t from = c.resume.resumeElems;
    ASSERT_LE(from, totalElems);
    ASSERT_TRUE(c.sendRange(input, from, totalElems));
    ASSERT_TRUE(c.sendEnd());
    c.drain();
    EXPECT_TRUE(c.sawEnd) << c.errorMsg;
    EXPECT_EQ(c.out, expect);

    nbr.join();
    EXPECT_TRUE(nbrEnd);
    EXPECT_EQ(nbrOut, nbrExpect);

    a.stop();
    b.stop();
}

TEST(Migrate, RejectedHandOffRollsBackWithoutDataLoss)
{
    auto factory = scramblerFactory();
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.migrateTimeoutMs = 1500;
    Server a(factory, cfg);
    a.start();

    auto input = randomBits(65536 * 8, 53);
    auto expect = soloRun(factory, input);
    const uint64_t totalElems = input.size() / 8;

    uint64_t failed0 = ctrValue("server.migrations.live_failed");

    KeyedClient c;
    ASSERT_TRUE(c.attach(a.port(), "roll-1")) << c.errorMsg;
    ASSERT_TRUE(c.sendRange(input, 0, totalElems / 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    // Peer port 1: connection refused, the hand-off must fail...
    std::string msg;
    EXPECT_FALSE(requestMigrate(a.port(), "roll-1", "127.0.0.1", 1, &msg));
    EXPECT_EQ(ctrValue("server.migrations.live_failed"), failed0 + 1);

    // ...and the session keeps running on A as if nothing happened.
    ASSERT_TRUE(c.sendRange(input, totalElems / 2, totalElems));
    ASSERT_TRUE(c.sendEnd());
    c.drain();
    EXPECT_TRUE(c.sawEnd) << c.errorMsg;
    EXPECT_FALSE(c.sawRedirect);
    EXPECT_EQ(c.out, expect);

    a.stop();
}

// ------------------------------------- negotiated checkpoint cap

TEST(Wire, CheckpointPayloadsExceedTheOrdinaryCap)
{
    EXPECT_EQ(payloadCapFor(FrameType::Data), kMaxPayload);
    EXPECT_EQ(payloadCapFor(FrameType::Checkpoint), kMaxCkptPayload);
    EXPECT_EQ(payloadCapFor(FrameType::Migrate), kMaxCkptPayload);
    EXPECT_GT(kMaxCkptPayload, kMaxPayload);

    // The greeting Hello advertises the negotiated cap.
    std::vector<uint8_t> wire;
    encodeHello(wire, 8, 8);
    FrameParser p;
    p.feed(wire.data(), wire.size());
    Frame f;
    ASSERT_EQ(p.next(f), FrameParser::Result::Frame);
    HelloInfo info;
    ASSERT_TRUE(decodeHello(f.payload, info));
    ASSERT_TRUE(info.hasCap);
    EXPECT_EQ(info.maxCkptPayload, kMaxCkptPayload);
}

TEST(Wire, NearLimitMigrateTransferRoundTripsThroughTheParser)
{
    // A Transfer well past the 1 MiB ordinary cap (satellite: raising
    // kMaxPayload for Checkpoint/Migrate frames): 8 MiB of synthetic
    // checkpoint must stream through the parser intact, fed in odd-
    // sized fragments.
    std::vector<uint8_t> ckpt(8u << 20);
    Rng rng(61);
    for (auto& b : ckpt)
        b = static_cast<uint8_t>(rng.next());
    std::vector<uint8_t> wire;
    encodeMigrateTransfer(wire, "big-1", ckpt);
    ASSERT_GT(wire.size(), kMaxPayload);

    FrameParser p;
    size_t off = 0;
    const size_t frag = 65537;
    Frame f;
    FrameParser::Result r = FrameParser::Result::NeedMore;
    while (off < wire.size()) {
        size_t n = std::min(frag, wire.size() - off);
        p.feed(wire.data() + off, n);
        off += n;
        r = p.next(f);
        if (r == FrameParser::Result::Frame)
            break;
        ASSERT_EQ(r, FrameParser::Result::NeedMore) << p.error();
    }
    ASSERT_EQ(r, FrameParser::Result::Frame) << p.error();
    ASSERT_EQ(f.type, FrameType::Migrate);
    std::string key;
    std::vector<uint8_t> got;
    ASSERT_TRUE(decodeMigrateTransfer(f.payload, key, got));
    EXPECT_EQ(key, "big-1");
    EXPECT_EQ(got, ckpt);

    // An ordinary Data frame the same size is still rejected.
    std::vector<uint8_t> bad;
    bad.push_back(kMagic0);
    bad.push_back(kMagic1);
    bad.push_back(static_cast<uint8_t>(FrameType::Data));
    bad.push_back(0);
    uint32_t len = (2u << 20);
    for (int i = 0; i < 4; ++i)
        bad.push_back(static_cast<uint8_t>(len >> (8 * i)));
    FrameParser q;
    q.feed(bad.data(), bad.size());
    Frame g;
    EXPECT_EQ(q.next(g), FrameParser::Result::Error);
}

} // namespace
} // namespace serve
} // namespace ziria
