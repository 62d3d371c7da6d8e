//===- tests/serve_test.cpp - Compilation service tests -------------------------===//
//
// The serve daemon's contracts (docs/SERVING.md), bottom up:
//
//  * frame and request/response codecs round-trip exactly and reject
//    malformed payloads with a diagnostic, never a crash;
//  * a served compile is bit-identical to the local batch pipeline;
//  * concurrent clients share one warm cache — the hit counters prove
//    the second client's requests were served from the first's stores;
//  * malformed, truncated and oversized frames get an error response
//    (or a clean connection drop), and the daemon keeps serving;
//  * stop() drains: every submitted request resolves before shutdown;
//  * two *processes* hammering one cache directory stay correct.
//
//===----------------------------------------------------------------------===//

#include "pre/CompileService.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

using namespace specpre;

namespace {

/// A tiny module exercising a loop-invariant expression (the shape the
/// pipeline exists for), plus a second function so module-level requests
/// cover the multi-function loop.
const char *TestModule = R"(func hot(a, b, n) {
entry:
  i = 0
  s = 0
  jmp loop
loop:
  c = i < n
  br c, body, done
body:
  t = a * b
  s = s + t
  i = i + 1
  jmp loop
done:
  ret s
}

func cold(a, b, n) {
entry:
  x = a + b
  ret x
}
)";

ServeRequest basicRequest() {
  ServeRequest R;
  R.ModuleText = TestModule;
  R.Strategy = PreStrategy::McSsaPre;
  R.TrainArgs = std::vector<int64_t>{3, 4, 16};
  return R;
}

/// The reference: what specpre-opt's batch loop produces for \p R.
ServeResponse localReference(const ServeRequest &R) {
  ParallelConfig PC;
  PC.Jobs = 1;
  ParallelPreDriver Driver(PC);
  return processServeRequest(R, Driver, nullptr, nullptr);
}

std::string tempSocketPath(const char *Tag) {
  // Unix socket paths are length-limited (~107 bytes); keep them short
  // and unique per test + process so parallel ctest runs don't collide.
  return "/tmp/sprs-" + std::to_string(getpid()) + "-" + Tag + ".sock";
}

} // namespace

//===----------------------------------------------------------------------===//
// Codec round-trips and rejection
//===----------------------------------------------------------------------===//

TEST(ServeProtocol, RequestRoundTripsExactly) {
  ServeRequest R = basicRequest();
  R.Placement = CutPlacement::Earliest;
  R.Algo = MaxFlowAlgorithm::EdmondsKarp;
  R.Objective = CutObjective::speedThenSize();
  R.Budget.DeadlineMillis = 1234;
  R.Budget.MaxGraphNodes = 77;
  R.TrainArgs = std::vector<int64_t>{-5, 0, 9223372036854775807LL};
  R.OnlyFunction = "hot";
  R.ProfileText = "specpre-profile v1\nblock 0 1\n";
  R.Cleanup = true;
  R.OutOfSsa = true;
  R.ReportOutcomes = true;

  ServeRequest Back;
  std::string Error;
  ASSERT_TRUE(decodeServeRequest(encodeServeRequest(R), Back, Error))
      << Error;
  EXPECT_EQ(Back.ModuleText, R.ModuleText);
  EXPECT_EQ(Back.Strategy, R.Strategy);
  EXPECT_EQ(Back.Placement, R.Placement);
  EXPECT_EQ(Back.Algo, R.Algo);
  EXPECT_EQ(Back.Objective.SpeedWeight, R.Objective.SpeedWeight);
  EXPECT_EQ(Back.Objective.SizeWeight, R.Objective.SizeWeight);
  EXPECT_EQ(Back.Budget.DeadlineMillis, R.Budget.DeadlineMillis);
  EXPECT_EQ(Back.Budget.MaxGraphNodes, R.Budget.MaxGraphNodes);
  ASSERT_TRUE(Back.TrainArgs.has_value());
  EXPECT_EQ(*Back.TrainArgs, *R.TrainArgs);
  EXPECT_EQ(Back.OnlyFunction, R.OnlyFunction);
  EXPECT_EQ(Back.ProfileText, R.ProfileText);
  EXPECT_EQ(Back.Cleanup, R.Cleanup);
  EXPECT_EQ(Back.OutOfSsa, R.OutOfSsa);
  EXPECT_EQ(Back.ReportOutcomes, R.ReportOutcomes);
  // Absent options keep their defaults.
  EXPECT_EQ(Back.Emit, true);
  EXPECT_EQ(Back.Gvn, false);
}

TEST(ServeProtocol, ResponseRoundTripsExactly) {
  ServeResponse R;
  R.Ok = true;
  R.ExitCode = 1;
  R.StdoutText = "train: ret=42\nfunc f() {\n}\n";
  R.StderrText = "outcome: f used=none\n";
  R.Error = "";
  ServeResponse Back;
  std::string Error;
  ASSERT_TRUE(decodeServeResponse(encodeServeResponse(R), Back, Error))
      << Error;
  EXPECT_EQ(Back.Ok, R.Ok);
  EXPECT_EQ(Back.ExitCode, R.ExitCode);
  EXPECT_EQ(Back.StdoutText, R.StdoutText);
  EXPECT_EQ(Back.StderrText, R.StderrText);
}

TEST(ServeProtocol, MalformedRequestPayloadsAreDiagnosed) {
  struct Case {
    const char *Payload;
    const char *ExpectInError;
  };
  const Case Cases[] = {
      {"", "header"},
      {"not-a-header\n", "header"},
      {"specpre-serve-request v1\n", "missing ir"},
      {"specpre-serve-request v1\nstrategy bogus\nir %\n", "strategy"},
      {"specpre-serve-request v1\nbudget 1 2\nir %\n", "budget"},
      {"specpre-serve-request v1\nbudget x 2 3\nir %\n", "budget"},
      {"specpre-serve-request v1\ntrain 1 junk\nir %\n", "junk"},
      {"specpre-serve-request v1\ntrain 99999999999999999999\nir %\n",
       "train"},
      {"specpre-serve-request v1\nwidget 1\nir %\n", "unknown directive"},
      {"specpre-serve-request v1\nir %zz\n", "ir"},
      {"specpre-serve-request v1\nflags 1 0 1\nir %\n", "flags"},
      {"specpre-serve-request v1\nalgo push-relabel\nir %\n", "algo"},
  };
  for (const Case &C : Cases) {
    ServeRequest R;
    std::string Error;
    EXPECT_FALSE(decodeServeRequest(C.Payload, R, Error))
        << "payload unexpectedly decoded: " << C.Payload;
    EXPECT_NE(Error.find(C.ExpectInError), std::string::npos)
        << "diagnostic '" << Error << "' does not mention '"
        << C.ExpectInError << "'";
  }
}

//===----------------------------------------------------------------------===//
// Service semantics (no socket)
//===----------------------------------------------------------------------===//

TEST(CompileServiceTest, ServedCompileMatchesLocalBatchExactly) {
  ServeResponse Ref = localReference(basicRequest());
  ASSERT_TRUE(Ref.Ok);
  ASSERT_EQ(Ref.ExitCode, 0);
  ASSERT_FALSE(Ref.StdoutText.empty());

  CompileService::Config Cfg;
  CompileService Service(Cfg);
  ServeResponse Got = Service.submit(basicRequest()).get();
  EXPECT_TRUE(Got.Ok);
  EXPECT_EQ(Got.ExitCode, 0);
  EXPECT_EQ(Got.StdoutText, Ref.StdoutText);
  EXPECT_EQ(Got.StderrText, Ref.StderrText);
}

TEST(CompileServiceTest, RequestsShareTheWarmCache) {
  CompileService::Config Cfg;
  Cfg.RequestWorkers = 4;
  CompileService Service(Cfg);

  // Two waves of identical requests from "different clients". The first
  // wave misses and stores; the second must be all hits. Submit the
  // first wave concurrently too — same-key racing stores are benign.
  std::vector<std::future<ServeResponse>> Wave1, Wave2;
  for (int I = 0; I != 4; ++I)
    Wave1.push_back(Service.submit(basicRequest()));
  std::string FirstOut;
  for (auto &F : Wave1) {
    ServeResponse R = F.get();
    ASSERT_TRUE(R.Ok);
    ASSERT_EQ(R.ExitCode, 0);
    if (FirstOut.empty())
      FirstOut = R.StdoutText;
    EXPECT_EQ(R.StdoutText, FirstOut);
  }
  CacheCounters AfterWave1 = Service.cache()->counters();
  EXPECT_GT(AfterWave1.Stores, 0u);

  for (int I = 0; I != 4; ++I)
    Wave2.push_back(Service.submit(basicRequest()));
  for (auto &F : Wave2)
    EXPECT_EQ(F.get().StdoutText, FirstOut);

  // The proof of sharing: wave 2's functions were all served from the
  // cache entries wave 1 stored (2 functions per request).
  CacheCounters AfterWave2 = Service.cache()->counters();
  EXPECT_EQ(AfterWave2.Hits - AfterWave1.Hits, 8u);
  EXPECT_EQ(AfterWave2.Stores, AfterWave1.Stores);

  PipelineMetrics M = Service.metricsSnapshot();
  EXPECT_EQ(M.service().RequestsReceived, 8u);
  EXPECT_EQ(M.service().RequestsSucceeded, 8u);
  EXPECT_GE(M.service().QueueDepthPeak, 1u);
}

TEST(CompileServiceTest, ShutdownDrainsEverySubmittedRequest) {
  std::vector<std::future<ServeResponse>> Futures;
  {
    CompileService::Config Cfg;
    Cfg.RequestWorkers = 2;
    CompileService Service(Cfg);
    for (int I = 0; I != 6; ++I)
      Futures.push_back(Service.submit(basicRequest()));
    Service.shutdown(); // must complete all six, not abandon them
  }
  for (auto &F : Futures) {
    ASSERT_EQ(F.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "shutdown abandoned a submitted request";
    EXPECT_TRUE(F.get().Ok);
  }
}

TEST(CompileServiceTest, BadModuleYieldsExitOneNotACrash) {
  CompileService::Config Cfg;
  CompileService Service(Cfg);
  ServeRequest R = basicRequest();
  R.ModuleText = "func broken( {";
  ServeResponse Resp = Service.submit(std::move(R)).get();
  EXPECT_TRUE(Resp.Ok) << "a parse error is a served failure, not a "
                          "protocol one";
  EXPECT_EQ(Resp.ExitCode, 1);
  EXPECT_NE(Resp.StderrText.find("error:"), std::string::npos);
  PipelineMetrics M = Service.metricsSnapshot();
  EXPECT_EQ(M.service().RequestsFailed, 1u);
}

//===----------------------------------------------------------------------===//
// Socket server end to end
//===----------------------------------------------------------------------===//

namespace {

struct ServerFixture {
  ServeServer::Config Cfg;
  std::unique_ptr<ServeServer> Server;

  explicit ServerFixture(const char *Tag, unsigned RequestWorkers = 2) {
    Cfg.SocketPath = tempSocketPath(Tag);
    Cfg.IoTimeoutMs = 10000;
    Cfg.Service.RequestWorkers = RequestWorkers;
    Server = std::make_unique<ServeServer>(Cfg);
  }

  ~ServerFixture() {
    Server->stop();
    ::unlink(Cfg.SocketPath.c_str());
  }

  Status start() { return Server->start(); }

  Socket connect() {
    Expected<Socket> C = connectUnix(Cfg.SocketPath, 5000);
    EXPECT_TRUE(C.hasValue()) << C.status().toString();
    return C ? std::move(*C) : Socket();
  }
};

/// One compile round-trip over an open connection.
ServeResponse compileOver(const Socket &Conn, const ServeRequest &R) {
  ServeResponse Resp;
  Status St = writeFrame(Conn, 'C', encodeServeRequest(R), 10000);
  EXPECT_TRUE(St.isOk()) << St.toString();
  Frame F;
  bool PeerClosed = false;
  St = readFrame(Conn, F, PeerClosed, 30000);
  EXPECT_TRUE(St.isOk()) << St.toString();
  EXPECT_FALSE(PeerClosed);
  EXPECT_EQ(F.Type, 'R') << F.Payload;
  std::string Error;
  EXPECT_TRUE(decodeServeResponse(F.Payload, Resp, Error)) << Error;
  return Resp;
}

} // namespace

TEST(ServeServerTest, PingAndCompileRoundTrip) {
  ServerFixture Fix("ping");
  ASSERT_TRUE(Fix.start().isOk());
  Socket Conn = Fix.connect();
  ASSERT_TRUE(Conn.valid());

  // Ping echoes its payload.
  ASSERT_TRUE(writeFrame(Conn, 'P', "hello", 5000).isOk());
  Frame F;
  bool PeerClosed = false;
  ASSERT_TRUE(readFrame(Conn, F, PeerClosed, 5000).isOk());
  EXPECT_EQ(F.Type, 'P');
  EXPECT_EQ(F.Payload, "hello");

  // A compile over the same connection is bit-identical to local.
  ServeResponse Ref = localReference(basicRequest());
  ServeResponse Got = compileOver(Conn, basicRequest());
  EXPECT_TRUE(Got.Ok);
  EXPECT_EQ(Got.ExitCode, 0);
  EXPECT_EQ(Got.StdoutText, Ref.StdoutText);
  EXPECT_EQ(Got.StderrText, Ref.StderrText);

  // Stats frame reports the served request.
  ASSERT_TRUE(writeFrame(Conn, 'S', "", 5000).isOk());
  ASSERT_TRUE(readFrame(Conn, F, PeerClosed, 5000).isOk());
  EXPECT_EQ(F.Type, 'T');
  EXPECT_NE(F.Payload.find("\"requests_received\": 1"), std::string::npos)
      << F.Payload;
}

TEST(ServeServerTest, ConcurrentClientsShareTheWarmCache) {
  ServerFixture Fix("conc", /*RequestWorkers=*/4);
  ASSERT_TRUE(Fix.start().isOk());

  ServeResponse Ref = localReference(basicRequest());
  auto OneClient = [&] {
    Socket Conn = Fix.connect();
    ASSERT_TRUE(Conn.valid());
    for (int I = 0; I != 2; ++I) {
      ServeResponse R = compileOver(Conn, basicRequest());
      EXPECT_TRUE(R.Ok);
      EXPECT_EQ(R.StdoutText, Ref.StdoutText);
    }
  };
  std::vector<std::thread> Clients;
  for (int I = 0; I != 4; ++I)
    Clients.emplace_back(OneClient);
  for (std::thread &T : Clients)
    T.join();

  // 8 requests x 2 functions = 16 lookups; exactly one compile per
  // function happened somewhere, everything else was served shared.
  CacheCounters C = Fix.Server->service().cache()->counters();
  EXPECT_EQ(C.Hits + C.Misses, 16u);
  EXPECT_GT(C.Hits, 0u) << "no client ever hit another client's entry";
  EXPECT_EQ(C.Misses, C.Stores);
}

TEST(ServeServerTest, MalformedFramesGetErrorsNotCrashes) {
  ServerFixture Fix("mal");
  ASSERT_TRUE(Fix.start().isOk());

  { // Bad magic: error frame, then the connection is dropped.
    Socket Conn = Fix.connect();
    ASSERT_TRUE(Conn.valid());
    const char Junk[] = "XXXX_garbage";
    ASSERT_GT(::send(Conn.fd(), Junk, sizeof(Junk), 0), 0);
    Frame F;
    bool PeerClosed = false;
    Status St = readFrame(Conn, F, PeerClosed, 5000);
    ASSERT_TRUE(St.isOk()) << St.toString();
    ASSERT_FALSE(PeerClosed);
    EXPECT_EQ(F.Type, 'E');
    EXPECT_NE(F.Payload.find("magic"), std::string::npos) << F.Payload;
  }
  { // Oversized length prefix: rejected without allocating 4 GiB.
    Socket Conn = Fix.connect();
    ASSERT_TRUE(Conn.valid());
    unsigned char Hdr[9] = {'S', 'P', 'V', '1', 'C', 0xff, 0xff, 0xff, 0xff};
    ASSERT_GT(::send(Conn.fd(), Hdr, sizeof(Hdr), 0), 0);
    Frame F;
    bool PeerClosed = false;
    Status St = readFrame(Conn, F, PeerClosed, 5000);
    ASSERT_TRUE(St.isOk()) << St.toString();
    EXPECT_EQ(F.Type, 'E');
    EXPECT_NE(F.Payload.find("64 MiB"), std::string::npos) << F.Payload;
  }
  { // Truncated frame: header promises bytes, peer hangs up instead.
    Socket Conn = Fix.connect();
    ASSERT_TRUE(Conn.valid());
    unsigned char Hdr[9] = {'S', 'P', 'V', '1', 'C', 0x80, 0, 0, 0};
    ASSERT_GT(::send(Conn.fd(), Hdr, sizeof(Hdr), 0), 0);
    Conn.close(); // the daemon must treat this as a torn frame
  }
  { // Undecodable compile payload: error frame, connection survives.
    Socket Conn = Fix.connect();
    ASSERT_TRUE(Conn.valid());
    ASSERT_TRUE(writeFrame(Conn, 'C', "not a request", 5000).isOk());
    Frame F;
    bool PeerClosed = false;
    ASSERT_TRUE(readFrame(Conn, F, PeerClosed, 5000).isOk());
    EXPECT_EQ(F.Type, 'E');
    EXPECT_NE(F.Payload.find("bad compile request"), std::string::npos);
    // The same connection still compiles fine afterwards.
    ServeResponse R = compileOver(Conn, basicRequest());
    EXPECT_TRUE(R.Ok);
    EXPECT_EQ(R.ExitCode, 0);
  }
  // And after all that abuse, a healthy client is still served.
  Socket Conn = Fix.connect();
  ASSERT_TRUE(Conn.valid());
  ServeResponse R = compileOver(Conn, basicRequest());
  EXPECT_TRUE(R.Ok);
}

TEST(ServeServerTest, StopDrainsInFlightRequests) {
  ServerFixture Fix("drain");
  ASSERT_TRUE(Fix.start().isOk());

  // Launch clients, wait until the server has *accepted* all three
  // requests (they may be queued, compiling or responding), then stop.
  // Every accepted request must still deliver its full response.
  std::atomic<int> Served{0};
  std::vector<std::thread> Clients;
  for (int I = 0; I != 3; ++I)
    Clients.emplace_back([&] {
      Socket Conn = Fix.connect();
      ASSERT_TRUE(Conn.valid());
      ServeResponse R = compileOver(Conn, basicRequest());
      if (R.Ok && R.ExitCode == 0)
        Served.fetch_add(1);
    });
  for (int Spins = 0;
       Fix.Server->service().metricsSnapshot().service().RequestsReceived < 3;
       ++Spins) {
    ASSERT_LT(Spins, 1000) << "server never accepted the requests";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Fix.Server->stop();
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Served.load(), 3);
}

TEST(ServeServerTest, RefusesToStartOverALiveSocket) {
  ServerFixture Fix("live");
  ASSERT_TRUE(Fix.start().isOk());

  {
    // A second daemon on the same path must refuse, not silently steal
    // the socket file out from under the running one.
    ServeServer::Config Cfg2 = Fix.Cfg;
    ServeServer Second(Cfg2);
    Status St = Second.start();
    ASSERT_FALSE(St.isOk());
    EXPECT_NE(St.message().find("in use"), std::string::npos)
        << St.toString();
  }

  // The loser's teardown must not have unlinked the winner's socket:
  // a fresh client still connects and compiles.
  Socket Conn = Fix.connect();
  ASSERT_TRUE(Conn.valid());
  ServeResponse R = compileOver(Conn, basicRequest());
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(ServeServerTest, StopRemovesTheSocketFile) {
  ServerFixture Fix("unlink");
  ASSERT_TRUE(Fix.start().isOk());
  ASSERT_TRUE(std::filesystem::exists(Fix.Cfg.SocketPath));
  Fix.Server->stop();
  EXPECT_FALSE(std::filesystem::exists(Fix.Cfg.SocketPath))
      << "clean stop left a stale socket file behind";
}

//===----------------------------------------------------------------------===//
// Cross-process cache contention
//===----------------------------------------------------------------------===//

TEST(ServeServerTest, TwoProcessesContendOnOneCacheDirectorySafely) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() /
                 ("specpre-serve-xproc-" + std::to_string(getpid()));
  fs::remove_all(Dir);
  fs::create_directories(Dir);

  // The child and the parent each run a full compile pass over the same
  // corpus against the same directory, concurrently. Deterministic
  // compilation + atomic publication means any interleaving of their
  // writes yields the same bytes; the assertion is on the *parent's*
  // outputs matching an uncached reference, plus a clean child exit.
  auto CompilePass = [&](CompileCache &Cache, std::vector<std::string> &Out) {
    ParallelConfig PC;
    PC.Jobs = 1;
    ParallelPreDriver Driver(PC);
    for (unsigned Seed = 1; Seed <= 4; ++Seed) {
      ServeRequest R = basicRequest();
      R.OnlyFunction = Seed % 2 ? "hot" : "cold";
      ServeResponse Resp =
          processServeRequest(R, Driver, &Cache, nullptr);
      ASSERT_TRUE(Resp.Ok);
      ASSERT_EQ(Resp.ExitCode, 0) << Resp.StderrText;
      Out.push_back(Resp.StdoutText);
    }
  };

  std::vector<std::string> Reference;
  {
    CompileCache NoDisk({});
    CompilePass(NoDisk, Reference);
  }

  pid_t Child = fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    // Child process: own cache object, same directory, tiny byte cap so
    // its sweeps evict entries out from under the parent mid-run.
    CompileCache::Config CC;
    CC.DiskDir = Dir.string();
    CC.MaxDiskBytes = 2048;
    int Rc = 0;
    {
      CompileCache Cache(CC);
      std::vector<std::string> Got;
      CompilePass(Cache, Got);
      for (int Round = 0; Round != 3 && !Rc; ++Round) {
        std::vector<std::string> Again;
        CompilePass(Cache, Again);
        if (Again != Got)
          Rc = 1;
        Cache.sweepDiskTier();
      }
    }
    _exit(Rc); // never return into gtest from the forked child
  }

  CompileCache::Config CC;
  CC.DiskDir = Dir.string();
  CompileCache Cache(CC);
  for (int Round = 0; Round != 3; ++Round) {
    std::vector<std::string> Got;
    CompilePass(Cache, Got);
    EXPECT_EQ(Got, Reference) << "round " << Round;
  }

  int ChildStatus = -1;
  ASSERT_EQ(waitpid(Child, &ChildStatus, 0), Child);
  ASSERT_TRUE(WIFEXITED(ChildStatus));
  EXPECT_EQ(WEXITSTATUS(ChildStatus), 0)
      << "child saw divergent outputs under contention";
  // No torn temp files survived either process.
  for (const fs::directory_entry &F : fs::directory_iterator(Dir))
    EXPECT_EQ(F.path().extension(), ".sprc") << F.path();
  fs::remove_all(Dir);
}
