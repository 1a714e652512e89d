// Integration tests for the network lineage server (server/server.h):
// concurrent multi-client traffic must produce answers byte-identical
// to in-process engine queries (at 1 and 4 store shards), unknown
// engines and malformed frames get typed error responses, a fast
// request is answered while a slow one still runs, admission control
// sheds deterministically while the workers are held, oversized
// frames drop the connection instead of allocating, and Stop sheds what
// is in flight and shuts every connection down.
//
// Overload is driven by GatedEngine: requests sent to the "gated"
// engine hold their worker until the test opens the gate, so with one
// worker the number of requests in flight is a pure function of what
// the reader admitted. Every wait is either a blocking Receive() on a
// response the server is guaranteed to send or a bounded poll
// (Readable, WaitUntil) that turns a hang of a broken server into a
// failure.
//
// ServerStats snapshots the process-wide registry, which accumulates
// across the tests in this binary — every assertion is on a delta
// against a snapshot taken right after the server under test started.

#include "server/server.h"

#include <gtest/gtest.h>

#include <poll.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/sync.h"
#include "lineage/engine.h"
#include "lineage/index_proj_lineage.h"
#include "lineage/wire.h"
#include "provenance/trace_store.h"
#include "server/client.h"
#include "server/frame.h"
#include "server/slow_log.h"
#include "testbed/synthetic.h"
#include "testbed/workbench.h"

namespace provlin::server {
namespace {

using lineage::InterestSet;
using lineage::LineageAnswer;
using lineage::LineageRequest;
using provenance::TraceStoreOptions;
using testbed::Workbench;
using workflow::kWorkflowProcessor;
using workflow::PortRef;
namespace wire = lineage::wire;

/// Serialized answer with the timing struct zeroed. Timing fields are
/// wall-clock and cache-state dependent — everything else (the
/// bindings, their order, every string and index) must survive the
/// network round-trip byte-for-byte.
std::string AnswerBytes(LineageAnswer answer) {
  answer.timing = lineage::LineageTiming{};
  return wire::EncodeAnswerResponseV2(0, answer, nullptr);
}

/// An engine that forwards to `inner` but holds every Query() until
/// Open(): a request sent to it occupies its worker and its admission
/// slot for exactly as long as the test wants.
class GatedEngine final : public lineage::LineageEngine {
 public:
  explicit GatedEngine(const lineage::LineageEngine* inner) : inner_(inner) {}

  std::string_view name() const override { return "gated"; }

  Result<LineageAnswer> Query(const LineageRequest& request) const override {
    entered_.fetch_add(1);
    {
      common::MutexLock lock(mu_);
      while (!open_) cv_.Wait(mu_);
    }
    return inner_->Query(request);
  }

  void Open() {
    common::MutexLock lock(mu_);
    open_ = true;
    cv_.NotifyAll();
  }

  /// Query() calls so far, held or not: the requests a worker ran.
  int entered() const { return entered_.load(); }

 private:
  const lineage::LineageEngine* inner_;
  mutable std::atomic<int> entered_{0};
  mutable common::Mutex mu_{common::LockRank::kTestInner};
  mutable common::CondVar cv_;
  bool open_ GUARDED_BY(mu_) = false;
};

/// A served workbench: runs executed, "naive", "indexproj" and "gated"
/// (naive behind a closed gate) registered, server listening on an
/// ephemeral loopback port. `before` is the stats snapshot all
/// assertions diff against.
struct Served {
  Served() = default;
  Served(Served&&) = default;
  /// Opens the gate first: the server's Stop waits for every request in
  /// flight, including any still held at the gate.
  ~Served() {
    if (gate != nullptr) gate->Open();
  }

  std::unique_ptr<Workbench> wb;
  std::unique_ptr<GatedEngine> gate;
  std::unique_ptr<LineageServer> server;
  std::vector<std::string> runs;
  ServerStats before;
};

Served StartSynthetic(size_t shards, ServerOptions options = {},
                      const std::function<void(Served&)>& before_start = {}) {
  Served s;
  TraceStoreOptions store_options;
  store_options.shards = shards;
  auto wb = Workbench::Synthetic(5, store_options);
  EXPECT_TRUE(wb.ok());
  s.wb = std::move(*wb);
  for (int r = 0; r < 3; ++r) {
    std::string run = "r" + std::to_string(r);
    EXPECT_TRUE(s.wb->RunSynthetic(2 + r, run).ok()) << run;
    s.runs.push_back(run);
  }
  s.gate = std::make_unique<GatedEngine>(s.wb->Engine("naive"));
  LineageServer::EngineMap engines;
  engines["naive"] = s.wb->Engine("naive");
  engines["indexproj"] = s.wb->Engine("indexproj");
  engines["gated"] = s.gate.get();
  s.server = std::make_unique<LineageServer>(std::move(engines), options);
  // Pre-Start configuration (e.g. SetExplainer, which must not be
  // called once the server is serving).
  if (before_start) before_start(s);
  EXPECT_TRUE(s.server->Start().ok());
  s.before = s.server->stats();
  return s;
}

/// True once `client` has something to read (a frame or EOF) within
/// `timeout_ms`. Bounds a wait that a broken server would turn into a
/// hang.
bool Readable(const LineageClient& client, int timeout_ms = 20000) {
  pollfd pfd{client.socket().fd(), POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) == 1;
}

/// Polls `done` until it holds or `timeout_ms` passes.
bool WaitUntil(const std::function<bool()>& done, int timeout_ms = 20000) {
  for (int waited = 0; !done(); ++waited) {
    if (waited >= timeout_ms) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Stops the server while requests are still held at the gate. The
/// gate opens only once `client` sees EOF, which Stop causes by shutting
/// the sockets down after it has begun, so every held request finishes
/// after Stop began and must be shed. A server that never shuts the
/// connection down fails here instead of hanging: the gate opens anyway
/// after the bounded wait. Callers run one worker; it must already be
/// held at the gate, or Stop could shed a request that had not started
/// and write that shed before the EOF.
void StopWithGateClosed(Served& s, LineageClient& client) {
  ASSERT_TRUE(WaitUntil([&] { return s.gate->entered() >= 1; }));
  std::thread opener([&] {
    if (Readable(client)) {
      auto eof = client.Receive();
      EXPECT_FALSE(eof.ok()) << "expected EOF, got a frame for request "
                             << eof->request_id << ": " << eof->message;
    } else {
      ADD_FAILURE() << "Stop never shut the connection down";
    }
    s.gate->Open();
  });
  s.server->Stop();
  opener.join();
}

/// The query mix both halves of the equivalence test execute: both
/// engines, several targets/indexes/focus sets, single- and multi-run.
struct NamedRequest {
  std::string engine;
  LineageRequest request;
};

std::vector<NamedRequest> BuildMix(const std::vector<std::string>& runs) {
  const std::pair<PortRef, Index> queries[] = {
      {{kWorkflowProcessor, "RESULT"}, Index()},
      {{kWorkflowProcessor, "RESULT"}, Index({1})},
      {{kWorkflowProcessor, "RESULT"}, Index({1, 2})},
  };
  const InterestSet interests[] = {{}, {testbed::kListGen}};
  std::vector<NamedRequest> mix;
  for (const char* engine : {"naive", "indexproj"}) {
    for (const auto& [port, q] : queries) {
      for (const InterestSet& interest : interests) {
        for (const std::string& run : runs) {
          mix.push_back(
              {engine, LineageRequest::SingleRun(run, port, q, interest)});
        }
        mix.push_back(
            {engine, LineageRequest::MultiRun(runs, port, q, interest)});
      }
    }
  }
  return mix;
}

/// Concurrent clients each replay the whole mix against the server and
/// assert every served answer is byte-identical to the in-process
/// answer from the same engine instance.
void ExpectServedMatchesInProcess(size_t shards) {
  Served s = StartSynthetic(shards);
  std::vector<NamedRequest> mix = BuildMix(s.runs);

  // In-process ground truth, computed before any served traffic so the
  // comparison cannot depend on cache state the server warmed.
  std::vector<std::string> want;
  want.reserve(mix.size());
  for (const NamedRequest& nr : mix) {
    auto answer = s.wb->Engine(nr.engine)->Query(nr.request);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    want.push_back(AnswerBytes(*answer));
  }

  constexpr size_t kClients = 4;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = LineageClient::Connect("127.0.0.1", s.server->port());
      if (!client.ok()) {
        failures[c] = client.status().ToString();
        return;
      }
      for (size_t i = 0; i < mix.size(); ++i) {
        auto response = client->Call(mix[i].engine, mix[i].request);
        if (!response.ok()) {
          failures[c] = response.status().ToString();
          return;
        }
        if (!response->ok) {
          failures[c] =
              "request " + std::to_string(i) + ": " + response->message;
          return;
        }
        if (AnswerBytes(response->answer) != want[i]) {
          failures[c] = "request " + std::to_string(i) + " (" +
                        mix[i].engine +
                        "): served answer diverges from in-process";
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }

  ServerStats stats = s.server->stats();
  EXPECT_EQ(stats.requests - s.before.requests, kClients * mix.size());
  EXPECT_EQ(stats.responses_ok - s.before.responses_ok,
            kClients * mix.size());
  EXPECT_EQ(stats.responses_error, s.before.responses_error);
  EXPECT_EQ(stats.overload_shed, s.before.overload_shed);
  EXPECT_EQ(stats.bad_frames, s.before.bad_frames);
  s.server->Stop();
}

TEST(ServerTest, ServedMatchesInProcessUnsharded) {
  ExpectServedMatchesInProcess(1);
}

TEST(ServerTest, ServedMatchesInProcessFourShards) {
  ExpectServedMatchesInProcess(4);
}

TEST(ServerTest, UnknownEngineIsBadRequest) {
  Served s = StartSynthetic(1);
  auto client = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(client.ok());
  auto response = client->Call(
      "bogus", LineageRequest::SingleRun(
                   "r0", {kWorkflowProcessor, "RESULT"}, Index()));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->code, wire::ErrorCode::kBadRequest);
  EXPECT_NE(response->message.find("unknown engine"), std::string::npos)
      << response->message;
  EXPECT_TRUE(response->ToStatus().IsInvalidArgument());

  // A good request on the same connection still works afterwards.
  auto good = client->Call(
      "naive", LineageRequest::SingleRun(
                   "r0", {kWorkflowProcessor, "RESULT"}, Index()));
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->ok);
  s.server->Stop();
}

TEST(ServerTest, UnknownTargetIsTypedNotFound) {
  Served s = StartSynthetic(1);
  auto client = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(client.ok());
  auto response = client->Call(
      "indexproj", LineageRequest::SingleRun(
                       "r0", {kWorkflowProcessor, "NO_SUCH_PORT"}, Index()));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->code, wire::ErrorCode::kNotFound);
  EXPECT_TRUE(response->ToStatus().IsNotFound());
  s.server->Stop();
}

TEST(ServerTest, FastRequestAnsweredWhileSlowOneRuns) {
  // Each request is answered by the worker that ran it: a fast request
  // pipelined behind a held one on the same connection must come back
  // while the held one is still running.
  ServerOptions options;
  options.threads = 2;
  Served s = StartSynthetic(1, options);
  auto client = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(client.ok());
  auto slow_id = client->Send(
      "gated", LineageRequest::SingleRun(
                   "r0", {kWorkflowProcessor, "RESULT"}, Index()));
  ASSERT_TRUE(slow_id.ok());
  auto fast_id = client->Send(
      "indexproj", LineageRequest::SingleRun(
                       "r1", {kWorkflowProcessor, "RESULT"}, Index({1})));
  ASSERT_TRUE(fast_id.ok());

  // A server that holds the fast answer behind the gated request sends
  // nothing until the gate opens: bound the wait so it fails, not hangs.
  if (!Readable(*client)) {
    s.gate->Open();
    FAIL() << "no answer while the gated request runs";
  }
  auto first = client->Receive();
  s.gate->Open();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->request_id, *fast_id)
      << "the fast answer waited for the held request";
  EXPECT_TRUE(first->ok) << first->message;
  EXPECT_FALSE(first->answer.bindings.empty());

  auto second = client->Receive();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->request_id, *slow_id);
  EXPECT_TRUE(second->ok) << second->message;
  EXPECT_EQ(s.server->stats().responses_ok - s.before.responses_ok, 2u);
  s.server->Stop();
}

TEST(ServerTest, OverloadShedsDeterministically) {
  ServerOptions options;
  options.max_queue = 2;
  options.threads = 1;
  Served s = StartSynthetic(1, options);
  // The one worker holds the first request at the gate, so nothing
  // finishes: after k pipelined sends exactly min(k, max_queue) are in
  // flight and the rest are shed by the reader thread with typed
  // OVERLOADED.
  auto client = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(client.ok());
  LineageRequest req = LineageRequest::SingleRun(
      "r0", {kWorkflowProcessor, "RESULT"}, Index({1}));
  constexpr uint64_t kSent = 5;  // 2 in flight + 3 shed
  for (uint64_t i = 0; i < kSent; ++i) {
    ASSERT_TRUE(client->Send("gated", req).ok());
  }
  // The shed responses arrive first — the reader wrote them inline
  // while the admitted two are held behind the gate.
  for (uint64_t i = 0; i < kSent - options.max_queue; ++i) {
    auto response = client->Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->ok);
    EXPECT_EQ(response->code, wire::ErrorCode::kOverloaded);
    EXPECT_TRUE(response->ToStatus().IsUnavailable());
    EXPECT_NE(response->message.find("queue full"), std::string::npos);
    // Shed responses echo the id of the refused request (3, 4, 5).
    EXPECT_GT(response->request_id, options.max_queue);
  }

  s.gate->Open();
  for (uint64_t i = 0; i < options.max_queue; ++i) {
    auto response = client->Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->ok) << response->message;
    EXPECT_LE(response->request_id, options.max_queue);
  }

  ServerStats stats = s.server->stats();
  EXPECT_EQ(stats.requests - s.before.requests, kSent);
  EXPECT_EQ(stats.overload_shed - s.before.overload_shed,
            kSent - options.max_queue);
  EXPECT_EQ(stats.responses_ok - s.before.responses_ok, options.max_queue);
  s.server->Stop();
}

TEST(ServerTest, WrongVersionFrameGetsTypedError) {
  Served s = StartSynthetic(1);
  auto socket = TcpConnect("127.0.0.1", s.server->port());
  ASSERT_TRUE(socket.ok());

  // Frames whose payload leads with a version byte the server does not
  // speak: the retired v1 and a version from the future. The id field
  // sits at the same offset in every version, so the server can still
  // echo it in the error.
  wire::RequestEnvelope envelope;
  envelope.engine = "naive";
  const uint8_t versions[] = {1, 9};
  for (uint8_t version : versions) {
    envelope.request_id = 70 + version;
    std::string payload = wire::EncodeRequestEnvelope(envelope);
    payload[0] = static_cast<char>(version);
    ASSERT_TRUE(WriteFrame(*socket, payload).ok());

    std::string response_payload;
    auto got = ReadFrame(*socket, &response_payload);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(*got);
    auto response = wire::DecodeResponseEnvelope(response_payload);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->ok);
    EXPECT_EQ(response->code, wire::ErrorCode::kUnsupportedVersion)
        << "version " << int{version};
    EXPECT_EQ(response->request_id, 70u + version);
  }
  EXPECT_EQ(s.server->stats().bad_frames - s.before.bad_frames, 2u);

  // The connection survives: a well-formed request that follows on the
  // same socket is answered.
  envelope.request_id = 80;
  envelope.request = LineageRequest::SingleRun(
      "r1", {kWorkflowProcessor, "RESULT"}, Index({1}));
  ASSERT_TRUE(WriteFrame(*socket, wire::EncodeRequestEnvelope(envelope)).ok());
  std::string response_payload;
  auto got = ReadFrame(*socket, &response_payload);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(*got);
  auto response = wire::DecodeResponseEnvelope(response_payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ok) << response->message;
  EXPECT_EQ(response->request_id, 80u);
  EXPECT_FALSE(response->answer.bindings.empty());
  s.server->Stop();
}

TEST(ServerTest, MalformedPayloadGetsBadRequest) {
  Served s = StartSynthetic(1);
  auto socket = TcpConnect("127.0.0.1", s.server->port());
  ASSERT_TRUE(socket.ok());

  // Right version, right type, salvageable id, garbage body.
  std::string payload;
  payload.push_back(static_cast<char>(wire::kWireVersion));
  payload.push_back(static_cast<char>(wire::MessageType::kRequest));
  uint64_t id = 123;
  payload.append(reinterpret_cast<const char*>(&id), sizeof(id));
  payload += "\xff\xff\xff\xff";
  ASSERT_TRUE(WriteFrame(*socket, payload).ok());

  std::string response_payload;
  auto got = ReadFrame(*socket, &response_payload);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(*got);
  auto response = wire::DecodeResponseEnvelope(response_payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->code, wire::ErrorCode::kBadRequest);
  EXPECT_EQ(response->request_id, 123u);
  EXPECT_EQ(s.server->stats().bad_frames - s.before.bad_frames, 1u);
  s.server->Stop();
}

TEST(ServerTest, OversizedFrameDropsConnection) {
  ServerOptions options;
  options.max_frame_bytes = 1024;
  Served s = StartSynthetic(1, options);
  auto socket = TcpConnect("127.0.0.1", s.server->port());
  ASSERT_TRUE(socket.ok());

  // The client-side ceiling is the default 16MB, so the frame goes out;
  // the server sees a length prefix above ITS ceiling and must drop the
  // connection (a mis-framed stream cannot be resynchronized).
  std::string huge(4096, 'x');
  ASSERT_TRUE(WriteFrame(*socket, huge).ok());

  // The connection dies without a response: clean EOF, or a reset if
  // the server closed with our payload still unread. Never a frame,
  // never a hang.
  std::string response_payload;
  auto got = ReadFrame(*socket, &response_payload);
  EXPECT_TRUE(!got.ok() || !*got);
}

TEST(ServerTest, TimelineAttachedOnlyWhenRequested) {
  Served s = StartSynthetic(4);
  auto client = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(client.ok());
  LineageRequest req = LineageRequest::SingleRun(
      "r1", {kWorkflowProcessor, "RESULT"}, Index({1}));

  // Without the flag the answer carries no timeline.
  auto plain = client->Call("indexproj", req);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(plain->ok) << plain->message;
  EXPECT_FALSE(plain->has_timeline);

  // Asking for the timeline: same answer, plus the phase decomposition
  // with its invariants.
  auto timed = client->Call("indexproj", req, /*want_timeline=*/true);
  ASSERT_TRUE(timed.ok()) << timed.status().ToString();
  ASSERT_TRUE(timed->ok) << timed->message;
  ASSERT_TRUE(timed->has_timeline);
  EXPECT_EQ(AnswerBytes(timed->answer), AnswerBytes(plain->answer));

  const wire::RequestTimeline& tl = timed->timeline;
  EXPECT_GE(tl.queue_ms, 0.0);
  EXPECT_GE(tl.dispatch_ms, 0.0);
  EXPECT_GT(tl.total_ms, 0.0);
  // serialize/write are structurally unknowable at encode time and are
  // always 0 on the wire (wire.h contract).
  EXPECT_EQ(tl.serialize_ms, 0.0);
  EXPECT_EQ(tl.write_ms, 0.0);
  // The phases nest inside the total (all measured on the server from
  // the same admission timer; tiny fp slack only).
  EXPECT_LE(tl.queue_ms + tl.dispatch_ms + tl.execute_ms,
            tl.total_ms + 1e-6);
  // An indexproj query does physical probe work, attributed per shard;
  // the hot/sealed split must cover exactly the per-shard sum.
  EXPECT_GT(tl.trace_probes, 0u);
  ASSERT_FALSE(tl.shards.empty());
  uint64_t shard_probes = 0;
  for (const wire::ShardCost& sc : tl.shards) {
    EXPECT_LT(sc.shard, 4u);
    shard_probes += sc.probes;
  }
  EXPECT_GT(shard_probes, 0u);
  EXPECT_EQ(tl.hot_probes + tl.sealed_probes, shard_probes);
  s.server->Stop();
}

TEST(ServerTest, StatsScrapeAnsweredWhileDispatchIsFrozen) {
  // The STATS path must never take an admission slot: hold the only
  // worker at the gate, fill admission to the brim, and a scrape on a
  // fresh connection still answers immediately.
  ServerOptions options;
  options.max_queue = 2;
  options.threads = 1;
  Served s = StartSynthetic(1, options);

  auto busy = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(busy.ok());
  LineageRequest req = LineageRequest::SingleRun(
      "r0", {kWorkflowProcessor, "RESULT"}, Index());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(busy->Send("gated", req).ok());
  }
  // The shed response for request 3 proves admission is full.
  auto shed = busy->Receive();
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->code, wire::ErrorCode::kOverloaded);

  auto scraper = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(scraper.ok());
  auto stats = scraper->Stats(wire::kStatsWantMetrics);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->has_metrics);
  EXPECT_NE(stats->prometheus_text.find("provlin_server_queue_depth"),
            std::string::npos);
  EXPECT_FALSE(stats->has_trace);

  // Scrapes are accounted separately from requests: the request
  // counters still balance without them.
  ServerStats after = s.server->stats();
  EXPECT_EQ(after.stats_requests - s.before.stats_requests, 1u);
  EXPECT_EQ(after.requests - s.before.requests, 3u);

  s.gate->Open();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(busy->Receive().ok());
  }
  s.server->Stop();
}

TEST(ServerTest, ConcurrentScrapesDuringTraffic) {
  // TSan-hammered: several client threads serve real queries while a
  // scraper thread pulls STATS snapshots from its own connection. At
  // the end the served-request balance must hold exactly:
  // answers + errors + sheds == requests admitted.
  Served s = StartSynthetic(4);
  std::vector<NamedRequest> mix = BuildMix(s.runs);

  constexpr size_t kClients = 3;
  constexpr int kScrapes = 25;
  std::vector<std::string> failures(kClients + 1);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = LineageClient::Connect("127.0.0.1", s.server->port());
      if (!client.ok()) {
        failures[c] = client.status().ToString();
        return;
      }
      for (size_t i = 0; i < mix.size(); ++i) {
        auto response =
            client->Call(mix[i].engine, mix[i].request, i % 2 == 0);
        if (!response.ok()) {
          failures[c] = response.status().ToString();
          return;
        }
        if (!response->ok) {
          failures[c] = response->message;
          return;
        }
        if ((i % 2 == 0) != response->has_timeline) {
          failures[c] = "timeline presence does not match the request flag";
          return;
        }
      }
    });
  }
  threads.emplace_back([&] {
    auto scraper = LineageClient::Connect("127.0.0.1", s.server->port());
    if (!scraper.ok()) {
      failures[kClients] = scraper.status().ToString();
      return;
    }
    for (int i = 0; i < kScrapes; ++i) {
      auto stats = scraper->Stats(wire::kStatsWantMetrics);
      if (!stats.ok()) {
        failures[kClients] = stats.status().ToString();
        return;
      }
      if (!stats->has_metrics || stats->prometheus_text.empty()) {
        failures[kClients] = "scrape returned no metrics";
        return;
      }
    }
  });
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < failures.size(); ++i) {
    EXPECT_EQ(failures[i], "") << "thread " << i;
  }

  ServerStats stats = s.server->stats();
  EXPECT_EQ(stats.requests - s.before.requests, kClients * mix.size());
  EXPECT_EQ((stats.responses_ok - s.before.responses_ok) +
                (stats.responses_error - s.before.responses_error) +
                (stats.overload_shed - s.before.overload_shed),
            stats.requests - s.before.requests);
  EXPECT_EQ(stats.stats_requests - s.before.stats_requests,
            static_cast<uint64_t>(kScrapes));
  s.server->Stop();
}

TEST(ServerTest, QueueDepthGaugeTracksQueueAndDrainsToZero) {
  common::metrics::Gauge* depth =
      common::metrics::GetGauge("server/queue_depth");
  ServerOptions options;
  options.max_queue = 2;
  options.threads = 1;
  Served s = StartSynthetic(1, options);

  auto client = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(client.ok());
  LineageRequest req = LineageRequest::SingleRun(
      "r0", {kWorkflowProcessor, "RESULT"}, Index());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client->Send("gated", req).ok());
  }
  // The shed response for request 3 proves both earlier requests were
  // admitted — with the worker held at the gate the gauge must read
  // exactly the admission bound.
  auto shed = client->Receive();
  ASSERT_TRUE(shed.ok());
  ASSERT_EQ(shed->code, wire::ErrorCode::kOverloaded);
  EXPECT_EQ(depth->Value(), 2);

  s.gate->Open();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client->Receive().ok());
  }
  // Both responses received ⇒ both slots were released: a worker
  // releases its slot, under the admission lock that also sets the
  // gauge, before it writes the answer.
  EXPECT_EQ(depth->Value(), 0);
  s.server->Stop();
  EXPECT_EQ(depth->Value(), 0);
}

TEST(ServerTest, QueueDepthGaugeZeroAfterStopSheds) {
  common::metrics::Gauge* depth =
      common::metrics::GetGauge("server/queue_depth");
  ServerOptions options;
  options.max_queue = 4;
  options.threads = 1;
  Served s = StartSynthetic(1, options);

  auto client = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(client.ok());
  LineageRequest req = LineageRequest::SingleRun(
      "r0", {kWorkflowProcessor, "RESULT"}, Index());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client->Send("gated", req).ok());
  }
  auto shed = client->Receive();
  ASSERT_TRUE(shed.ok());
  ASSERT_EQ(shed->code, wire::ErrorCode::kOverloaded);
  EXPECT_EQ(depth->Value(), 4);

  // Stop with four requests still in flight: the shutdown shed path
  // must leave the gauge at zero, not frozen at the old occupancy.
  StopWithGateClosed(s, *client);
  EXPECT_EQ(depth->Value(), 0);
  EXPECT_EQ(s.server->stats().overload_shed - s.before.overload_shed, 5u);
}

TEST(ServerTest, SlowLogRecordsEveryRequestAtThresholdZero) {
  std::string log_path =
      ::testing::TempDir() + "/slow_requests_test.jsonl";
  std::remove(log_path.c_str());
  ServerOptions options;
  options.slow_request_ms = 0.0;  // log every served request
  options.slow_log_path = log_path;

  // The EXPLAIN payload in the log is produced exactly like the CLI's
  // `explain` output (ExplainResult::ToJson over the same engine).
  Served s = StartSynthetic(1, options, [](Served& served) {
    lineage::IndexProjLineage* engine = served.wb->IndexProj();
    provenance::TraceStore* store = served.wb->store();
    served.server->SetExplainer(
        "indexproj", [engine, store](const LineageRequest& request) {
          auto explained = engine->Explain(request);
          if (!explained.ok()) return std::string();
          return explained->ToJson(*store);
        });
  });
  lineage::IndexProjLineage* engine = s.wb->IndexProj();
  provenance::TraceStore* store = s.wb->store();

  auto client = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(client.ok());
  LineageRequest req = LineageRequest::SingleRun(
      "r0", {kWorkflowProcessor, "RESULT"}, Index({1}));
  auto indexed = client->Call("indexproj", req, /*want_timeline=*/true);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(indexed->ok) << indexed->message;
  auto naive = client->Call("naive", req);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(naive->ok);
  s.server->Stop();
  EXPECT_EQ(s.server->stats().slow_requests_logged -
                s.before.slow_requests_logged,
            2u);

  std::ifstream in(log_path);
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  // Each worker appends its own record after writing the answer, so the
  // client can send the second request before the first record lands:
  // records are matched by engine, not by position.
  if (lines[0].find("\"engine\":\"naive\"") != std::string::npos) {
    std::swap(lines[0], lines[1]);
  }

  // The indexproj record carries an EXPLAIN payload whose step
  // structure matches an in-process Explain of the same request.
  const std::string& rec = lines[0];
  EXPECT_NE(rec.find("\"engine\":\"indexproj\""), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"status\":\"OK\""), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"timeline\":{"), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"queue_ms\":"), std::string::npos);
  EXPECT_NE(rec.find("\"serialize_ms\":"), std::string::npos);
  EXPECT_NE(rec.find("\"write_ms\":"), std::string::npos);
  EXPECT_NE(rec.find("\"shards\":["), std::string::npos);
  auto explained = engine->Explain(req);
  ASSERT_TRUE(explained.ok());
  std::string explain_json = explained->ToJson(*store);
  // Wall-times differ run to run; the plan identity (every generated
  // trace query, in order) must match the CLI's exactly.
  for (const lineage::ExplainStep& step : explained->steps) {
    std::string quoted;
    {
      std::string raw = step.query.ToString(*store);
      quoted.reserve(raw.size());
      for (char ch : raw) {
        if (ch == '"' || ch == '\\') quoted += '\\';
        quoted += ch;
      }
    }
    EXPECT_NE(rec.find(quoted), std::string::npos)
        << "slow-log EXPLAIN lacks step " << step.query.ToString(*store);
  }
  EXPECT_NE(rec.find("\"plan_cache_hit\":"), std::string::npos);
  // The naive engine has no registered explainer → null.
  EXPECT_NE(lines[1].find("\"engine\":\"naive\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"explain\":null"), std::string::npos);
  std::remove(log_path.c_str());
  std::remove((log_path + ".1").c_str());
}

TEST(ServerTest, SlowLogRotatesAtByteBound) {
  std::string path = ::testing::TempDir() + "/slow_rotate_test.jsonl";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  SlowRequestLog::Options options;
  options.path = path;
  options.max_bytes = 256;
  auto log = SlowRequestLog::Open(options);
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  const std::string record(100, 'x');
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*log)->Append("{\"r\":\"" + record + "\"}").ok());
  }
  EXPECT_EQ((*log)->records(), 5u);

  // The live file was rotated: it must hold fewer than max_bytes' worth
  // of records, and the previous generation sits at <path>.1.
  std::ifstream live(path);
  ASSERT_TRUE(live.is_open());
  std::string all((std::istreambuf_iterator<char>(live)),
                  std::istreambuf_iterator<char>());
  EXPECT_LE(all.size(), options.max_bytes);
  EXPECT_GT(all.size(), 0u);
  std::ifstream rotated(path + ".1");
  EXPECT_TRUE(rotated.is_open());
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST(ServerTest, StopShedsQueuedRequests) {
  ServerOptions options;
  options.max_queue = 2;
  options.threads = 1;
  Served s = StartSynthetic(1, options);

  auto client = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(client.ok());
  LineageRequest req = LineageRequest::SingleRun(
      "r0", {kWorkflowProcessor, "RESULT"}, Index());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client->Send("gated", req).ok());
  }
  // Receiving the reader-shed response for request 3 proves requests 1
  // and 2 were admitted and are held (the reader is strictly in-order),
  // so Stop below deterministically finds two in flight.
  auto shed = client->Receive();
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->code, wire::ErrorCode::kOverloaded);
  // The one worker runs request 1; request 2 waits behind it.
  ASSERT_TRUE(WaitUntil([&] { return s.gate->entered() == 1; }));

  // Stop with two requests in flight that finish only after it began:
  // shutdown must not hang, and both are shed (their responses may or
  // may not reach the closing socket — liveness and the shed
  // accounting are what is guaranteed). Request 2 is shed without
  // running: Stop waits for executing requests, not queued ones.
  StopWithGateClosed(s, *client);
  EXPECT_EQ(s.server->stats().overload_shed - s.before.overload_shed, 3u);
  EXPECT_EQ(s.gate->entered(), 1);
}

TEST(ServerTest, StopShutsDownConnectionWhoseReaderExited) {
  // A connection whose reader has exited while one of its requests is
  // still running must still be shut down by Stop, or the client waiting
  // on that request never sees EOF. Stop itself can end a reader between
  // two frames, after which the accept loop may reap it before Stop lists
  // the connections; a bad frame ends the reader deterministically.
  ServerOptions options;
  options.threads = 1;
  options.max_frame_bytes = 1024;
  Served s = StartSynthetic(1, options);

  auto client = LineageClient::Connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client
                  ->Send("gated", LineageRequest::SingleRun(
                                      "r0", {kWorkflowProcessor, "RESULT"},
                                      Index()))
                  .ok());
  ASSERT_TRUE(WaitUntil([&] { return s.gate->entered() == 1; }));
  // Above the server's frame ceiling: the reader drops the stream and
  // exits, with the gated request still running.
  ASSERT_TRUE(WriteFrame(client->socket(), std::string(4096, 'x')).ok());
  ASSERT_TRUE(WaitUntil([&] {
    return s.server->stats().bad_frames - s.before.bad_frames == 1;
  }));
  // Several accept-loop poll periods (100 ms): long enough for the
  // exited reader to be reaped if in-flight work did not keep it listed.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  StopWithGateClosed(s, *client);
  EXPECT_EQ(s.server->stats().overload_shed - s.before.overload_shed, 1u);
}

}  // namespace
}  // namespace provlin::server
