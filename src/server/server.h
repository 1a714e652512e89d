#ifndef PROVLIN_SERVER_SERVER_H_
#define PROVLIN_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "common/sync.h"
#include "common/timer.h"
#include "lineage/service.h"
#include "lineage/wire.h"
#include "server/frame.h"
#include "server/slow_log.h"

namespace provlin::server {

/// Tuning knobs for the network lineage server.
struct ServerOptions {
  /// TCP port to listen on (loopback). 0 = kernel-assigned ephemeral
  /// port; recover it with LineageServer::port() (tests, --port-file).
  uint16_t port = 0;
  /// Connections beyond this are accepted and immediately closed (the
  /// client sees EOF) — one bounded reader thread per live connection.
  size_t max_connections = 64;
  /// Admission-control bound on requests in flight (admitted, not yet
  /// answered). A request arriving while this many are in flight gets a
  /// typed OVERLOADED response instead — pending work stays bounded no
  /// matter how fast clients push (DESIGN.md §12 backpressure policy).
  size_t max_queue = 256;
  /// Frame-size ceiling, both directions (see frame.h).
  uint32_t max_frame_bytes = lineage::wire::kDefaultMaxFrameBytes;
  /// Worker threads of the server's LineageService. The worker that
  /// runs a request also encodes and writes its answer.
  size_t threads = 4;
  /// Slow-request log threshold in milliseconds: a served request whose
  /// admission-to-encode total meets or exceeds it is appended to the
  /// structured JSON-lines log at `slow_log_path` (timeline, engine,
  /// shard fan-out, probe counts, EXPLAIN payload — DESIGN.md §14).
  /// Negative disables the log entirely; 0 logs every request (the
  /// round-trip test mode).
  double slow_request_ms = -1.0;
  std::string slow_log_path = "slow_requests.jsonl";
  /// Rotation bound for the slow-request log's live file.
  uint64_t slow_log_max_bytes = 4u << 20;
};

/// Cumulative served-traffic counters (value snapshot; also published
/// to the process-wide registry under server/*).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;
  uint64_t requests = 0;       ///< well-formed requests admitted or shed
  uint64_t responses_ok = 0;
  uint64_t responses_error = 0;  ///< typed errors other than OVERLOADED
  uint64_t overload_shed = 0;    ///< requests refused by admission control
  uint64_t bad_frames = 0;       ///< frames that failed envelope decode
  uint64_t stats_requests = 0;   ///< STATS scrapes (separate from requests)
  uint64_t slow_requests_logged = 0;  ///< records appended to the slow log
};

/// The network front-end of the lineage API: accepts loopback TCP
/// connections carrying length-prefixed wire.h frames, decodes
/// RequestEnvelopes, and hands each one to a shared concurrent
/// LineageService (so concurrent clients ride the same plan cache and
/// worker pool). The worker that ran a request writes its answer on the
/// requesting connection at once, so a fast request never waits for a
/// slow one.
///
/// Responses to one connection may arrive in any order; clients match
/// responses to requests by the echoed request id, never by order.
///
/// Admission control: a bounded count of requests in flight. When it
/// is reached the reader thread answers OVERLOADED immediately —
/// nothing queues, no memory grows, and the client gets a typed
/// retryable signal (Status::Unavailable through
/// ResponseEnvelope::ToStatus).
///
/// Lock inventory (DESIGN.md §12): admission_mu_ guards the in-flight
/// count; conns_mu_ guards the connection list; each connection's
/// write_mu serializes response frames. admission_mu_ and conns_mu_
/// are leaves and never held together; write_mu is taken with neither
/// held.
class LineageServer {
 public:
  /// Engine registry: wire engine names ("naive", "indexproj") to
  /// borrowed engines, which must outlive the server and be safe for
  /// concurrent Query() (both in-tree engines are).
  using EngineMap =
      std::map<std::string, const lineage::LineageEngine*, std::less<>>;

  /// Produces the EXPLAIN payload (a JSON object as a string) for a
  /// request against one engine — the same step costs the CLI's
  /// `explain` command prints. Must be safe for calls concurrent with
  /// Query() on the same engine. An empty string means "no explanation
  /// available" and is logged as JSON null.
  using ExplainFn = std::function<std::string(const lineage::LineageRequest&)>;

  LineageServer(EngineMap engines, ServerOptions options = {});
  /// Stops and joins if still running.
  ~LineageServer();
  LineageServer(const LineageServer&) = delete;
  LineageServer& operator=(const LineageServer&) = delete;

  /// Registers the EXPLAIN producer for a wire engine name, used by the
  /// slow-request log. Call before Start() — the map is read without a
  /// lock once serving.
  void SetExplainer(std::string engine, ExplainFn fn);

  /// Binds, listens, and spawns the accept thread.
  Status Start();

  /// Stops accepting, closes connections, joins the readers, and waits
  /// until every admitted request is done; one that finishes after Stop
  /// began is shed (typed OVERLOADED), and one not yet started is shed
  /// without running. Idempotent.
  void Stop();

  /// Bound port (valid after Start; the ephemeral port when port=0).
  uint16_t port() const { return port_; }

  ServerStats stats() const;

 private:
  /// One live client connection: the socket, a write lock serializing
  /// response frames (workers and the reader both respond), and the
  /// reader thread draining request frames.
  struct Connection {
    Socket socket;
    common::Mutex write_mu{common::LockRank::kServerConnWrite};
    std::thread reader;
    std::atomic<bool> done{false};
    /// Admitted requests of this connection not yet answered. A
    /// connection stays in conns_ while any is left, so Stop always
    /// finds it and shuts it down, even after its reader has exited.
    std::atomic<size_t> in_flight{0};

    Status Write(std::string_view payload, uint32_t max_frame_bytes)
        EXCLUDES(write_mu);
  };

  /// One admitted request, carried to the worker that answers it.
  struct Pending {
    std::shared_ptr<Connection> conn;
    lineage::wire::RequestEnvelope envelope;
    WallTimer admitted;  ///< request_ms measures admission → response
  };

  void AcceptLoop();
  void ReadLoop(std::shared_ptr<Connection> conn);
  /// Answers one STATS scrape inline on the reader thread — a scrape
  /// never takes an admission slot, so it cannot be shed or blocked by
  /// request traffic.
  void HandleStatsScrape(const std::shared_ptr<Connection>& conn,
                         std::string_view payload);
  /// Takes an in-flight slot: true = admitted, false = shed (caller
  /// answers OVERLOADED). Admit and Release are the only writers of
  /// in_flight_ and set server/queue_depth under admission_mu_, so the
  /// gauge never goes stale against the count.
  bool Admit() EXCLUDES(admission_mu_);
  void Release() EXCLUDES(admission_mu_);
  /// Completion of one admitted request, on the worker that ran it:
  /// encodes the answer (or a shutdown shed), releases the slot, writes
  /// the frame, and records the phase timeline.
  void Answer(const Pending& pending, const lineage::ServiceResponse& r);
  /// Joins and drops the connections whose reader has exited and that
  /// have no request in flight.
  void ReapFinishedConnections() EXCLUDES(conns_mu_);
  /// Appends one slow-request record (timeline + EXPLAIN payload).
  void LogSlowRequest(const Pending& pending,
                      const lineage::wire::RequestTimeline& timeline,
                      const Status& status);

  EngineMap engines_;
  ServerOptions options_;
  /// Wire engine name → EXPLAIN producer (slow-request log). Written
  /// before Start(), read-only while serving.
  std::map<std::string, ExplainFn, std::less<>> explainers_;
  /// Non-null iff options_.slow_request_ms >= 0 and the log opened.
  std::unique_ptr<SlowRequestLog> slow_log_;

  Socket listener_;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  common::Mutex admission_mu_{common::LockRank::kServerAdmission};
  size_t in_flight_ GUARDED_BY(admission_mu_) = 0;

  mutable common::Mutex conns_mu_{common::LockRank::kServerConnections};
  std::vector<std::shared_ptr<Connection>> conns_ GUARDED_BY(conns_mu_);

  std::thread accept_thread_;
  /// Declared last so it is destroyed first: completions run on its
  /// workers and touch the members above.
  lineage::LineageService service_;
};

}  // namespace provlin::server

#endif  // PROVLIN_SERVER_SERVER_H_
