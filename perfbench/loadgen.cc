#include "loadgen.h"

#include <poll.h>

#include <thread>

#include "server/frame.h"
#include "stats.h"

namespace perfbench {

namespace wire = pl::lineage::wire;
using pl::server::Socket;

namespace {

pl::Status Connect(uint16_t port, std::vector<Socket>* out) {
  for (size_t c = 0; c < kConnections; ++c) {
    PROVLIN_ASSIGN_OR_RETURN(Socket s, pl::server::TcpConnect("127.0.0.1", port));
    out->push_back(std::move(s));
  }
  return pl::Status::OK();
}

void FillSample(const wire::ResponseEnvelope& env, Sample* s) {
  s->has_timeline = env.has_timeline;
  if (env.has_timeline) {
    s->queue_ms = env.timeline.queue_ms;
    s->dispatch_ms = env.timeline.dispatch_ms;
    s->execute_ms = env.timeline.execute_ms;
  }
}

pl::Status Send(const Socket& sock, const EnvelopeFn& envelope, size_t k) {
  wire::RequestEnvelope env = envelope(k);
  env.request_id = k + 1;
  return pl::server::WriteFrame(sock, wire::EncodeRequestEnvelope(env));
}

}  // namespace

LoadResult OpenLoop(uint16_t port, double rate, double seconds,
                    const EnvelopeFn& envelope, const CheckFn& check) {
  LoadResult out;
  out.seconds = seconds;
  std::vector<Socket> socks;
  if (pl::Status s = Connect(port, &socks); !s.ok()) {
    out.transport = s;
    return out;
  }
  const size_t n = std::max<size_t>(1, static_cast<size_t>(rate * seconds));
  out.attempted = n;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  auto due = [&](size_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(k) /
                                                     rate));
  };
  std::vector<Sample> slots(n);
  std::vector<uint8_t> got(n, 0);
  pl::Status recv_status;
  std::thread receiver([&] {
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds + 10.0));
    std::vector<pollfd> fds;
    for (const Socket& s : socks) fds.push_back({s.fd(), POLLIN, 0});
    size_t received = 0;
    std::string payload;
    while (received < n && Clock::now() < deadline) {
      if (poll(fds.data(), fds.size(), 50) <= 0) continue;
      for (size_t c = 0; c < fds.size(); ++c) {
        if (fds[c].fd < 0 || fds[c].revents == 0) continue;
        pl::Result<bool> r = pl::server::ReadFrame(socks[c], &payload);
        const Clock::time_point now = Clock::now();
        if (!r.ok() || !*r) {
          recv_status = r.ok() ? pl::Status::Unavailable("server closed")
                               : r.status();
          fds[c].fd = -1;
          continue;
        }
        pl::Result<wire::ResponseEnvelope> env =
            wire::DecodeResponseEnvelope(payload);
        if (!env.ok() || env->request_id == 0 || env->request_id > n ||
            got[env->request_id - 1]) {
          recv_status = pl::Status::Corruption("undecodable or unmatched answer");
          continue;
        }
        const size_t k = env->request_id - 1;
        got[k] = 1;
        ++received;
        Sample& s = slots[k];
        s.draw = static_cast<uint32_t>(k);
        s.latency_ms = MsBetween(due(k), now);
        s.outcome = check(k, *env);
        FillSample(*env, &s);
      }
    }
  });
  out.late_ms.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    std::this_thread::sleep_until(due(k));
    out.late_ms.push_back(MsBetween(due(k), Clock::now()));
    if (pl::Status s = Send(socks[k % socks.size()], envelope, k); !s.ok()) {
      out.transport = s;
      break;
    }
  }
  receiver.join();
  if (out.transport.ok()) out.transport = recv_status;
  for (size_t k = 0; k < n; ++k) {
    if (got[k]) {
      out.samples.push_back(slots[k]);
    } else {
      ++out.unanswered;
    }
  }
  out.completed_in_window = out.Count(Outcome::kOk);
  return out;
}

LoadResult ClosedLoop(uint16_t port, size_t window, double seconds,
                      size_t max_requests, const EnvelopeFn& envelope,
                      const CheckFn& check) {
  LoadResult out;
  out.seconds = seconds;
  std::vector<Socket> socks;
  if (pl::Status s = Connect(port, &socks); !s.ok()) {
    out.transport = s;
    return out;
  }
  std::vector<Clock::time_point> sent;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const Clock::time_point deadline = end + std::chrono::seconds(10);
  size_t outstanding = 0;
  auto send_next = [&](size_t conn) -> bool {
    const size_t k = sent.size();
    if (max_requests != 0 && k >= max_requests) return true;
    sent.push_back(Clock::now());
    if (pl::Status s = Send(socks[conn], envelope, k); !s.ok()) {
      out.transport = s;
      return false;
    }
    ++outstanding;
    return true;
  };
  bool failed = false;
  for (size_t w = 0; w < window && !failed; ++w) {
    failed = !send_next(w % socks.size());
  }
  std::vector<pollfd> fds;
  for (const Socket& s : socks) fds.push_back({s.fd(), POLLIN, 0});
  std::string payload;
  while (!failed && outstanding > 0 && Clock::now() < deadline) {
    if (poll(fds.data(), fds.size(), 50) <= 0) continue;
    for (size_t c = 0; c < fds.size() && !failed; ++c) {
      if (fds[c].fd < 0 || fds[c].revents == 0) continue;
      pl::Result<bool> r = pl::server::ReadFrame(socks[c], &payload);
      const Clock::time_point now = Clock::now();
      if (!r.ok() || !*r) {
        out.transport =
            r.ok() ? pl::Status::Unavailable("server closed") : r.status();
        failed = true;
        break;
      }
      pl::Result<wire::ResponseEnvelope> env =
          wire::DecodeResponseEnvelope(payload);
      if (!env.ok() || env->request_id == 0 || env->request_id > sent.size()) {
        out.transport = pl::Status::Corruption("undecodable or unmatched answer");
        failed = true;
        break;
      }
      const size_t k = env->request_id - 1;
      --outstanding;
      Sample s;
      s.draw = static_cast<uint32_t>(k);
      s.latency_ms = MsBetween(sent[k], now);
      s.outcome = check(k, *env);
      FillSample(*env, &s);
      out.samples.push_back(s);
      if (now <= end) {
        if (s.outcome == Outcome::kOk) ++out.completed_in_window;
        failed = !send_next(c);
      }
    }
  }
  out.attempted = sent.size();
  out.unanswered = outstanding;
  return out;
}

}  // namespace perfbench
