// Load generation over loopback TCP against a LineageServer, speaking
// current-version wire frames through the server's public frame and
// codec functions. One process; the open loop uses the calling thread
// as sender plus one receiver thread, the closed loop runs on the
// calling thread alone; at most kConnections connections.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "lineage/wire.h"
#include "workload.h"

namespace perfbench {

inline constexpr size_t kConnections = 4;

/// Outcome class of one answered request.
enum class Outcome : uint8_t { kOk, kShed, kError, kWrong };

/// Classifies a decoded response for draw `k` (answer check included).
using CheckFn =
    std::function<Outcome(size_t k, const pl::lineage::wire::ResponseEnvelope&)>;

/// Builds the request envelope for draw `k` (engine + request).
using EnvelopeFn = std::function<pl::lineage::wire::RequestEnvelope(size_t k)>;

struct Sample {
  uint32_t draw = 0;
  double latency_ms = 0;  ///< open loop: from the intended send time
  Outcome outcome = Outcome::kOk;
  bool has_timeline = false;
  double queue_ms = 0, dispatch_ms = 0, execute_ms = 0;
};

struct LoadResult {
  std::vector<Sample> samples;
  std::vector<double> late_ms;  ///< sender lateness behind schedule
  uint64_t attempted = 0;
  uint64_t unanswered = 0;      ///< sent but no answer before the deadline
  uint64_t completed_in_window = 0;  ///< correct answers within --seconds
  double seconds = 0;
  pl::Status transport;  ///< first socket-level failure, if any

  uint64_t Count(Outcome o) const {
    uint64_t n = 0;
    for (const Sample& s : samples) n += s.outcome == o;
    return n;
  }
  std::vector<double> Latencies() const {
    std::vector<double> v;
    v.reserve(samples.size());
    for (const Sample& s : samples) v.push_back(s.latency_ms);
    return v;
  }
};

/// Open loop: sends draw k at start + k / rate regardless of answers,
/// for `seconds`, then waits for the stragglers.
LoadResult OpenLoop(uint16_t port, double rate, double seconds,
                    const EnvelopeFn& envelope, const CheckFn& check);

/// Closed loop: keeps `window` requests outstanding across the
/// connections for `seconds` (or until `max_requests` were sent, when
/// non-zero); every answer triggers the next send.
LoadResult ClosedLoop(uint16_t port, size_t window, double seconds,
                      size_t max_requests, const EnvelopeFn& envelope,
                      const CheckFn& check);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
