// Seeded workload generation: which workflows are captured into which
// stores, the universe of distinct lineage requests, and the request
// streams each phase draws from. Everything here is a pure function of
// (workload, seed); the program under test only ever sees the outputs.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "lineage/engine.h"
#include "lineage/index_proj_lineage.h"
#include "lineage/naive_lineage.h"
#include "provenance/store_open.h"
#include "provenance/trace_store.h"
#include "workflow/dataflow.h"
#include "values/value.h"

namespace perfbench {

namespace pl = provlin;

enum class EngineKind : uint8_t { kNaive = 0, kIndexProj = 1 };

inline const char* EngineName(EngineKind e) {
  return e == EngineKind::kNaive ? "naive" : "indexproj";
}

/// The request kinds a mix draws from.
enum class MixKind {
  /// Synthetic requests: 3/4 IndexProj and 1/4 NI per send; focused,
  /// |P|=8, |P|=16 and unfocused; 30% multi-run.
  kServed,
  /// Half NI single-run, half unfocused multi-run IndexProj.
  kProbeHeavy,
  /// kServed's shape over the synthetic, GK and PD families.
  kFamilies,
};

/// One request mix: `size` distinct requests, drawn Zipf(zipf_s) by
/// popularity rank, or uniformly when zipf_s is 0. A request not tied to
/// an engine goes to NI with probability `ni_share`, else to IndexProj.
struct MixSpec {
  MixKind kind = MixKind::kServed;
  size_t size = 0;
  double zipf_s = 0.0;
  double ni_share = 0.25;
};

/// Fixed shape of one workload: store layout, request mixes, load, and
/// how a run's measuring time is split between phases (fractions of
/// --seconds; the headline phase gets most of it). Rates and the window
/// are absolute, fixed once from the seed commit.
struct WorkloadSpec {
  std::string name;
  bool seal_at_setup = false;      ///< every run sealed before serving
  bool wal_flush_per_run = false;  ///< per-shard WAL files; capture cycles
  MixSpec served;                  ///< served phases and warm-up
  MixSpec batch;                   ///< the batch phase; size 0 = `served`
  double low_rate = 0, high_rate = 0;  ///< open-loop req/s
  double latency_limit_ms = 0;         ///< applies to p99_ms.high
  double low_share = 0, high_share = 0, closed_share = 0, batch_share = 0,
         capture_share = 0;
  /// The phase whose figure heads the workload (trace overhead and
  /// unattributed time are computed on it): "low", "batch" or "capture".
  std::string headline;
};

/// The three workloads, by name; nullopt for an unknown name.
std::optional<WorkloadSpec> FindWorkload(const std::string& name);

/// One recorded run: id, workflow inputs, and the largest valid
/// top-level index (list size) of its queried outputs.
struct RunSpec {
  std::string id;
  std::map<std::string, pl::Value> inputs;
  int list_size = 0;
};

/// One workflow family: its dataflow and activities, the runs captured
/// for it, and the engines its requests are answered by.
struct Family {
  enum class Kind { kSynthetic, kGk, kPd };
  std::string name;  ///< wire engine prefix ("syn", "gk", "pd")
  Kind kind = Kind::kSynthetic;
  int chain_length = 0;  ///< synthetic only
  std::vector<RunSpec> runs;

  std::shared_ptr<const pl::workflow::Dataflow> flow;
  std::unique_ptr<pl::lineage::NaiveLineage> naive;
  std::unique_ptr<pl::lineage::IndexProjLineage> indexproj;

  const pl::lineage::LineageEngine* Engine(EngineKind e) const {
    return e == EngineKind::kNaive
               ? static_cast<const pl::lineage::LineageEngine*>(naive.get())
               : indexproj.get();
  }
  std::string WireEngine(EngineKind e) const {
    return name + "." + EngineName(e);
  }
};

/// Family specs (runs and inputs, nothing captured yet) for a workload.
std::vector<Family> MakeFamilies(const WorkloadSpec& spec, uint64_t seed);

/// A workload's trace store: every family's runs captured into one
/// in-memory 4-shard async-ingest store and, once saved and reopened,
/// the persisted image. `query` is the store requests are answered on.
struct Stores {
  std::optional<pl::provenance::OpenedStore> captured;
  std::optional<pl::provenance::OpenedStore> reopened;
  const pl::provenance::TraceStore* query = nullptr;

  pl::provenance::TraceStore& capture() { return captured->store(); }
};

/// Per-run capture measurements.
struct CaptureStats {
  std::vector<std::string> run_ids;  ///< in capture order
  std::vector<double> run_ms;    ///< one workflow execution with capture,
                                 ///< plus its Flush()
  std::vector<double> flush_ms;  ///< TraceStore::Flush calls
  uint64_t rows = 0;             ///< trace rows captured (xform + xfer)
  double wall_s = 0;             ///< store open through the last flush
};

/// Opens a fresh store and executes every family's runs with capture
/// (engine::Executor observed by a provenance::TraceRecorder, the body
/// of Workbench::Run), flushing the store after every run so that each
/// run's time covers recording it. With `wal_base` set the store also
/// logs to per-shard WAL files.
pl::Status Capture(std::vector<Family>* families, const std::string& wal_base,
                   Stores* stores, CaptureStats* stats);

/// Builds each family's query engines over `store`.
pl::Status AttachEngines(std::vector<Family>* families,
                         const pl::provenance::TraceStore* store);

/// One distinct request of the universe.
struct Request {
  size_t family = 0;
  pl::lineage::LineageRequest request;
  /// Engine this request is always sent to, when the workload ties the
  /// engine to the request kind; unset = drawn per send.
  std::optional<EngineKind> engine;
};

/// The served mix's requests followed by the batch mix's (when the
/// workload has its own batch mix).
std::vector<Request> MakeUniverse(const WorkloadSpec& spec,
                                  const std::vector<Family>& families,
                                  uint64_t seed);

/// One send: which universe request, to which engine.
struct Draw {
  uint32_t request = 0;
  EngineKind engine = EngineKind::kIndexProj;
};

/// Deterministic stream of `n` draws for one phase ("low", "high", ...);
/// the "batch" phase draws from the batch mix.
std::vector<Draw> MakeDraws(const WorkloadSpec& spec,
                            const std::vector<Request>& universe,
                            uint64_t seed, const std::string& phase, size_t n);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
