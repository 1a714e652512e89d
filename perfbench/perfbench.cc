// The provlin benchmark. One process generates a seeded workload,
// captures its trace store, computes a reference answer for every
// distinct request, and then measures the system through its public
// entry points:
//
//   served   LineageServer over loopback (open loop at two fixed rates,
//            then a closed loop with a fixed window)
//   batch    LineageService::ExecuteBatch, 256-request batches
//   capture  engine::Executor runs observed by a TraceRecorder, SealRun,
//            Database::Save, reopen through OpenStore
//
// It always prints the end-to-end figures; with --trace 1 it also times
// the calls into each layer from here (wire codec, planner, engines,
// store probe batches, capture, persistence) and prints the per-layer
// figures. run.py keeps the metrics BENCHMARK.json lists for the mode.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --workdir DIR

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/string_util.h"
#include "lineage/service.h"
#include "lineage/wire.h"
#include "loadgen.h"
#include "provenance/store_open.h"
#include "server/client.h"
#include "server/server.h"
#include "stats.h"
#include "storage/table.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace wire = pl::lineage::wire;
namespace metrics = pl::common::metrics;
using pl::Status;
using pl::lineage::LineageAnswer;
using pl::lineage::LineageBinding;

#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

// Load shape, fixed once from the seed commit (see README.md; the open
// loop rates are per workload in workload.cc). Never derived from a
// measured capacity: a derived rate would hide a gain.
constexpr size_t kWindow = 16;       // closed-loop outstanding requests
constexpr size_t kBatchSize = 256;
constexpr size_t kWarmupRequests = 64;
constexpr int kSetups = 3;
constexpr int kReopens = 5;
constexpr int kRounds = 5;
constexpr double kMaxLateP99Ms = 50.0;    // generator schedule tolerance
constexpr size_t kSampleAnswers = 16;     // persisted-answer check per family

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n",
               why.c_str());
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0) Usage("bad flag " + k);
    flags[k.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) Usage("flags come in --name value pairs");
  for (const char* need : {"workload", "seed", "seconds", "trace", "workdir"}) {
    if (!flags.count(need)) Usage(std::string("missing --") + need);
  }
  o.workload = flags["workload"];
  o.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  o.seconds = std::strtod(flags["seconds"].c_str(), nullptr);
  o.trace = flags["trace"] == "1";
  o.workdir = flags["workdir"];
  if (o.seconds <= 0) Usage("--seconds must be positive");
  return o;
}

// --- registry deltas --------------------------------------------------------

/// Counter deltas of one phase, summed over its rounds: what the phase
/// did. The benchmark never reports a process-cumulative snapshot.
struct RegistryDelta {
  std::map<std::string, uint64_t> counters;

  uint64_t Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  void Add(const metrics::MetricsSnapshot& before,
           const metrics::MetricsSnapshot& after) {
    for (const auto& [name, v] : after.counters) {
      counters[name] += v - before.counter(name);
    }
  }
};

class PhaseScope {
 public:
  PhaseScope(std::string name, std::map<std::string, RegistryDelta>* out)
      : name_(std::move(name)),
        out_(out),
        before_(metrics::MetricsRegistry::Global().Snapshot()) {}
  ~PhaseScope() {
    (*out_)[name_].Add(before_, metrics::MetricsRegistry::Global().Snapshot());
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  std::string name_;
  std::map<std::string, RegistryDelta>* out_;
  metrics::MetricsSnapshot before_;
};

// --- the run ------------------------------------------------------------------

struct OracleCounts {
  uint64_t queries = 0, probes = 0, descents = 0, graph_steps = 0, rows = 0;
  std::vector<double> ms;  ///< each reference query's time (diagnostic)
};

struct PersistStats {
  std::vector<double> seal_rows_per_s, seal_us_per_row, seal_bytes_per_row;
  std::vector<double> save_ms, open_ms, reopen_s;
};

/// Store probe-batch timing on one tier (hot or sealed).
struct ProbeTiming {
  uint64_t probes = 0, descents = 0, rows = 0;
  double us = 0;
  std::map<uint32_t, uint64_t> shard_probes;
};

struct BatchStats {
  std::vector<double> qps, exec_ms, wait_ms, busy, unattributed_ms;
};

class Bench {
 public:
  Bench(Options opt, WorkloadSpec spec)
      : opt_(std::move(opt)), spec_(std::move(spec)) {}

  int Run();

 private:
  // Set-up: capture (and seal) the stores, start the server, warm up.
  // Returns the set-up seconds, excluding the reference-answer pass.
  double SetupOnce(bool final);
  Status SealAll(const std::vector<Family>& fams, Stores* stores,
                 PersistStats* ps, double* counting_s);
  /// Saves the captured store's image and reopens it `reopens` times
  /// (sealed), verifying row counts and the sample answers on both
  /// engines; with `adopt` the last reopen becomes the query store.
  Status SaveAndReopen(const std::vector<Family>& fams, Stores* stores,
                       const std::string& dir,
                       const std::vector<std::vector<LineageBinding>>& samples,
                       int reopens, bool adopt, PersistStats* ps);
  /// The first kSampleAnswers universe requests of each family, and
  /// their NI answers on `store`.
  std::vector<size_t> SampleRequests() const;
  std::vector<std::vector<LineageBinding>> SampleAnswers(
      const pl::provenance::TraceStore& store);
  /// Appends each captured run's rows per second of its capture time.
  Status AddRunRates(const CaptureStats& cs,
                     const pl::provenance::TraceStore& store,
                     double* counting_s);
  /// Trace rows of one run. Counting is the benchmark's own work, timed
  /// into `counting_s`; the seed fixes the counts, so each run id is
  /// counted once.
  pl::Result<uint64_t> RunRows(const pl::provenance::TraceStore& store,
                               const std::string& run_id, double* counting_s);
  Status StartServer();
  void StopServer();
  Status ComputeOracle();
  Status CaptureCycle(const std::string& dir);

  // Measured phases.
  /// One served phase over the draw stream `stream`.
  LoadResult Served(const std::string& phase, const std::string& stream,
                    bool closed, double rate, double seconds, bool timelines);
  void BatchPhase(const std::string& phase, const std::string& stream,
                  double seconds);
  void CapturePhase(const std::string& phase, double seconds);
  /// The measured phases, interleaved in kRounds rounds so that every
  /// metric samples the whole run rather than one stretch of it.
  void MeasureRounds();
  void PersistPhase();
  // Traced-run layer timings.
  void TraceLayers();
  void StoreProbeTiming(const std::string& tier);
  void ReportEndToEnd();
  void ReportLayers();

  Outcome Check(uint32_t request, const wire::ResponseEnvelope& env) const;
  void Account(const LoadResult& r, const std::string& phase);
  void Fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
    correct_ = false;
  }
  void Put(const std::string& name, double v, const char* unit) {
    metrics_[name] = {v, unit};
  }
  const std::vector<Draw>& DrawsFor(const std::string& phase, size_t n);
  void WorkloadDigest();
  void PrintResult() const;

  Options opt_;
  WorkloadSpec spec_;
  Stores stores_;  // outlives the engines in families_
  std::vector<Family> families_;
  std::vector<Request> universe_;
  std::vector<std::vector<LineageBinding>> expected_;
  std::map<EngineKind, OracleCounts> oracle_counts_;
  std::map<std::string, std::vector<Draw>> draws_;
  std::unique_ptr<pl::server::LineageServer> server_;
  std::map<std::string, RegistryDelta> deltas_;

  std::vector<double> setup_s_;
  std::vector<double> capture_run_rate_;  ///< rows/s of each captured run
  CaptureStats setup_capture_;   ///< the kept (final) set-up's capture
  CaptureStats cycle_capture_;   ///< capture-phase cycles, pooled
  std::vector<double> cycle_unattributed_ms_;  ///< one per capture cycle
  PersistStats persist_;
  BatchStats batch_;
  /// Served phases, pooled over the rounds.
  LoadResult low_, high_, closed_;
  double trace_overhead_pct_ = 0;  ///< traced vs untraced low phase
  double bytes_per_row_ = 0;
  uint64_t bytes_ = 0, rows_ = 0;
  uint64_t plans_built_before_ = 0, plans_built_after_ = 0;
  std::pair<double, double> batch_size_before_{0, 0}, batch_size_after_{0, 0};
  std::map<std::string, ProbeTiming> probe_timing_;
  std::map<std::string, uint64_t> run_rows_;  ///< trace rows per run id

  bool correct_ = true;
  uint64_t attempted_ = 0, failed_ = 0;
  std::map<std::string, std::pair<double, const char*>> metrics_;
};

Outcome Bench::Check(uint32_t request,
                     const wire::ResponseEnvelope& env) const {
  if (!env.ok) {
    return env.code == wire::ErrorCode::kOverloaded ? Outcome::kShed
                                                    : Outcome::kError;
  }
  return env.answer.bindings == expected_[request] ? Outcome::kOk
                                                   : Outcome::kWrong;
}

const std::vector<Draw>& Bench::DrawsFor(const std::string& phase, size_t n) {
  std::vector<Draw>& d = draws_[phase];
  if (d.size() < n) d = MakeDraws(spec_, universe_, opt_.seed, phase, n);
  return d;
}

Status Bench::SealAll(const std::vector<Family>& fams, Stores* stores,
                      PersistStats* ps, double* counting_s) {
  // Run by run through SealRun (SealAllRuns is the same loop per shard),
  // so one stall on a shared host costs one sample, not the figure.
  pl::provenance::TraceStore& store = stores->capture();
  for (const Family& f : fams) {
    for (const RunSpec& run : f.runs) {
      PROVLIN_ASSIGN_OR_RETURN(uint64_t run_rows,
                               RunRows(store, run.id, counting_s));
      const Clock::time_point t = Clock::now();
      PROVLIN_RETURN_IF_ERROR(store.SealRun(run.id));
      const double s = SecondsSince(t);
      const auto rows = static_cast<double>(run_rows);
      ps->seal_rows_per_s.push_back(rows / s);
      ps->seal_us_per_row.push_back(s * 1e6 / rows);
    }
  }
  auto m = store.ApproxMemory();
  ps->seal_bytes_per_row.push_back(static_cast<double>(m.sealed_bytes) /
                                   static_cast<double>(m.sealed_rows));
  return Status::OK();
}

Status Bench::AddRunRates(const CaptureStats& cs,
                          const pl::provenance::TraceStore& store,
                          double* counting_s) {
  for (size_t i = 0; i < cs.run_ids.size(); ++i) {
    PROVLIN_ASSIGN_OR_RETURN(uint64_t rows,
                             RunRows(store, cs.run_ids[i], counting_s));
    capture_run_rate_.push_back(static_cast<double>(rows) * 1e3 /
                                cs.run_ms[i]);
  }
  return Status::OK();
}

pl::Result<uint64_t> Bench::RunRows(const pl::provenance::TraceStore& store,
                                    const std::string& run_id,
                                    double* counting_s) {
  auto it = run_rows_.find(run_id);
  if (it == run_rows_.end()) {
    const Clock::time_point c = Clock::now();
    PROVLIN_ASSIGN_OR_RETURN(pl::provenance::TraceCounts counts,
                             store.CountRecords(run_id));
    *counting_s += SecondsSince(c);
    it = run_rows_.emplace(run_id, counts.TotalDependencyRecords()).first;
  }
  return it->second;
}

std::vector<size_t> Bench::SampleRequests() const {
  std::vector<size_t> out;
  std::map<size_t, size_t> per_family;
  for (size_t i = 0; i < universe_.size(); ++i) {
    if (per_family[universe_[i].family]++ < kSampleAnswers) out.push_back(i);
  }
  return out;
}

std::vector<std::vector<LineageBinding>> Bench::SampleAnswers(
    const pl::provenance::TraceStore& store) {
  std::vector<std::vector<LineageBinding>> out;
  pl::lineage::NaiveLineage ni(&store);
  for (size_t i : SampleRequests()) {
    auto a = ni.Query(universe_[i].request);
    if (!a.ok()) Fail("sample answer: " + a.status().ToString());
    out.push_back(a.ok() ? a->bindings : std::vector<LineageBinding>{});
  }
  return out;
}

Status Bench::SaveAndReopen(
    const std::vector<Family>& fams, Stores* stores, const std::string& dir,
    const std::vector<std::vector<LineageBinding>>& samples, int reopens,
    bool adopt, PersistStats* ps) {
  std::filesystem::create_directories(dir);
  const std::string image = dir + "/store.img";
  pl::provenance::TraceStore& captured = stores->capture();
  auto m = captured.ApproxMemory();
  const uint64_t rows = m.hot_rows + m.sealed_rows;
  Clock::time_point t = Clock::now();
  PROVLIN_RETURN_IF_ERROR(captured.Flush());
  PROVLIN_RETURN_IF_ERROR(stores->captured->db().Save(image));
  ps->save_ms.push_back(MsBetween(t, Clock::now()));
  const std::vector<size_t> sample_ids = SampleRequests();
  for (int rep = 0; rep < reopens; ++rep) {
    t = Clock::now();
    pl::provenance::StoreOptions so;
    so.db_path = image;
    so.shards = 4;
    so.compress = pl::provenance::CompressMode::kAlways;
    PROVLIN_ASSIGN_OR_RETURN(pl::provenance::OpenedStore opened,
                             pl::provenance::OpenStore(so));
    ps->open_ms.push_back(MsBetween(t, Clock::now()));
    PROVLIN_ASSIGN_OR_RETURN(pl::provenance::TraceCounts counts,
                             opened.store().CountAllRecords());
    if (counts.TotalDependencyRecords() != rows) {
      Fail("reopened image holds " +
           std::to_string(counts.TotalDependencyRecords()) + " rows, saved " +
           std::to_string(rows));
    }
    ps->reopen_s.push_back(SecondsSince(t));
    // The answer check is the benchmark's own work: not timed.
    std::vector<Family> engines(fams.size());
    for (size_t f = 0; f < fams.size(); ++f) engines[f].flow = fams[f].flow;
    PROVLIN_RETURN_IF_ERROR(AttachEngines(&engines, &opened.store()));
    for (size_t s = 0; s < sample_ids.size(); ++s) {
      const Request& r = universe_[sample_ids[s]];
      for (EngineKind e : {EngineKind::kNaive, EngineKind::kIndexProj}) {
        auto a = engines[r.family].Engine(e)->Query(r.request);
        ++attempted_;
        if (!a.ok() || a->bindings != samples[s]) {
          ++failed_;
          Fail("reopened image answers " + r.request.ToString() +
               " differently on " + EngineName(e));
        }
      }
    }
    if (adopt && rep == reopens - 1) {
      engines.clear();
      stores->reopened.emplace(std::move(opened));
      stores->query = &stores->reopened->store();
    }
  }
  return Status::OK();
}

Status Bench::StartServer() {
  PROVLIN_RETURN_IF_ERROR(AttachEngines(&families_, stores_.query));
  pl::server::LineageServer::EngineMap engines;
  for (const Family& f : families_) {
    for (EngineKind e : {EngineKind::kNaive, EngineKind::kIndexProj}) {
      engines[f.WireEngine(e)] = f.Engine(e);
    }
  }
  server_ = std::make_unique<pl::server::LineageServer>(std::move(engines));
  return server_->Start();
}

void Bench::StopServer() {
  if (server_) server_->Stop();
  server_.reset();
}

Status Bench::ComputeOracle() {
  // Reference answers: every distinct request answered by direct Query()
  // calls of both engines over the captured (hot) store. Fresh engine
  // instances keep the measured engines' plan caches cold. Four slices
  // run in parallel, each on its own thread with its own engines, so
  // every query and its counts are single-threaded and exact. NI and
  // IndexProj must agree binding for binding.
  constexpr size_t kSlices = 4;
  const pl::provenance::TraceStore* store = &stores_.capture();
  expected_.assign(universe_.size(), {});
  std::vector<std::map<EngineKind, OracleCounts>> counts(kSlices);
  std::vector<Status> status(kSlices);
  std::vector<size_t> empty(kSlices, 0);
  auto slice = [&](size_t t) {
    std::vector<Family> fresh(families_.size());
    for (size_t f = 0; f < families_.size(); ++f) {
      fresh[f].flow = families_[f].flow;
    }
    if (Status s = AttachEngines(&fresh, store); !s.ok()) {
      status[t] = s;
      return;
    }
    for (size_t i = t; i < universe_.size(); i += kSlices) {
      const Request& r = universe_[i];
      LineageAnswer answers[2];
      for (EngineKind e : {EngineKind::kNaive, EngineKind::kIndexProj}) {
        const uint64_t rows0 = pl::storage::ThisThreadStats().rows_examined;
        const Clock::time_point q0 = Clock::now();
        auto a = fresh[r.family].Engine(e)->Query(r.request);
        counts[t][e].ms.push_back(MsBetween(q0, Clock::now()));
        if (!a.ok()) {
          status[t] = Status::Internal("reference " +
                                       std::string(EngineName(e)) + " " +
                                       r.request.ToString() + ": " +
                                       a.status().ToString());
          return;
        }
        OracleCounts& c = counts[t][e];
        ++c.queries;
        c.probes += a->timing.trace_probes;
        c.descents += a->timing.trace_descents;
        c.graph_steps += a->timing.graph_steps;
        c.rows += pl::storage::ThisThreadStats().rows_examined - rows0;
        answers[static_cast<int>(e)] = std::move(*a);
      }
      if (answers[0].bindings != answers[1].bindings) {
        status[t] = Status::Internal("NI and IndexProj disagree on " +
                                     r.request.ToString());
        return;
      }
      empty[t] += answers[0].bindings.empty();
      expected_[i] = std::move(answers[0].bindings);
    }
  };
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kSlices; ++t) threads.emplace_back(slice, t);
  for (std::thread& th : threads) th.join();
  size_t empties = 0;
  for (size_t t = 0; t < kSlices; ++t) {
    PROVLIN_RETURN_IF_ERROR(status[t]);
    empties += empty[t];
    for (const auto& [e, c] : counts[t]) {
      OracleCounts& sum = oracle_counts_[e];
      sum.queries += c.queries;
      sum.probes += c.probes;
      sum.descents += c.descents;
      sum.graph_steps += c.graph_steps;
      sum.rows += c.rows;
      sum.ms.insert(sum.ms.end(), c.ms.begin(), c.ms.end());
    }
  }
  std::fprintf(stderr,
               "reference: %zu distinct requests (%zu empty answers), %.2f s\n",
               universe_.size(), empties, SecondsSince(start));
  for (const auto& [e, c] : oracle_counts_) {
    std::fprintf(stderr,
                 "reference %-9s query ms: p50 %.3f p90 %.3f p99 %.3f "
                 "mean %.3f\n",
                 EngineName(e), Quantile(c.ms, 0.5), Quantile(c.ms, 0.9),
                 Quantile(c.ms, 0.99),
                 Sum(c.ms) / static_cast<double>(c.ms.size()));
  }
  return Status::OK();
}

double Bench::SetupOnce(bool final) {
  StopServer();
  families_.clear();
  stores_ = Stores{};
  families_ = MakeFamilies(spec_, opt_.seed);
  universe_ = MakeUniverse(spec_, families_, opt_.seed);
  double paused = 0;
  const Clock::time_point start = Clock::now();
  auto check = [&](const Status& s, const char* what) {
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: set-up %s failed: %s\n", what,
                   s.ToString().c_str());
      std::exit(1);
    }
  };
  CaptureStats cs;
  const std::string dir = opt_.workdir + "/setup";
  std::filesystem::remove_all(dir);
  if (spec_.wal_flush_per_run) std::filesystem::create_directories(dir);
  check(Capture(&families_, spec_.wal_flush_per_run ? dir + "/wal" : "",
                &stores_, &cs),
        "capture");
  check(AddRunRates(cs, stores_.capture(), &paused), "row count");
  if (final) {
    // The reference pass and the hot-tier probe timing are the
    // benchmark's own work: excluded from the set-up time.
    setup_capture_ = cs;
    Clock::time_point p = Clock::now();
    check(ComputeOracle(), "reference answers");
    if (opt_.trace) StoreProbeTiming("hot");
    paused += SecondsSince(p);
  }
  std::vector<std::vector<LineageBinding>> samples;
  if (spec_.wal_flush_per_run) {
    Clock::time_point p = Clock::now();
    samples = SampleAnswers(stores_.capture());
    paused += SecondsSince(p);
  }
  if (spec_.seal_at_setup || spec_.wal_flush_per_run) {
    check(SealAll(families_, &stores_, &persist_, &paused), "seal");
  }
  if (spec_.wal_flush_per_run) {
    // capture_seal serves the persisted image: save, reopen, verify.
    PersistStats ps;
    check(SaveAndReopen(families_, &stores_, dir, samples, 1, true, &ps),
          "save/reopen");
  }
  check(StartServer(), "server start");
  // Warm-up: one closed-loop burst over the warm-up stream. Its answers
  // are checked once the reference exists (the final set-up).
  const std::vector<Draw>& warm = DrawsFor("warmup", kWarmupRequests);
  LoadResult w = ClosedLoop(
      server_->port(), kWindow, 3600.0, kWarmupRequests,
      [&](size_t k) {
        const Draw& d = warm[k % warm.size()];
        const Request& r = universe_[d.request];
        wire::RequestEnvelope env;
        env.engine = families_[r.family].WireEngine(d.engine);
        env.request = r.request;
        env.version = wire::kWireVersion;
        return env;
      },
      [&](size_t k, const wire::ResponseEnvelope& env) {
        return final ? Check(warm[k % warm.size()].request, env) : Outcome::kOk;
      });
  if (final) Account(w, "warmup");
  return SecondsSince(start) - paused;
}

Status Bench::CaptureCycle(const std::string& dir) {
  std::vector<Family> fams = MakeFamilies(spec_, opt_.seed);
  Stores stores;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CaptureStats one;
  PROVLIN_RETURN_IF_ERROR(Capture(&fams, dir + "/wal", &stores, &one));
  attempted_ += one.run_ms.size();
  double counting_s = 0;
  PROVLIN_RETURN_IF_ERROR(AddRunRates(one, stores.capture(), &counting_s));
  // run_ms already holds the per-run flushes; only the final one is apart.
  cycle_unattributed_ms_.push_back(one.wall_s * 1e3 - Sum(one.run_ms) -
                                   one.flush_ms.back());
  cycle_capture_.run_ids.insert(cycle_capture_.run_ids.end(),
                                one.run_ids.begin(), one.run_ids.end());
  cycle_capture_.run_ms.insert(cycle_capture_.run_ms.end(), one.run_ms.begin(),
                               one.run_ms.end());
  cycle_capture_.flush_ms.insert(cycle_capture_.flush_ms.end(),
                                 one.flush_ms.begin(), one.flush_ms.end());
  cycle_capture_.rows += one.rows;
  cycle_capture_.wall_s += one.wall_s;
  std::vector<std::vector<LineageBinding>> samples =
      SampleAnswers(stores.capture());
  PROVLIN_RETURN_IF_ERROR(SealAll(fams, &stores, &persist_, &counting_s));
  PROVLIN_RETURN_IF_ERROR(
      SaveAndReopen(fams, &stores, dir, samples, 1, false, &persist_));
  std::filesystem::remove_all(dir);
  return Status::OK();
}

void Bench::Account(const LoadResult& r, const std::string& phase) {
  const uint64_t shed = r.Count(Outcome::kShed);
  const uint64_t errors = r.Count(Outcome::kError);
  const uint64_t wrong = r.Count(Outcome::kWrong);
  attempted_ += r.attempted;
  failed_ += shed + errors + wrong + r.unanswered;
  if (wrong > 0) Fail(phase + ": " + std::to_string(wrong) + " wrong answers");
  if (!r.transport.ok()) Fail(phase + ": " + r.transport.ToString());
  if (!r.late_ms.empty() && Quantile(r.late_ms, 0.99) > kMaxLateP99Ms) {
    Fail(phase + ": load generator fell behind schedule (late p99 " +
         std::to_string(Quantile(r.late_ms, 0.99)) + " ms)");
  }
  std::fprintf(stderr,
               "phase %-14s attempted %6" PRIu64 " ok %6" PRIu64
               " shed %" PRIu64 " errors %" PRIu64 " wrong %" PRIu64
               " unanswered %" PRIu64 " p50 %.3f ms p99 %.3f ms\n",
               phase.c_str(), r.attempted, r.Count(Outcome::kOk), shed, errors,
               wrong, r.unanswered, Quantile(r.Latencies(), 0.5),
               Quantile(r.Latencies(), 0.99));
}

LoadResult Bench::Served(const std::string& phase, const std::string& stream,
                         bool closed, double rate, double seconds,
                         bool timelines) {
  const std::vector<Draw>& draws =
      DrawsFor(stream, closed ? 1u << 14 : static_cast<size_t>(rate * seconds) + 1);
  auto envelope = [&](size_t k) {
    const Draw& d = draws[k % draws.size()];
    const Request& r = universe_[d.request];
    wire::RequestEnvelope env;
    env.engine = families_[r.family].WireEngine(d.engine);
    env.request = r.request;
    env.version = wire::kWireVersion;
    env.want_timeline = timelines;
    return env;
  };
  auto check = [&](size_t k, const wire::ResponseEnvelope& env) {
    return Check(draws[k % draws.size()].request, env);
  };
  LoadResult r;
  {
    PhaseScope scope(phase, &deltas_);
    r = closed ? ClosedLoop(server_->port(), kWindow, seconds, 0, envelope,
                            check)
               : OpenLoop(server_->port(), rate, seconds, envelope, check);
  }
  Account(r, phase);
  return r;
}

/// Latencies with every failed, refused or unanswered request counted
/// as missing any limit: it takes the phase's drain deadline.
std::vector<double> PenalizedLatencies(const LoadResult& r) {
  std::vector<double> v;
  const double penalty = (r.seconds + 10.0) * 1e3;
  for (const Sample& s : r.samples) {
    v.push_back(s.outcome == Outcome::kOk ? s.latency_ms : penalty);
  }
  for (uint64_t i = 0; i < r.unanswered; ++i) v.push_back(penalty);
  return v;
}

void Bench::BatchPhase(const std::string& phase, const std::string& stream,
                       double seconds) {
  pl::lineage::ServiceOptions so;
  so.num_threads = 4;
  pl::lineage::LineageService service(so);
  const std::vector<Draw>& draws = DrawsFor(stream, 1u << 14);
  PhaseScope scope(phase, &deltas_);
  const Clock::time_point start = Clock::now();
  const size_t first = batch_.qps.size();
  size_t next = 0;
  for (size_t n = 0; n == 0 || SecondsSince(start) < seconds; ++n) {
    std::vector<pl::lineage::ServiceRequest> batch;
    std::vector<uint32_t> ids;
    for (size_t i = 0; i < kBatchSize; ++i, ++next) {
      const Draw& d = draws[next % draws.size()];
      const Request& r = universe_[d.request];
      batch.push_back({families_[r.family].Engine(d.engine), r.request});
      ids.push_back(d.request);
    }
    const Clock::time_point t = Clock::now();
    std::vector<pl::lineage::ServiceResponse> out = service.ExecuteBatch(batch);
    const double wall_ms = MsBetween(t, Clock::now());
    std::vector<double> per_worker(so.num_threads, 0.0);
    for (size_t i = 0; i < out.size(); ++i) {
      ++attempted_;
      const pl::lineage::ServiceResponse& resp = out[i];
      if (!resp.status.ok()) {
        ++failed_;
        Fail(phase + ": " + resp.status.ToString());
      } else if (resp.answer.bindings != expected_[ids[i]]) {
        ++failed_;
        Fail(phase + ": wrong answer to " + batch[i].request.ToString());
      }
      batch_.exec_ms.push_back(resp.exec_ms);
      batch_.wait_ms.push_back(resp.queue_wait_ms);
      per_worker[std::min(resp.worker, per_worker.size() - 1)] += resp.exec_ms;
    }
    const double busy_ms = Sum(per_worker);
    batch_.qps.push_back(static_cast<double>(kBatchSize) * 1e3 / wall_ms);
    batch_.busy.push_back(
        busy_ms / (static_cast<double>(so.num_threads) * wall_ms));
    batch_.unattributed_ms.push_back(
        wall_ms - *std::max_element(per_worker.begin(), per_worker.end()));
  }
  std::vector<double> qps(batch_.qps.begin() + static_cast<long>(first),
                          batch_.qps.end());
  std::fprintf(stderr, "phase %-14s batches %zu median %.1f req/s\n",
               stream.c_str(), qps.size(), Median(qps));
}

void Bench::CapturePhase(const std::string& phase, double seconds) {
  PhaseScope scope(phase, &deltas_);
  const size_t first = cycle_unattributed_ms_.size();
  const Clock::time_point start = Clock::now();
  while (cycle_unattributed_ms_.size() == first ||
         SecondsSince(start) < seconds) {
    Status s = CaptureCycle(opt_.workdir + "/cycle");
    if (!s.ok()) {
      ++failed_;
      Fail(phase + ": " + s.ToString());
      break;
    }
  }
}

void Bench::PersistPhase() {
  PhaseScope scope("persist", &deltas_);
  if (!spec_.seal_at_setup) {
    double counting_s = 0;
    if (Status s = SealAll(families_, &stores_, &persist_, &counting_s);
        !s.ok()) {
      Fail("seal: " + s.ToString());
      return;
    }
    if (opt_.trace) StoreProbeTiming("sealed");
  }
  // The persisted-answer check compares against the reference answers.
  std::vector<std::vector<LineageBinding>> samples;
  for (size_t i : SampleRequests()) samples.push_back(expected_[i]);
  if (Status s = SaveAndReopen(families_, &stores_, opt_.workdir + "/persist",
                               samples, kReopens, false, &persist_);
      !s.ok()) {
    Fail("save/reopen: " + s.ToString());
  }
  std::filesystem::remove_all(opt_.workdir + "/persist");
}

void Bench::StoreProbeTiming(const std::string& tier) {
  // The consuming-probe batches the workload's IndexProj plans issue in
  // s2, one sorted batch per request, timed through the store's public
  // batch finder.
  ProbeTiming& pt = probe_timing_[tier];
  const size_t kRequests = 256;
  const pl::provenance::TraceStore* store = stores_.query;
  for (size_t f = 0; f < families_.size(); ++f) {
    auto ip = pl::lineage::IndexProjLineage::Create(families_[f].flow, store);
    if (!ip.ok()) {
      Fail("probe timing: " + ip.status().ToString());
      return;
    }
    size_t done = 0;
    for (const Request& r : universe_) {
      if (r.family != f || done++ >= kRequests) continue;
      auto plan = ip->Plan(r.request.target, r.request.index,
                           r.request.interest);
      if (!plan.ok()) continue;
      std::vector<pl::provenance::PortProbe> probes;
      for (const std::string& run : r.request.runs) {
        auto run_sym = store->LookupSymbol(run);
        if (!run_sym) continue;
        for (const pl::lineage::TraceQuery& q : (*plan)->queries) {
          if (!q.workflow_source) {
            probes.push_back({*run_sym, q.processor, q.port, q.index});
          } else if (q.via_processor != pl::common::kNoSymbol) {
            probes.push_back({*run_sym, q.via_processor, q.via_port, q.index});
          }
        }
      }
      if (probes.empty()) continue;
      std::sort(probes.begin(), probes.end(), [](const auto& a, const auto& b) {
        return std::tie(a.run, a.processor, a.port, a.index) <
               std::tie(b.run, b.processor, b.port, b.index);
      });
      pl::provenance::ProbeBreakdown bd;
      pl::provenance::ProbeBreakdownScope scope(&bd);
      const Clock::time_point t = Clock::now();
      auto rows = store->FindConsumingBatch(probes);
      pt.us += MsBetween(t, Clock::now()) * 1e3;
      if (!rows.ok()) {
        Fail("probe timing: " + rows.status().ToString());
        return;
      }
      pt.probes += probes.size();
      for (const auto& [shard, c] : bd.shards) {
        pt.descents += c.descents;
        pt.rows += c.rows;
        pt.shard_probes[shard] += c.probes;
      }
    }
  }
}

void Bench::TraceLayers() {
  // Wire codec on the low phase's requests and their reference answers.
  const std::vector<Draw>& draws = DrawsFor("low/0", 512);
  std::vector<double> req_enc, req_dec, ans_enc, ans_dec, ans_bytes;
  // A timeline trailer of typical size, as traced answers carry one.
  wire::RequestTimeline tl;
  tl.queue_ms = tl.dispatch_ms = tl.execute_ms = tl.total_ms = 0.5;
  tl.shards.push_back({0, 8, 2, 64});
  for (size_t k = 0; k < std::min<size_t>(draws.size(), 512); ++k) {
    const Request& r = universe_[draws[k].request];
    wire::RequestEnvelope env;
    env.request_id = k + 1;
    env.engine = families_[r.family].WireEngine(draws[k].engine);
    env.request = r.request;
    env.version = wire::kWireVersion;
    env.want_timeline = true;
    Clock::time_point t0 = Clock::now();
    std::string req = wire::EncodeRequestEnvelope(env);
    Clock::time_point t1 = Clock::now();
    auto dreq = wire::DecodeRequestEnvelope(req);
    Clock::time_point t2 = Clock::now();
    LineageAnswer answer;
    answer.bindings = expected_[draws[k].request];
    Clock::time_point t3 = Clock::now();
    std::string ans = wire::EncodeAnswerResponseV2(k + 1, answer, &tl);
    Clock::time_point t4 = Clock::now();
    auto dans = wire::DecodeResponseEnvelope(ans);
    Clock::time_point t5 = Clock::now();
    if (!dreq.ok() || !dans.ok() || dans->answer.bindings != answer.bindings) {
      Fail("wire round trip failed");
    }
    req_enc.push_back(MsBetween(t0, t1) * 1e3);
    req_dec.push_back(MsBetween(t1, t2) * 1e3);
    ans_enc.push_back(MsBetween(t3, t4) * 1e3);
    ans_dec.push_back(MsBetween(t4, t5) * 1e3);
    ans_bytes.push_back(static_cast<double>(ans.size()));
  }
  Put("wire.request_encode_us", Median(req_enc), "us");
  Put("wire.request_decode_us", Median(req_dec), "us");
  Put("wire.answer_encode_us", Median(ans_enc), "us");
  Put("wire.answer_decode_us", Median(ans_dec), "us");
  Put("wire.answer_bytes", Median(ans_bytes), "B");

  // Planner: distinct plan keys of the universe, built after a cache
  // clear, then fetched again as hits.
  std::vector<double> build_us, hit_us;
  for (Family& f : families_) f.indexproj->ClearPlanCache();
  std::set<std::string> keys;
  for (const Request& r : universe_) {
    std::string key = std::to_string(r.family) + r.request.target.ToString() +
                      r.request.index.ToString();
    for (const std::string& p : r.request.interest) key += "|" + p;
    if (!keys.insert(key).second || keys.size() > 256) continue;
    const pl::lineage::IndexProjLineage* ip = families_[r.family].indexproj.get();
    for (std::vector<double>* out : {&build_us, &hit_us}) {
      bool hit = false;
      Clock::time_point t = Clock::now();
      auto plan = ip->Plan(r.request.target, r.request.index,
                           r.request.interest, &hit);
      out->push_back(MsBetween(t, Clock::now()) * 1e3);
      if (!plan.ok()) Fail("plan: " + plan.status().ToString());
    }
  }
  Put("plan.build_us", Median(build_us), "us");
  Put("plan.hit_us", Median(hit_us), "us");
  Put("plan.builds",
      static_cast<double>(plans_built_after_ - plans_built_before_), "count");

  // Engines: warm single-threaded Query() on a sample of the universe.
  for (EngineKind e : {EngineKind::kNaive, EngineKind::kIndexProj}) {
    std::vector<double> us;
    for (size_t i = 0; i < std::min<size_t>(universe_.size(), 64); ++i) {
      const Request& r = universe_[i];
      Clock::time_point t = Clock::now();
      auto a = families_[r.family].Engine(e)->Query(r.request);
      us.push_back(MsBetween(t, Clock::now()) * 1e3);
      if (!a.ok() || a->bindings != expected_[i]) Fail("engine re-query");
    }
    const std::string name = EngineName(e);
    const OracleCounts& c = oracle_counts_[e];
    const double q = static_cast<double>(c.queries);
    Put(name + ".query_us", Median(us), "us");
    Put(name + ".probes_per_query", static_cast<double>(c.probes) / q, "count");
    Put(name + ".descents_per_query", static_cast<double>(c.descents) / q,
        "count");
    if (e == EngineKind::kNaive) {
      Put("naive.graph_steps_per_query",
          static_cast<double>(c.graph_steps) / q, "count");
    }
  }
}

void Bench::ReportEndToEnd() {
  Put("setup_s", Median(setup_s_), "s");
  // Served figures pool every round's samples, so each percentile has
  // the whole run's requests behind it.
  Put("p50_ms.low", Quantile(PenalizedLatencies(low_), 0.5), "ms");
  Put("p99_ms.low", Quantile(PenalizedLatencies(low_), 0.99), "ms");
  Put("p50_ms.high", Quantile(PenalizedLatencies(high_), 0.5), "ms");
  const double p99_high = Quantile(PenalizedLatencies(high_), 0.99);
  Put("p99_ms.high", p99_high, "ms");
  Put("capacity_rps",
      static_cast<double>(closed_.completed_in_window) / closed_.seconds,
      "1/s");
  Put("batch_qps", Median(batch_.qps), "1/s");
  Put("capture_rows_per_s", Median(capture_run_rate_), "rows/s");
  Put("seal_rows_per_s", Median(persist_.seal_rows_per_s), "rows/s");
  Put("reopen_s", Median(persist_.reopen_s), "s");
  Put("bytes_per_row", bytes_per_row_, "B");
  Put("ok_ratio",
      1.0 - static_cast<double>(failed_) / static_cast<double>(attempted_),
      "ratio");
  std::fprintf(stderr, "p99_ms.high %.3f ms %s the %.0f ms latency limit\n",
               p99_high, p99_high <= spec_.latency_limit_ms ? "meets" : "MISSES",
               spec_.latency_limit_ms);
}

void Bench::ReportLayers() {
  // Server phases, from the traced low phase's answer timelines.
  std::vector<double> queue, dispatch, execute, outside;
  for (const Sample& s : low_.samples) {
    if (s.outcome != Outcome::kOk || !s.has_timeline) continue;
    queue.push_back(s.queue_ms);
    dispatch.push_back(s.dispatch_ms);
    execute.push_back(s.execute_ms);
    outside.push_back(s.latency_ms - s.execute_ms);
  }
  Put("server.queue_ms", Median(queue), "ms");
  Put("server.dispatch_ms", Median(dispatch), "ms");
  Put("server.outside_execute_ms", Median(outside), "ms");
  Put("server.batch_size",
      Ratio(batch_size_after_.first - batch_size_before_.first,
            batch_size_after_.second - batch_size_before_.second),
      "count");
  uint64_t shed = 0, requests = 0;
  for (const char* p : {"low", "high", "closed"}) {
    shed += deltas_[p].Counter("server/overload_shed");
    requests += deltas_[p].Counter("server/requests");
  }
  Put("server.shed_ratio",
      Ratio(static_cast<double>(shed), static_cast<double>(requests)), "ratio");
  double late = 0;
  for (const LoadResult* r : {&low_, &high_}) {
    late = std::max(late, Quantile(r->late_ms, 0.99));
  }
  Put("loadgen.late_p99_ms", late, "ms");

  // Service, from the batch phase.
  const RegistryDelta& b = deltas_["batch"];
  Put("service.queue_wait_ms", Median(batch_.wait_ms), "ms");
  Put("service.exec_ms.p50", Quantile(batch_.exec_ms, 0.5), "ms");
  Put("service.exec_ms.p99", Quantile(batch_.exec_ms, 0.99), "ms");
  Put("service.busy_ratio", Median(batch_.busy), "ratio");
  Put("service.memo_hit_ratio",
      Ratio(static_cast<double>(b.Counter("service/probe_memo_hits")),
            static_cast<double>(b.Counter("service/probe_memo_lookups"))),
      "ratio");
  Put("service.plan_hit_ratio",
      Ratio(static_cast<double>(b.Counter("service/plan_cache_hits")),
            static_cast<double>(b.Counter("service/requests"))),
      "ratio");

  // Store probe batches: both tiers timed; the other counts on the tier
  // the workload's queries use.
  for (const char* tier : {"hot", "sealed"}) {
    const ProbeTiming& pt = probe_timing_[tier];
    Put(std::string("store.") + tier + ".us_per_probe",
        Ratio(pt.us, static_cast<double>(pt.probes)), "us");
  }
  const ProbeTiming& q =
      probe_timing_[spec_.seal_at_setup || spec_.wal_flush_per_run ? "sealed"
                                                                   : "hot"];
  uint64_t max_shard = 0, shard_total = 0;
  for (const auto& [shard, n] : q.shard_probes) {
    max_shard = std::max(max_shard, n);
    shard_total += n;
  }
  const double probes = static_cast<double>(q.probes);
  Put("store.descents_per_probe", Ratio(static_cast<double>(q.descents), probes),
      "count");
  Put("store.rows_per_probe", Ratio(static_cast<double>(q.rows), probes),
      "count");
  Put("store.shard_max_share",
      Ratio(static_cast<double>(max_shard), static_cast<double>(shard_total)),
      "ratio");

  // Capture, seal and persistence.
  const CaptureStats& cs =
      spec_.capture_share > 0 ? cycle_capture_ : setup_capture_;
  Put("capture.run_ms", Median(cs.run_ms), "ms");
  Put("capture.rows_per_run",
      Ratio(static_cast<double>(cs.rows), static_cast<double>(cs.run_ms.size())),
      "count");
  Put("capture.flush_ms", Median(cs.flush_ms), "ms");
  uint64_t wal_bytes = 0;
  for (const auto& [name, d] : deltas_) {
    if (name.rfind("capture", 0) == 0) wal_bytes += d.Counter("wal/bytes");
  }
  Put("wal.bytes_per_row",
      spec_.capture_share > 0
          ? Ratio(static_cast<double>(wal_bytes), static_cast<double>(cs.rows))
          : 0.0,
      "B");
  Put("seal.us_per_row", Median(persist_.seal_us_per_row), "us");
  Put("seal.bytes_per_row", Median(persist_.seal_bytes_per_row), "B");
  Put("persist.save_ms", Median(persist_.save_ms), "ms");
  Put("persist.open_ms", Median(persist_.open_ms), "ms");

  // What the layers above do not account for on the headline path.
  double unattributed = 0;
  if (spec_.headline == "low") {
    std::vector<double> lat = low_.Latencies();
    unattributed = Median(lat) -
                   (Median(queue) + Median(dispatch) + Median(execute)) -
                   (metrics_["wire.request_encode_us"].first +
                    metrics_["wire.request_decode_us"].first +
                    metrics_["wire.answer_encode_us"].first +
                    metrics_["wire.answer_decode_us"].first) /
                       1e3;
  } else if (spec_.headline == "batch") {
    unattributed = Median(batch_.unattributed_ms);
  } else {
    unattributed = Median(cycle_unattributed_ms_);
  }
  Put("unattributed_ms", unattributed, "ms");
  Put("trace_overhead_pct", trace_overhead_pct_, "pct");
}

void Bench::WorkloadDigest() {
  // Covers only what the seed fixes: the request universe and streams,
  // the exact single-threaded reference counts, captured rows and bytes.
  Digest d;
  for (const Request& r : universe_) {
    d.Add(r.family);
    d.Add(r.request.ToString());
    for (const std::string& p : r.request.interest) d.Add(p);
  }
  for (const char* phase : {"warmup", "low/0", "high/0", "closed/0", "batch/0"}) {
    const std::vector<Draw>& draws = DrawsFor(phase, 4096);
    for (size_t k = 0; k < 4096; ++k) {
      d.Add(draws[k].request);
      d.Add(static_cast<uint64_t>(draws[k].engine));
    }
  }
  for (const auto& [e, c] : oracle_counts_) {
    d.Add(c.queries);
    d.Add(c.probes);
    d.Add(c.descents);
    d.Add(c.graph_steps);
    d.Add(c.rows);
  }
  d.Add(setup_capture_.rows);
  d.Add(bytes_);
  d.Add(rows_);
  const OracleCounts& ni = oracle_counts_[EngineKind::kNaive];
  const OracleCounts& ip = oracle_counts_[EngineKind::kIndexProj];
  std::printf("workload_digest %s seed=%" PRIu64 " digest=%016" PRIx64
              " requests=%zu ni_probes=%" PRIu64 " ni_descents=%" PRIu64
              " ip_probes=%" PRIu64 " ip_descents=%" PRIu64
              " rows_examined=%" PRIu64 " captured_rows=%" PRIu64
              " bytes=%" PRIu64 " rows=%" PRIu64 "\n",
              spec_.name.c_str(), opt_.seed, d.value(), universe_.size(),
              ni.probes, ni.descents, ip.probes, ip.descents, ni.rows + ip.rows,
              setup_capture_.rows, bytes_, rows_);
}

void Bench::PrintResult() const {
  std::string json = "{\"correct\": " + std::string(correct_ ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", vu.first);
    json += (first ? "" : ", ") + std::string("\"") + name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::pair<double, double> ScrapeBatchSize(uint16_t port) {
  // server.batch_size comes from the live server's STATS scrape.
  auto client = pl::server::LineageClient::Connect("127.0.0.1", port);
  if (!client.ok()) return {0, 0};
  auto stats = client->Stats(wire::kStatsWantMetrics);
  if (!stats.ok()) return {0, 0};
  double sum = 0, count = 0;
  for (const std::string& line : pl::Split(stats->prometheus_text, '\n')) {
    const std::string sum_key = "provlin_server_batch_size_sum ";
    const std::string count_key = "provlin_server_batch_size_count ";
    if (line.rfind(sum_key, 0) == 0) sum = std::stod(line.substr(sum_key.size()));
    if (line.rfind(count_key, 0) == 0) {
      count = std::stod(line.substr(count_key.size()));
    }
  }
  return {sum, count};
}

void Merge(LoadResult* into, LoadResult from) {
  into->samples.insert(into->samples.end(), from.samples.begin(),
                       from.samples.end());
  into->late_ms.insert(into->late_ms.end(), from.late_ms.begin(),
                       from.late_ms.end());
  into->attempted += from.attempted;
  into->unanswered += from.unanswered;
  into->completed_in_window += from.completed_in_window;
  into->seconds += from.seconds;
  if (into->transport.ok()) into->transport = from.transport;
}

void Bench::MeasureRounds() {
  // When tracing served_mix, its headline low phase runs in an untraced
  // and a traced half per round; their ratio is the tracing overhead.
  // Tracing adds no work to the other workloads' headline phases.
  const double S = opt_.seconds / kRounds;
  const bool trace = opt_.trace;
  const bool split_low = trace && spec_.headline == "low";
  LoadResult low_untraced;
  batch_size_before_ = ScrapeBatchSize(server_->port());
  for (int round = 0; round < kRounds; ++round) {
    const std::string tag = "/" + std::to_string(round);
    if (spec_.capture_share > 0) {
      CapturePhase("capture", S * spec_.capture_share);
    }
    const double low_s = S * spec_.low_share / (split_low ? 2 : 1);
    if (split_low) {
      Merge(&low_untraced, Served("low.untraced", "low.untraced" + tag, false,
                                  spec_.low_rate, low_s, false));
    }
    Merge(&low_, Served("low", "low" + tag, false, spec_.low_rate, low_s, trace));
    Merge(&high_, Served("high", "high" + tag, false, spec_.high_rate,
                         S * spec_.high_share, trace));
    Merge(&closed_, Served("closed", "closed" + tag, true, 0,
                           S * spec_.closed_share, trace));
    BatchPhase("batch", "batch" + tag, S * spec_.batch_share);
  }
  batch_size_after_ = ScrapeBatchSize(server_->port());
  if (split_low) {
    trace_overhead_pct_ =
        (Median(low_.Latencies()) / Median(low_untraced.Latencies()) - 1.0) *
        100.0;
  }
}

int Bench::Run() {
  std::filesystem::create_directories(opt_.workdir);
  for (int i = 0; i < kSetups; ++i) {
    setup_s_.push_back(SetupOnce(i == kSetups - 1));
    std::fprintf(stderr, "setup %d: %.3f s\n", i, setup_s_.back());
  }
  for (const Family& f : families_) {
    plans_built_before_ += f.indexproj->plans_built();
  }
  MeasureRounds();
  for (const Family& f : families_) {
    plans_built_after_ += f.indexproj->plans_built();
  }
  StopServer();
  const bool trace = opt_.trace;

  {
    auto m = stores_.query->ApproxMemory();
    bytes_ = m.hot_bytes + m.sealed_bytes;
    rows_ = m.hot_rows + m.sealed_rows;
  }
  bytes_per_row_ = static_cast<double>(bytes_) / static_cast<double>(rows_);
  if (trace) {
    TraceLayers();
    if (spec_.seal_at_setup || spec_.wal_flush_per_run) {
      StoreProbeTiming("sealed");
    }
  }
  if (spec_.capture_share == 0) {
    const Clock::time_point p = Clock::now();
    PersistPhase();
    std::fprintf(stderr, "persist: %.2f s\n", SecondsSince(p));
  }

  for (const auto& [phase, d] : deltas_) {
    std::fprintf(stderr,
                 "delta %-16s service/requests %" PRIu64
                 " lineage/trace_probes %" PRIu64 " storage/descents %" PRIu64
                 " provenance/memo_hits %" PRIu64 " server/requests %" PRIu64
                 " wal/bytes %" PRIu64 "\n",
                 phase.c_str(), d.Counter("service/requests"),
                 d.Counter("lineage/trace_probes"),
                 d.Counter("storage/descents"),
                 d.Counter("provenance/memo_hits"),
                 d.Counter("server/requests"), d.Counter("wal/bytes"));
  }
  WorkloadDigest();
  ReportEndToEnd();
  if (trace) ReportLayers();
  std::filesystem::remove_all(opt_.workdir);
  PrintResult();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt = ParseOptions(argc, argv);
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from an unoptimized build "
                 "(needs -O and NDEBUG; configure with "
                 "-DCMAKE_BUILD_TYPE=Release)\n");
    return 3;
  }
  std::fprintf(stderr, "build: optimized (-O, NDEBUG)\n");
  std::optional<WorkloadSpec> spec = FindWorkload(opt.workload);
  if (!spec) Usage("unknown workload '" + opt.workload + "'");
  Bench bench(std::move(opt), std::move(*spec));
  return bench.Run();
}
