#include "workload.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "engine/builtin_activities.h"
#include "engine/executor.h"
#include "provenance/recorder.h"
#include "stats.h"
#include "testbed/gk_workflow.h"
#include "testbed/pd_workflow.h"
#include "testbed/synthetic.h"

namespace perfbench {

using pl::Index;
using pl::Status;
using pl::lineage::InterestSet;
using pl::lineage::LineageRequest;
using pl::workflow::PortRef;

namespace {

constexpr int kServedChain = 40;    // synthetic l of the two read workloads
constexpr int kServedRuns = 48;     // x ~4k rows per run = ~200k rows
// One list size for every run of the read workloads, so a request's cost
// does not hinge on which run the seed gives the Zipf head.
constexpr int kServedListSize = 20;
constexpr int kCaptureChain = 16;   // capture_seal's synthetic family
constexpr int kCaptureSynRuns = 24;  // ... with 6 GK and 3 PD runs
constexpr int kCaptureGkRuns = 6;
constexpr int kCapturePdRuns = 3;
constexpr size_t kShards = 4;

}  // namespace

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "served_mix") {
    s.served = {MixKind::kServed, 1024, 1.0, 0.25};
    s.low_rate = 150, s.high_rate = 300, s.latency_limit_ms = 50;
    s.low_share = 0.35, s.high_share = 0.25, s.closed_share = 0.2;
    s.batch_share = 0.2;
    s.headline = "low";
  } else if (name == "batch_sealed") {
    s.seal_at_setup = true;
    // Served phases: the served_mix shape, IndexProj only (NI on the
    // sealed tier is the batch phase's job).
    s.served = {MixKind::kServed, 512, 1.0, 0.0};
    s.batch = {MixKind::kProbeHeavy, 2048, 0.0, 0.0};
    s.low_rate = 150, s.high_rate = 300, s.latency_limit_ms = 100;
    s.low_share = 0.15, s.high_share = 0.15, s.closed_share = 0.15;
    s.batch_share = 0.55;
    s.headline = "batch";
  } else if (name == "capture_seal") {
    s.wal_flush_per_run = true;
    // Served phases: IndexProj only, as on batch_sealed; the store is
    // the reopened, sealed image.
    s.served = {MixKind::kFamilies, 512, 0.0, 0.0};
    s.low_rate = 150, s.high_rate = 250, s.latency_limit_ms = 100;
    s.low_share = 0.2, s.high_share = 0.15, s.closed_share = 0.15;
    s.batch_share = 0.2, s.capture_share = 0.3;
    s.headline = "capture";
  } else {
    return std::nullopt;
  }
  return s;
}

std::vector<Family> MakeFamilies(const WorkloadSpec& spec, uint64_t seed) {
  Rng rng(StreamSeed(seed, "families"));
  // Run ids carry the seed, so which shard a run hashes to varies with
  // the seed like every other input.
  const std::string tag = "s" + std::to_string(seed % 100000) + "_";
  std::vector<Family> out;
  if (spec.name != "capture_seal") {
    Family syn;
    syn.name = "syn";
    syn.kind = Family::Kind::kSynthetic;
    syn.chain_length = kServedChain;
    for (int r = 0; r < kServedRuns; ++r) {
      syn.runs.push_back(
          {tag + std::to_string(r),
           {{"ListSize", pl::testbed::SyntheticInput(kServedListSize)}},
           kServedListSize});
    }
    out.push_back(std::move(syn));
    return out;
  }
  Family syn;
  syn.name = "syn";
  syn.kind = Family::Kind::kSynthetic;
  syn.chain_length = kCaptureChain;
  for (int r = 0; r < kCaptureSynRuns; ++r) {
    int d = rng.Range(6, 18);
    syn.runs.push_back({tag + "syn" + std::to_string(r),
                        {{"ListSize", pl::testbed::SyntheticInput(d)}},
                        d});
  }
  Family gk;
  gk.name = "gk";
  gk.kind = Family::Kind::kGk;
  for (int r = 0; r < kCaptureGkRuns; ++r) {
    int lists = rng.Range(2, 5);
    int genes = rng.Range(2, 4);
    gk.runs.push_back(
        {tag + "gk" + std::to_string(r),
         {{"list_of_geneIDList",
           pl::testbed::GkSyntheticInput(lists, genes, rng.Next())}},
         lists});
  }
  Family pd;
  pd.name = "pd";
  pd.kind = Family::Kind::kPd;
  for (int r = 0; r < kCapturePdRuns; ++r) {
    pd.runs.push_back({tag + "pd" + std::to_string(r),
                       {{"terms", pl::testbed::PdSampleInput()}},
                       1});
  }
  out.push_back(std::move(syn));
  out.push_back(std::move(gk));
  out.push_back(std::move(pd));
  return out;
}

namespace {

/// A family's dataflow and a freshly seeded activity registry (the
/// simulators behind GK and PD are seeded, so every capture of the same
/// runs records the same values).
Status MakeFlow(const Family& f,
                std::shared_ptr<const pl::workflow::Dataflow>* flow,
                std::shared_ptr<pl::engine::ActivityRegistry>* registry) {
  switch (f.kind) {
    case Family::Kind::kSynthetic: {
      PROVLIN_ASSIGN_OR_RETURN(*flow,
                               pl::testbed::MakeSyntheticWorkflow(f.chain_length));
      *registry = std::make_shared<pl::engine::ActivityRegistry>();
      pl::engine::RegisterBuiltinActivities(registry->get());
      return Status::OK();
    }
    case Family::Kind::kGk: {
      PROVLIN_ASSIGN_OR_RETURN(*flow, pl::testbed::MakeGkWorkflow());
      PROVLIN_ASSIGN_OR_RETURN(*registry, pl::testbed::MakeGkRegistry(42));
      return Status::OK();
    }
    case Family::Kind::kPd: {
      PROVLIN_ASSIGN_OR_RETURN(*flow, pl::testbed::MakePdWorkflow(22));
      PROVLIN_ASSIGN_OR_RETURN(*registry, pl::testbed::MakePdRegistry(7));
      return Status::OK();
    }
  }
  return Status::Internal("unknown family kind");
}

}  // namespace

Status Capture(std::vector<Family>* families, const std::string& wal_base,
               Stores* stores, CaptureStats* stats) {
  pl::provenance::StoreOptions options;
  options.shards = kShards;
  options.async_ingest = true;
  options.compress = pl::provenance::CompressMode::kOff;
  options.wal_base = wal_base;
  const Clock::time_point start = Clock::now();
  stores->reopened.reset();
  stores->captured.reset();
  PROVLIN_ASSIGN_OR_RETURN(pl::provenance::OpenedStore opened,
                           pl::provenance::OpenStore(options));
  stores->captured.emplace(std::move(opened));
  pl::provenance::TraceStore& store = stores->capture();
  auto timed_flush = [&]() -> Status {
    Clock::time_point t = Clock::now();
    Status s = store.Flush();
    stats->flush_ms.push_back(MsBetween(t, Clock::now()));
    return s;
  };
  for (Family& f : *families) {
    std::shared_ptr<pl::engine::ActivityRegistry> registry;
    PROVLIN_RETURN_IF_ERROR(MakeFlow(f, &f.flow, &registry));
    for (const RunSpec& run : f.runs) {
      Clock::time_point t = Clock::now();
      pl::provenance::TraceRecorder recorder(&store);
      pl::engine::Executor executor(registry.get(), &recorder);
      PROVLIN_RETURN_IF_ERROR(
          executor.Execute(*f.flow, run.inputs, run.id).status());
      PROVLIN_RETURN_IF_ERROR(recorder.status());
      PROVLIN_RETURN_IF_ERROR(timed_flush());
      stats->run_ids.push_back(run.id);
      stats->run_ms.push_back(MsBetween(t, Clock::now()));
    }
  }
  PROVLIN_RETURN_IF_ERROR(timed_flush());
  stats->wall_s += SecondsSince(start);
  stats->rows += store.ApproxMemory().hot_rows;
  stores->query = &store;
  return Status::OK();
}

Status AttachEngines(std::vector<Family>* families,
                     const pl::provenance::TraceStore* store) {
  for (Family& f : *families) {
    f.naive = std::make_unique<pl::lineage::NaiveLineage>(store);
    PROVLIN_ASSIGN_OR_RETURN(pl::lineage::IndexProjLineage ip,
                             pl::lineage::IndexProjLineage::Create(f.flow, store));
    f.indexproj = std::make_unique<pl::lineage::IndexProjLineage>(std::move(ip));
  }
  return Status::OK();
}

namespace {

/// LISTGEN_1 plus chain processors from the end of both chains: the
/// Fig. 10 interest-set shape (|P| = size).
InterestSet SyntheticInterest(int chain_length, int size) {
  InterestSet interest{pl::testbed::kListGen};
  int added = 1;
  for (int k = chain_length; k >= 1 && added < size; --k) {
    interest.insert(pl::testbed::ChainAProc(k));
    if (++added >= size) break;
    interest.insert(pl::testbed::ChainBProc(k));
    ++added;
  }
  return interest;
}

/// Random sources of one request. `shape` picks the categorical
/// attributes (engine tie, interest class, target kind and depth, run
/// count, family) and is seeded with a constant, so the k-th request of a
/// mix has the same shape under every seed and the popular head of a Zipf
/// mix costs the same mix of work; `values` picks runs and indices from
/// the seed.
struct Sources {
  Rng shape;
  Rng values;
};

/// Picks 1 run (or 2-4 distinct runs when `multi`), returning the run ids
/// and the smallest list size among them (the valid index bound).
std::pair<std::vector<std::string>, int> PickRuns(const Family& f, bool multi,
                                                  Sources* src) {
  size_t want = multi ? static_cast<size_t>(src->shape.Range(2, 4)) : 1;
  want = std::min(want, f.runs.size());
  std::set<size_t> chosen;
  while (chosen.size() < want) {
    chosen.insert(src->values.Uniform(f.runs.size()));
  }
  std::vector<std::string> ids;
  int bound = 1 << 30;
  for (size_t i : chosen) {
    ids.push_back(f.runs[i].id);
    bound = std::min(bound, f.runs[i].list_size);
  }
  return {ids, bound};
}

LineageRequest SyntheticRequest(const Family& f, bool multi, int interest_class,
                                Sources* src) {
  auto [runs, d] = PickRuns(f, multi, src);
  const int l = f.chain_length;
  static const int kSizes[] = {1, 8, 16};
  InterestSet interest = interest_class < 3
                             ? SyntheticInterest(l, kSizes[interest_class])
                             : InterestSet{};
  const auto bound = static_cast<uint64_t>(d);
  int32_t i = static_cast<int32_t>(src->values.Uniform(bound));
  double t = src->shape.Unit();
  if (t < 0.7) {
    int32_t j = static_cast<int32_t>(src->values.Uniform(bound));
    return LineageRequest::MultiRun(
        runs, PortRef{pl::workflow::kWorkflowProcessor, "RESULT"},
        Index({i, j}), interest);
  }
  int k = src->shape.Range(l / 2, l);  // depth sets the cost, so: shape
  std::string proc = t < 0.85 ? pl::testbed::ChainAProc(k)
                              : pl::testbed::ChainBProc(k);
  return LineageRequest::MultiRun(runs, PortRef{proc, "y"}, Index({i}),
                                  interest);
}

std::string RequestKey(const Request& r) {
  std::string key = std::to_string(r.family) + "|" + r.request.ToString();
  for (const std::string& p : r.request.interest) key += "|" + p;
  if (r.engine) key += "|e" + std::to_string(static_cast<int>(*r.engine));
  return key;
}

}  // namespace

namespace {

Request MakeRequest(MixKind kind, const std::vector<Family>& families,
                    Sources* src) {
  Request r;
  Rng& shape = src->shape;
  switch (kind) {
    case MixKind::kServed:
      r.request = SyntheticRequest(families[0], shape.Unit() < 0.3,
                                   static_cast<int>(shape.Uniform(4)), src);
      return r;
    case MixKind::kProbeHeavy:
      if (shape.Unit() < 0.5) {
        r.engine = EngineKind::kNaive;
        r.request = SyntheticRequest(families[0], false,
                                     static_cast<int>(shape.Uniform(4)), src);
      } else {
        r.engine = EngineKind::kIndexProj;
        r.request = SyntheticRequest(families[0], true, 3, src);
      }
      return r;
    case MixKind::kFamilies:
      break;
  }
  double f = shape.Unit();
  r.family = f < 0.6 ? 0 : f < 0.85 ? 1 : 2;
  const Family& fam = families[r.family];
  bool multi = shape.Unit() < 0.3;
  if (fam.kind == Family::Kind::kSynthetic) {
    r.request = SyntheticRequest(fam, multi,
                                 static_cast<int>(shape.Uniform(4)), src);
    return r;
  }
  auto [runs, bound] = PickRuns(fam, multi, src);
  bool focused = shape.Unit() < 0.5;
  if (fam.kind == Family::Kind::kGk) {
    int32_t i = static_cast<int32_t>(
        src->values.Uniform(static_cast<uint64_t>(bound)));
    r.request = LineageRequest::MultiRun(
        runs, PortRef{pl::workflow::kWorkflowProcessor, "paths_per_gene"},
        Index({i}),
        focused ? InterestSet{"get_pathways_by_genes"} : InterestSet{});
  } else {
    r.request = LineageRequest::MultiRun(
        runs, PortRef{pl::workflow::kWorkflowProcessor, "discovered_proteins"},
        Index({0}), focused ? InterestSet{"normalize_terms"} : InterestSet{});
  }
  return r;
}

void AddMix(const MixSpec& mix, const std::vector<Family>& families,
            Sources* src, std::vector<Request>* out) {
  // Each rank's shape is drawn once; a duplicate key redraws only the
  // values, so rank k has the same shape under every seed. A shape whose
  // values keep colliding is given up after kTries and the next drawn.
  constexpr int kTries = 32;
  std::set<std::string> seen;
  const size_t want = out->size() + mix.size;
  for (size_t shapes = 0; out->size() < want && shapes < mix.size * 4;
       ++shapes) {
    const Rng shape = src->shape;
    for (int t = 0; t < kTries; ++t) {
      src->shape = shape;
      Request r = MakeRequest(mix.kind, families, src);
      if (seen.insert(RequestKey(r)).second) {
        out->push_back(std::move(r));
        break;
      }
    }
  }
}

}  // namespace

std::vector<Request> MakeUniverse(const WorkloadSpec& spec,
                                  const std::vector<Family>& families,
                                  uint64_t seed) {
  Sources src{Rng(StreamSeed(0, "universe/shape")),
              Rng(StreamSeed(seed, "universe/values"))};
  std::vector<Request> out;
  AddMix(spec.served, families, &src, &out);
  AddMix(spec.batch, families, &src, &out);
  return out;
}

std::vector<Draw> MakeDraws(const WorkloadSpec& spec,
                            const std::vector<Request>& universe,
                            uint64_t seed, const std::string& phase,
                            size_t n) {
  Rng rng(StreamSeed(seed, "draws/" + phase));
  const bool batch_mix = phase.rfind("batch", 0) == 0 && spec.batch.size > 0;
  const MixSpec& mix = batch_mix ? spec.batch : spec.served;
  // The served mix's requests come first in the universe.
  const size_t base = batch_mix ? universe.size() - spec.batch.size : 0;
  const size_t size = std::min(mix.size, universe.size() - base);
  std::vector<double> cdf;
  if (mix.zipf_s > 0) {
    // Zipf over positions: the mix is already in seeded random order, so
    // position = popularity rank.
    double total = 0;
    for (size_t r = 1; r <= size; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), mix.zipf_s);
      cdf.push_back(total);
    }
    for (double& c : cdf) c /= total;
  }
  std::vector<Draw> out;
  out.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    size_t pos = cdf.empty()
                     ? rng.Uniform(size)
                     : std::min<size_t>(
                           std::lower_bound(cdf.begin(), cdf.end(), rng.Unit()) -
                               cdf.begin(),
                           size - 1);
    Draw d;
    d.request = static_cast<uint32_t>(base + pos);
    const Request& req = universe[d.request];
    d.engine = req.engine ? *req.engine
               : rng.Unit() < mix.ni_share ? EngineKind::kNaive
                                           : EngineKind::kIndexProj;
    out.push_back(d);
  }
  return out;
}

}  // namespace perfbench
