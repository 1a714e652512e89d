// The concurrent lineage service: batch and submitted answers must be
// exactly the sequential answers, the shared plan cache must build each
// distinct plan once even under contention, and cache maintenance must
// be safe while queries are in flight.

#include "lineage/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/sync.h"
#include "lineage/engine.h"
#include "lineage/index_proj_lineage.h"
#include "lineage/naive_lineage.h"
#include "testbed/gk_workflow.h"
#include "testbed/synthetic.h"
#include "testbed/workbench.h"

namespace provlin::lineage {
namespace {

using testbed::Workbench;
using workflow::kWorkflowProcessor;
using workflow::PortRef;

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synth_ = std::move(*Workbench::Synthetic(6));
    for (int d = 3; d <= 6; ++d) {
      std::string run = "run-d" + std::to_string(d);
      ASSERT_TRUE(synth_->RunSynthetic(d, run).ok());
      synth_runs_.push_back(run);
    }
    gk_ = std::move(*Workbench::GK());
    ASSERT_TRUE(
        gk_->Run({{"list_of_geneIDList", testbed::GkSampleInput()}}, "gk-run")
            .ok());
  }

  /// 64 requests mixing both engines, both workbenches, several targets
  /// and indices, with heavy key repetition (the plan-cache contention
  /// shape): 8 distinct (engine, plan) groups x 8 repetitions.
  std::vector<ServiceRequest> MixedBatch() {
    PortRef result{kWorkflowProcessor, "RESULT"};
    PortRef per_gene{kWorkflowProcessor, "paths_per_gene"};
    PortRef common{kWorkflowProcessor, "commonPathways"};
    std::vector<ServiceRequest> batch;
    for (int rep = 0; rep < 8; ++rep) {
      // Synthetic, both engines, focused and unfocused.
      batch.push_back({synth_->Engine("indexproj"),
                       LineageRequest::SingleRun(synth_runs_[0], result,
                                                 Index({1, 2}),
                                                 {testbed::kListGen})});
      batch.push_back({synth_->Engine("naive"),
                       LineageRequest::SingleRun(synth_runs_[1], result,
                                                 Index({1, 2}),
                                                 {testbed::kListGen})});
      batch.push_back({synth_->Engine("indexproj"),
                       LineageRequest::SingleRun(synth_runs_[2], result,
                                                 Index({0, 1}), {})});
      // Multi-run request: the whole sweep in one scope.
      LineageRequest sweep;
      sweep.runs = synth_runs_;
      sweep.target = result;
      sweep.index = Index({1, 2});
      sweep.interest = {testbed::kListGen};
      batch.push_back({synth_->Engine("indexproj"), sweep});
      // GK, both engines, two targets.
      batch.push_back({gk_->Engine("indexproj"),
                       LineageRequest::SingleRun(
                           "gk-run", per_gene, Index({0}),
                           {"get_pathways_by_genes"})});
      batch.push_back({gk_->Engine("naive"),
                       LineageRequest::SingleRun(
                           "gk-run", per_gene, Index({0}),
                           {"get_pathways_by_genes"})});
      batch.push_back({gk_->Engine("indexproj"),
                       LineageRequest::SingleRun("gk-run", common, Index({0}),
                                                 {kWorkflowProcessor})});
      batch.push_back({gk_->Engine("naive"),
                       LineageRequest::SingleRun("gk-run", common, Index({0}),
                                                 {})});
    }
    return batch;
  }

  std::unique_ptr<Workbench> synth_;
  std::unique_ptr<Workbench> gk_;
  std::vector<std::string> synth_runs_;
};

TEST_F(ServiceTest, MixedBatchMatchesSequentialExecution) {
  std::vector<ServiceRequest> batch = MixedBatch();
  ASSERT_EQ(batch.size(), 64u);

  // Sequential ground truth through the same interface.
  std::vector<LineageAnswer> expected;
  for (const ServiceRequest& req : batch) {
    auto answer = req.engine->Query(req.request);
    ASSERT_TRUE(answer.ok()) << req.request.ToString();
    expected.push_back(std::move(*answer));
  }

  for (bool group : {true, false}) {
    LineageService service({/*num_threads=*/4, /*group_same_plan=*/group});
    std::vector<ServiceResponse> responses = service.ExecuteBatch(batch);
    ASSERT_EQ(responses.size(), batch.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].status.ok())
          << "group=" << group << " i=" << i << ": "
          << responses[i].status.ToString();
      EXPECT_EQ(responses[i].answer.bindings, expected[i].bindings)
          << "group=" << group << " divergence at request " << i << " ("
          << batch[i].request.ToString() << ")";
      EXPECT_LT(responses[i].worker, service.num_threads());
      EXPECT_GE(responses[i].queue_wait_ms, 0.0);
    }

    ServiceMetrics m = service.metrics();
    EXPECT_EQ(m.batches, 1u);
    EXPECT_EQ(m.requests, batch.size());
    EXPECT_EQ(m.failed_requests, 0u);
    EXPECT_GT(m.last_batch_wall_ms, 0.0);
    // Per-thread probe counts must account for every trace probe the
    // batch issued.
    uint64_t per_thread_sum = 0;
    for (uint64_t p : m.per_thread_probes) per_thread_sum += p;
    EXPECT_EQ(per_thread_sum, m.trace_probes);
    EXPECT_GT(m.trace_probes, 0u);
  }
}

TEST_F(ServiceTest, ExactlyOneBuildPerDistinctKeyUnderContention) {
  IndexProjLineage* engine = synth_->IndexProj();
  engine->ClearPlanCache();
  ASSERT_EQ(engine->plan_cache_size(), 0u);
  uint64_t builds_before = engine->plans_built();
  uint64_t hits_before = engine->plan_cache_hits();

  // 64 requests over exactly 4 distinct plan keys, dispatched one task
  // per request (no grouping) on 8 workers — maximal cache contention.
  PortRef result{kWorkflowProcessor, "RESULT"};
  std::vector<LineageRequest> distinct = {
      LineageRequest::SingleRun(synth_runs_[0], result, Index({1, 2}),
                                {testbed::kListGen}),
      LineageRequest::SingleRun(synth_runs_[0], result, Index({0, 1}),
                                {testbed::kListGen}),
      LineageRequest::SingleRun(synth_runs_[0], result, Index({1, 2}), {}),
      LineageRequest::SingleRun(synth_runs_[0], result, Index(), {}),
  };
  std::vector<ServiceRequest> batch;
  for (int rep = 0; rep < 16; ++rep) {
    for (size_t k = 0; k < distinct.size(); ++k) {
      // Vary the run so grouping could not collapse them anyway.
      LineageRequest req = distinct[k];
      req.runs = {synth_runs_[static_cast<size_t>(rep) % synth_runs_.size()]};
      batch.push_back({engine, req});
    }
  }
  ASSERT_EQ(batch.size(), 64u);

  LineageService service({/*num_threads=*/8, /*group_same_plan=*/false});
  std::vector<ServiceResponse> responses = service.ExecuteBatch(batch);
  for (const ServiceResponse& resp : responses) {
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  }

  // The acceptance criterion: one build per distinct key, every other
  // request a cache hit, nothing lost and nothing built twice.
  EXPECT_EQ(engine->plans_built() - builds_before, distinct.size());
  EXPECT_EQ(engine->plan_cache_hits() - hits_before,
            batch.size() - distinct.size());
  EXPECT_EQ(engine->plan_cache_size(), distinct.size());
}

TEST_F(ServiceTest, PlanCacheMaintenanceSafeUnderConcurrentQueries) {
  IndexProjLineage* engine = synth_->IndexProj();
  PortRef result{kWorkflowProcessor, "RESULT"};
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> querents;
  querents.reserve(4);
  for (int t = 0; t < 4; ++t) {
    querents.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        Index q = (i + t) % 2 == 0 ? Index({1, 2}) : Index({0, 1});
        auto answer = engine->Query(LineageRequest::SingleRun(
            synth_runs_[0], result, q, {testbed::kListGen}));
        if (!answer.ok() || answer->bindings.empty()) failures.fetch_add(1);
      }
    });
  }
  // Concurrent maintenance: clear and inspect the cache while queries
  // race through it.
  std::thread maintainer([&] {
    while (!stop.load()) {
      engine->ClearPlanCache();
      (void)engine->plan_cache_size();
      std::this_thread::yield();
    }
  });
  for (std::thread& t : querents) t.join();
  stop.store(true);
  maintainer.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServiceTest, BadRequestFailsAloneWithoutPoisoningBatch) {
  PortRef result{kWorkflowProcessor, "RESULT"};
  std::vector<ServiceRequest> batch;
  batch.push_back({synth_->Engine("indexproj"),
                   LineageRequest::SingleRun(synth_runs_[0], result,
                                             Index({1, 2}),
                                             {testbed::kListGen})});
  batch.push_back({nullptr,  // no engine: must fail in isolation
                   LineageRequest::SingleRun(synth_runs_[0], result, Index(),
                                             {})});
  batch.push_back({synth_->Engine("naive"),
                   LineageRequest::SingleRun(synth_runs_[1], result,
                                             Index({1, 2}),
                                             {testbed::kListGen})});

  LineageService service({/*num_threads=*/2, /*group_same_plan=*/true});
  std::vector<ServiceResponse> responses = service.ExecuteBatch(batch);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_FALSE(responses[1].status.ok());
  EXPECT_TRUE(responses[2].status.ok());
  EXPECT_FALSE(responses[0].answer.bindings.empty());
  EXPECT_FALSE(responses[2].answer.bindings.empty());

  ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.requests, 3u);
  EXPECT_EQ(m.failed_requests, 1u);
}

TEST_F(ServiceTest, SubmitAnswersOnAPoolWorkerAndAccountsEachRequest) {
  // Each test runs in its own process under ctest; the reset makes the
  // registry comparison below hold when the binary runs whole too.
  common::metrics::MetricsRegistry::Global().Reset();
  PortRef result{kWorkflowProcessor, "RESULT"};
  LineageRequest focused = LineageRequest::SingleRun(
      synth_runs_[0], result, Index({1, 2}), {testbed::kListGen});
  std::vector<ServiceRequest> requests = {
      {synth_->Engine("indexproj"), focused},
      {synth_->Engine("indexproj"), focused},
      {synth_->Engine("naive"),
       LineageRequest::SingleRun(synth_runs_[1], result, Index({1, 2}), {})},
      {synth_->Engine("indexproj"),
       LineageRequest::SingleRun(synth_runs_[2],
                                 {kWorkflowProcessor, "NO_SUCH_PORT"},
                                 Index(), {})},
  };
  // Ground truth first: it also warms the IndexProj plan, so every
  // submitted IndexProj request that succeeds is a plan-cache hit.
  std::vector<Result<LineageAnswer>> expected;
  for (const ServiceRequest& req : requests) {
    expected.push_back(req.engine->Query(req.request));
  }
  ASSERT_FALSE(expected.back().ok());

  LineageService service({/*num_threads=*/2});
  struct Collected {
    common::Mutex mu{common::LockRank::kTestInner};
    common::CondVar cv;
    std::vector<ServiceResponse> responses GUARDED_BY(mu);
    std::vector<std::thread::id> threads GUARDED_BY(mu);
    size_t done GUARDED_BY(mu) = 0;
  } got;
  {
    common::MutexLock lock(got.mu);
    got.responses.resize(requests.size());
    got.threads.resize(requests.size());
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    service.Submit(requests[i], [&got, i](ServiceResponse r) {
      common::MutexLock lock(got.mu);
      got.responses[i] = std::move(r);
      got.threads[i] = std::this_thread::get_id();
      ++got.done;
      got.cv.NotifyAll();
    });
  }
  std::vector<ServiceResponse> responses;
  std::vector<std::thread::id> threads;
  {
    common::MutexLock lock(got.mu);
    while (got.done != requests.size()) got.cv.Wait(got.mu);
    responses = std::move(got.responses);
    threads = std::move(got.threads);
  }

  uint64_t probes = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const ServiceResponse& r = responses[i];
    EXPECT_NE(threads[i], std::this_thread::get_id()) << i;
    EXPECT_LT(r.worker, service.num_threads()) << i;
    EXPECT_GE(r.queue_wait_ms, 0.0);
    ASSERT_EQ(r.status.ok(), expected[i].ok()) << i << ": "
                                               << r.status.ToString();
    if (r.status.ok()) {
      EXPECT_EQ(r.answer.bindings, expected[i]->bindings) << i;
    }
    probes += r.probes;
  }

  // Accounted before `done` ran: every request is already in metrics().
  ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.batches, 0u);
  EXPECT_EQ(m.requests, requests.size());
  EXPECT_EQ(m.failed_requests, 1u);
  EXPECT_EQ(m.plan_cache_hits, 2u);
  EXPECT_EQ(m.probe_memo_lookups, 0u);  // no memo outside a batch
  uint64_t per_thread_sum = 0;
  for (uint64_t p : m.per_thread_probes) per_thread_sum += p;
  EXPECT_EQ(per_thread_sum, probes);
  EXPECT_EQ(per_thread_sum, m.trace_probes);
  EXPECT_GT(m.trace_probes, 0u);

  ServiceMetrics reg = ServiceMetrics::FromRegistrySnapshot(
      common::metrics::MetricsRegistry::Global().Snapshot());
  EXPECT_EQ(reg.batches, 0u);
  EXPECT_EQ(reg.requests, m.requests);
  EXPECT_EQ(reg.failed_requests, m.failed_requests);
  EXPECT_EQ(reg.plan_cache_hits, m.plan_cache_hits);
  EXPECT_EQ(reg.trace_probes, m.trace_probes);
  EXPECT_EQ(reg.trace_descents, m.trace_descents);
}

TEST_F(ServiceTest, SubmitSkipsARequestCancelledBeforeItRuns) {
  // A request whose cancel flag is set when a worker picks it up is
  // answered Unavailable without running, and is not accounted.
  LineageService service({/*num_threads=*/1});
  std::atomic<bool> cancel{true};
  ServiceResponse got;
  service.Submit(
      {synth_->Engine("indexproj"),
       LineageRequest::SingleRun(synth_runs_[0],
                                 {kWorkflowProcessor, "RESULT"}, Index(), {})},
      [&got](ServiceResponse r) { got = std::move(r); }, &cancel);
  service.WaitIdle();  // `done` has returned: `got` is safe to read
  EXPECT_TRUE(got.status.IsUnavailable()) << got.status.ToString();
  EXPECT_TRUE(got.answer.bindings.empty());
  EXPECT_EQ(got.probes, 0u);
  ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.requests, 0u);
  EXPECT_EQ(m.failed_requests, 0u);
}

TEST_F(ServiceTest, MetricsAccumulateAcrossBatchesAndReset) {
  LineageService service({/*num_threads=*/2, /*group_same_plan=*/true});
  PortRef result{kWorkflowProcessor, "RESULT"};
  std::vector<ServiceRequest> batch = {
      {synth_->Engine("indexproj"),
       LineageRequest::SingleRun(synth_runs_[0], result, Index({1, 2}),
                                 {testbed::kListGen})}};
  service.ExecuteBatch(batch);
  service.ExecuteBatch(batch);
  ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.batches, 2u);
  EXPECT_EQ(m.requests, 2u);
  // The second batch reuses the first one's cached plan.
  EXPECT_GE(m.plan_cache_hits, 1u);
  EXPECT_GT(m.plan_cache_hit_rate(), 0.0);
  EXPECT_FALSE(m.ToString().empty());

  service.ResetMetrics();
  m = service.metrics();
  EXPECT_EQ(m.batches, 0u);
  EXPECT_EQ(m.requests, 0u);
  EXPECT_EQ(m.per_thread_probes.size(), service.num_threads());
}

TEST_F(ServiceTest, RegistrySnapshotMatchesInstanceMetrics) {
  // The service mirrors every per-instance counter delta into the
  // process-wide registry; with exactly one service in the process the
  // two views must agree. (Each TEST runs in its own process under
  // gtest_discover_tests, so the registry reset below cannot race other
  // tests.)
  common::metrics::MetricsRegistry::Global().Reset();
  LineageService service({/*num_threads=*/3, /*group_same_plan=*/true});
  std::vector<ServiceRequest> batch = MixedBatch();
  service.ExecuteBatch(batch);
  service.ExecuteBatch(batch);

  ServiceMetrics inst = service.metrics();
  ServiceMetrics reg = ServiceMetrics::FromRegistrySnapshot(
      common::metrics::MetricsRegistry::Global().Snapshot());

  EXPECT_EQ(reg.batches, inst.batches);
  EXPECT_EQ(reg.requests, inst.requests);
  EXPECT_EQ(reg.failed_requests, inst.failed_requests);
  EXPECT_EQ(reg.plan_cache_hits, inst.plan_cache_hits);
  EXPECT_EQ(reg.trace_probes, inst.trace_probes);
  EXPECT_EQ(reg.trace_descents, inst.trace_descents);
  EXPECT_EQ(reg.probe_memo_hits, inst.probe_memo_hits);
  EXPECT_EQ(reg.probe_memo_lookups, inst.probe_memo_lookups);
  // The ms totals are histogram sums of the same observations; addition
  // order differs, so allow for rounding. The batch-wall gauge stores
  // whole microseconds.
  EXPECT_NEAR(reg.total_queue_wait_ms, inst.total_queue_wait_ms, 1e-6);
  EXPECT_NEAR(reg.total_exec_ms, inst.total_exec_ms, 1e-6);
  EXPECT_NEAR(reg.last_batch_wall_ms, inst.last_batch_wall_ms, 2e-3);
  // Worker attribution is per-service state the registry does not keep.
  EXPECT_TRUE(reg.per_thread_probes.empty());
  EXPECT_GT(inst.requests, 0u);
  EXPECT_GT(inst.trace_probes, 0u);
}

TEST(ServiceProbeMemoIsolation, StoresWithSameInternOrderDoNotShareMemo) {
  // Two stores that intern their names in the same order hand out the
  // same store-local ids for the same names. One batch spanning both
  // shares one probe memo, so the memo key must tell the stores apart:
  // otherwise store b is answered with store a's (smaller) trace rows.
  auto a = std::move(*Workbench::Synthetic(3));
  auto b = std::move(*Workbench::Synthetic(3));
  ASSERT_TRUE(a->RunSynthetic(4, "r0").ok());
  ASSERT_TRUE(b->RunSynthetic(6, "r0").ok());
  LineageRequest req = LineageRequest::SingleRun(
      "r0", PortRef{kWorkflowProcessor, "RESULT"}, Index(), {});

  std::vector<ServiceRequest> batch = {{a->Engine("naive"), req},
                                       {b->Engine("naive"), req}};
  LineageService service({/*num_threads=*/1, /*group_same_plan=*/true});
  std::vector<ServiceResponse> responses = service.ExecuteBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok()) << responses[i].status.ToString();
    auto direct = batch[i].engine->Query(req);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ASSERT_EQ(responses[i].answer.bindings.size(), direct->bindings.size())
        << "store " << i;
    EXPECT_TRUE(responses[i].answer.bindings == direct->bindings)
        << "store " << i;
  }
}

TEST_F(ServiceTest, EngineInterfaceReportsNames) {
  EXPECT_EQ(synth_->Engine("naive")->name(), "naive");
  EXPECT_EQ(synth_->Engine("indexproj")->name(), "indexproj");
  EXPECT_EQ(synth_->Engine("nonsense"), nullptr);
}

}  // namespace
}  // namespace provlin::lineage
