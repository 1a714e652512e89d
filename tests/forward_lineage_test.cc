// Forward (impact) lineage: unit behaviour on known workflows.

#include "lineage/forward_lineage.h"

#include <gtest/gtest.h>

#include "lineage/index_pattern.h"
#include "testbed/synthetic.h"
#include "testbed/workbench.h"

namespace provlin::lineage {
namespace {

using testbed::Workbench;
using workflow::kWorkflowProcessor;
using workflow::PortRef;

TEST(IndexPattern, BasicsAndMatching) {
  IndexPattern p(Index({1, 2}));
  EXPECT_EQ(p.ToString(), "[2,3]");
  EXPECT_TRUE(p.Overlaps(Index({1, 2})));
  EXPECT_TRUE(p.Overlaps(Index({1})));       // coarser covering index
  EXPECT_TRUE(p.Overlaps(Index({1, 2, 9}))); // finer index below
  EXPECT_FALSE(p.Overlaps(Index({1, 3})));
  EXPECT_FALSE(p.Overlaps(Index({0})));
  EXPECT_TRUE(p.Overlaps(Index()));          // [] overlaps everything
}

TEST(IndexPattern, WildcardsAndKnownPrefix) {
  IndexPattern p;
  p.AppendWildcard();
  p.AppendKnown(4);
  EXPECT_EQ(p.ToString(), "[*,5]");
  EXPECT_TRUE(p.Overlaps(Index({9, 4})));
  EXPECT_FALSE(p.Overlaps(Index({9, 5})));
  EXPECT_TRUE(p.Overlaps(Index({9})));
  EXPECT_EQ(p.KnownPrefix(), Index());  // leading wildcard blocks prefix

  IndexPattern q(Index({3}));
  q.AppendWildcard();
  EXPECT_EQ(q.KnownPrefix(), Index({3}));
  EXPECT_FALSE(q.AllWildcards());
  EXPECT_TRUE(IndexPattern::Any().AllWildcards());
}

class ForwardSynthetic : public ::testing::Test {
 protected:
  void SetUp() override {
    wb_ = std::move(*Workbench::Synthetic(3));
    ASSERT_TRUE(wb_->RunSynthetic(4, "r0").ok());
    auto fwd = ForwardIndexProjLineage::Create(wb_->flow(), wb_->store());
    ASSERT_TRUE(fwd.ok());
    fwd_.emplace(std::move(*fwd));
  }

  NaiveForwardLineage Naive() { return NaiveForwardLineage(wb_->store()); }

  std::unique_ptr<Workbench> wb_;
  std::optional<ForwardIndexProjLineage> fwd_;
};

TEST_F(ForwardSynthetic, ElementImpactsOneRowAndOneColumn) {
  // Element e1 of the generated list flows down both chains; through the
  // cross product it reaches row 1 (via chain A) and column 1 (via chain
  // B) of the final d*d result.
  PortRef target{testbed::kListGen, "list"};
  InterestSet interest{kWorkflowProcessor};

  auto ni = Naive().Query("r0", target, Index({1}), interest);
  ASSERT_TRUE(ni.ok()) << ni.status().ToString();
  auto ip = fwd_->Query("r0", target, Index({1}), interest);
  ASSERT_TRUE(ip.ok()) << ip.status().ToString();
  EXPECT_EQ(ni->bindings, ip->bindings);

  // 4 row entries + 4 column entries, overlapping at [1,1]: 7 bindings.
  ASSERT_EQ(ip->bindings.size(), 7u);
  for (const auto& b : ip->bindings) {
    EXPECT_EQ(b.port.ToString(), "workflow:RESULT");
    EXPECT_TRUE(b.index[0] == 1 || b.index[1] == 1) << b.ToString();
  }
}

TEST_F(ForwardSynthetic, ImpactThroughOneChainOnly) {
  // From a mid-chain-A binding, the impact covers exactly row 2.
  PortRef target{testbed::ChainAProc(2), "y"};
  auto ip = fwd_->Query("r0", target, Index({2}), {kWorkflowProcessor});
  ASSERT_TRUE(ip.ok());
  ASSERT_EQ(ip->bindings.size(), 4u);
  for (const auto& b : ip->bindings) {
    EXPECT_EQ(b.index[0], 2) << b.ToString();
  }
  auto ni = Naive().Query("r0", target, Index({2}), {kWorkflowProcessor});
  ASSERT_TRUE(ni.ok());
  EXPECT_EQ(ni->bindings, ip->bindings);
}

TEST_F(ForwardSynthetic, FocusedOnIntermediateProcessor) {
  // Impact of list element 0 on CHAINB_2's outputs only.
  PortRef target{kWorkflowProcessor, "ListSize"};
  InterestSet interest{testbed::ChainBProc(2)};
  auto ip = fwd_->Query("r0", target, Index(), interest);
  ASSERT_TRUE(ip.ok());
  // The size scalar impacts every element: 4 out bindings of CHAINB_2.
  EXPECT_EQ(ip->bindings.size(), 4u);
  auto ni = Naive().Query("r0", target, Index(), interest);
  ASSERT_TRUE(ni.ok());
  EXPECT_EQ(ni->bindings, ip->bindings);
}

TEST_F(ForwardSynthetic, WholeValueImpactCoversEverything) {
  PortRef target{testbed::kListGen, "list"};
  auto ip = fwd_->Query("r0", target, Index(), {kWorkflowProcessor});
  ASSERT_TRUE(ip.ok());
  EXPECT_EQ(ip->bindings.size(), 16u);  // the full 4x4 result
  auto ni = Naive().Query("r0", target, Index(), {kWorkflowProcessor});
  ASSERT_TRUE(ni.ok());
  EXPECT_EQ(ni->bindings, ip->bindings);
}

TEST_F(ForwardSynthetic, ForwardFromWorkflowOutputIsEmpty) {
  auto ip = fwd_->Query("r0", {kWorkflowProcessor, "RESULT"}, Index({0, 0}),
                        {});
  ASSERT_TRUE(ip.ok());
  EXPECT_TRUE(ip->bindings.empty());
}

TEST_F(ForwardSynthetic, UnknownTargetFails) {
  EXPECT_FALSE(fwd_->Query("r0", {"ghost", "y"}, Index(), {}).ok());
  EXPECT_FALSE(
      fwd_->Query("r0", {testbed::kListGen, "ghost"}, Index(), {}).ok());
}

TEST_F(ForwardSynthetic, ProbeAsymmetryFavorsIndexProj) {
  PortRef target{kWorkflowProcessor, "ListSize"};
  InterestSet interest{kWorkflowProcessor};
  auto ni = Naive().Query("r0", target, Index(), interest);
  auto ip = fwd_->Query("r0", target, Index(), interest);
  ASSERT_TRUE(ni.ok());
  ASSERT_TRUE(ip.ok());
  EXPECT_EQ(ni->bindings, ip->bindings);
  EXPECT_GT(ni->timing.trace_probes, ip->timing.trace_probes);
}

TEST(ForwardSealedTier, ProbeCountsMatchHotStore) {
  // Sealing is purely physical: both forward engines must report the
  // same logical probes whether the run is answered from the hot
  // B+-trees or from its sealed segments.
  provenance::TraceStoreOptions options;
  options.shards = 1;
  options.compress = provenance::CompressMode::kOff;
  auto wb = std::move(*Workbench::Synthetic(3, options));
  ASSERT_TRUE(wb->RunSynthetic(4, "r0").ok());
  auto fwd = ForwardIndexProjLineage::Create(wb->flow(), wb->store());
  ASSERT_TRUE(fwd.ok());
  NaiveForwardLineage naive(wb->store());
  PortRef target{kWorkflowProcessor, "ListSize"};
  InterestSet interest{kWorkflowProcessor};

  auto hot_ni = naive.Query("r0", target, Index(), interest);
  auto hot_ip = fwd->Query("r0", target, Index(), interest);
  ASSERT_TRUE(hot_ni.ok()) << hot_ni.status().ToString();
  ASSERT_TRUE(hot_ip.ok()) << hot_ip.status().ToString();
  ASSERT_GT(hot_ni->timing.trace_probes, 0u);
  ASSERT_GT(hot_ip->timing.trace_probes, 0u);

  ASSERT_TRUE(wb->store()->SealAllRuns().ok());
  ASSERT_GT(wb->store()->ApproxMemory().sealed_rows, 0u);
  auto sealed_ni = naive.Query("r0", target, Index(), interest);
  auto sealed_ip = fwd->Query("r0", target, Index(), interest);
  ASSERT_TRUE(sealed_ni.ok()) << sealed_ni.status().ToString();
  ASSERT_TRUE(sealed_ip.ok()) << sealed_ip.status().ToString();
  EXPECT_EQ(sealed_ni->bindings, hot_ni->bindings);
  EXPECT_EQ(sealed_ip->bindings, hot_ip->bindings);
  EXPECT_EQ(sealed_ni->timing.trace_probes, hot_ni->timing.trace_probes);
  EXPECT_EQ(sealed_ip->timing.trace_probes, hot_ip->timing.trace_probes);
}

TEST_F(ForwardSynthetic, MultiRunImpact) {
  ASSERT_TRUE(wb_->RunSynthetic(3, "r1").ok());
  auto ip = fwd_->QueryMultiRun({"r0", "r1"}, {testbed::kListGen, "list"},
                                Index({0}), {kWorkflowProcessor});
  ASSERT_TRUE(ip.ok());
  std::set<std::string> runs;
  for (const auto& b : ip->bindings) runs.insert(b.run_id);
  EXPECT_EQ(runs, (std::set<std::string>{"r0", "r1"}));
}

TEST_F(ForwardSynthetic, TargetAtProcessorInputPort) {
  // Starting at a consumer-side binding: impact of the element arriving
  // at CHAINB_2:x[2] covers column 2 of the result.
  PortRef target{testbed::ChainBProc(2), "x"};
  auto ip = fwd_->Query("r0", target, Index({2}), {kWorkflowProcessor});
  ASSERT_TRUE(ip.ok()) << ip.status().ToString();
  ASSERT_EQ(ip->bindings.size(), 4u);
  for (const auto& b : ip->bindings) {
    EXPECT_EQ(b.index[1], 2) << b.ToString();
  }
  auto ni = Naive().Query("r0", target, Index({2}), {kWorkflowProcessor});
  ASSERT_TRUE(ni.ok());
  EXPECT_EQ(ni->bindings, ip->bindings);
}

TEST_F(ForwardSynthetic, PlanCacheReusedAcrossForwardQueries) {
  PortRef target{testbed::kListGen, "list"};
  fwd_->ClearPlanCache();
  auto first = fwd_->Query("r0", target, Index({0}), {kWorkflowProcessor});
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->timing.plan_cache_hit);
  auto second = fwd_->Query("r0", target, Index({0}), {kWorkflowProcessor});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->timing.plan_cache_hit);
  EXPECT_EQ(first->bindings, second->bindings);
}

}  // namespace
}  // namespace provlin::lineage
