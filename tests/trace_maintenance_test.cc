// Trace maintenance: pruning runs, run metadata.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.h"
#include "storage/table.h"
#include "testbed/synthetic.h"
#include "testbed/workbench.h"

namespace provlin::provenance {
namespace {

using testbed::Workbench;

class TraceMaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wb_ = std::move(*Workbench::Synthetic(3));
    ASSERT_TRUE(wb_->RunSynthetic(3, "keep").ok());
    ASSERT_TRUE(wb_->RunSynthetic(4, "prune").ok());
  }
  std::unique_ptr<Workbench> wb_;
};

TEST_F(TraceMaintenanceTest, RunWorkflowMetadata) {
  EXPECT_EQ(*wb_->store()->RunWorkflow("keep"), "synthetic_l3");
  EXPECT_FALSE(wb_->store()->RunWorkflow("ghost").ok());
}

TEST_F(TraceMaintenanceTest, DeleteRunRemovesAllItsRows) {
  auto before_all = *wb_->store()->CountAllRecords();
  auto prune_counts = *wb_->store()->CountRecords("prune");

  auto removed = wb_->store()->DeleteRun("prune");
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  // Dependency rows + value rows + the runs row itself.
  EXPECT_EQ(*removed, prune_counts.TotalDependencyRecords() +
                          prune_counts.value_rows + 1);

  EXPECT_EQ(*wb_->store()->ListRuns(), (std::vector<std::string>{"keep"}));
  auto after_all = *wb_->store()->CountAllRecords();
  EXPECT_EQ(after_all.TotalDependencyRecords() + after_all.value_rows,
            before_all.TotalDependencyRecords() + before_all.value_rows -
                (*removed - 1));
  // The pruned run's rows are gone from probes too.
  auto rows = *wb_->store()->FindProducing("prune", "CHAINA_1", "y", Index());
  EXPECT_TRUE(rows.empty());
  // The surviving run is untouched.
  auto kept = *wb_->store()->FindProducing("keep", "CHAINA_1", "y", Index());
  EXPECT_EQ(kept.size(), 3u);
}

TEST_F(TraceMaintenanceTest, DeleteRunMaintainsIndexConsistency) {
  ASSERT_TRUE(wb_->store()->DeleteRun("prune").ok());
  for (const std::string& name : wb_->db()->TableNames()) {
    EXPECT_TRUE((*wb_->db()->GetTable(name))->CheckIndexConsistency().ok())
        << name;
  }
}

/// Every access-path counter a query can move: each table's read-side
/// TableStats, the process-wide storage/* mirrors, and this thread's
/// ThreadStats.
std::vector<uint64_t> AccessPathCounters(const storage::Database& db) {
  std::vector<uint64_t> out;
  for (const std::string& name : db.TableNames()) {
    const storage::TableStats st = (*db.GetTable(name))->stats();
    for (uint64_t v : {st.index_probes, st.full_scans, st.rows_examined,
                       st.batched_probes, st.descents}) {
      out.push_back(v);
    }
  }
  for (const char* name :
       {"storage/index_probes", "storage/full_scans", "storage/rows_examined",
        "storage/batched_probes", "storage/descents"}) {
    out.push_back(common::metrics::GetCounter(name)->Value());
  }
  const storage::ThreadStats& ts = storage::ThisThreadStats();
  for (uint64_t v : {ts.index_probes, ts.full_scans, ts.rows_examined,
                     ts.batched_probes, ts.descents}) {
    out.push_back(v);
  }
  return out;
}

TEST_F(TraceMaintenanceTest, DeleteRunMovesNoAccessPathCounter) {
  ASSERT_TRUE(wb_->store()->Flush().ok());
  const std::vector<uint64_t> before = AccessPathCounters(*wb_->db());
  auto removed = wb_->store()->DeleteRun("prune");
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_GT(*removed, 0u);
  EXPECT_EQ(AccessPathCounters(*wb_->db()), before);
  // An unknown run is refused without charging a probe either.
  EXPECT_FALSE(wb_->store()->DeleteRun("ghost").ok());
  EXPECT_EQ(AccessPathCounters(*wb_->db()), before);
}

TEST_F(TraceMaintenanceTest, RunRemovalRefusesHashIndexedTables) {
  // runs and val are hash-indexed: a run's rows there are found row by
  // row, never removed as one key range.
  for (const char* name : {"runs#0", "val#0"}) {
    auto table = wb_->db()->GetTable(name);
    ASSERT_TRUE(table.ok()) << name;
    auto removed = (*table)->RemoveByLeadingKey(storage::Datum("keep"));
    EXPECT_EQ(removed.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST_F(TraceMaintenanceTest, DeleteUnknownRunFails) {
  auto removed = wb_->store()->DeleteRun("ghost");
  EXPECT_FALSE(removed.ok());
  EXPECT_EQ(removed.status().code(), StatusCode::kNotFound);
}

TEST_F(TraceMaintenanceTest, RunIdIsReusableAfterDelete) {
  ASSERT_TRUE(wb_->store()->DeleteRun("prune").ok());
  ASSERT_TRUE(wb_->RunSynthetic(5, "prune").ok());
  auto rows = *wb_->store()->FindProducing("prune", "CHAINA_1", "y", Index());
  EXPECT_EQ(rows.size(), 5u);
  // Lineage over the re-recorded run works end to end.
  auto answer = wb_->IndexProj()->Query(lineage::LineageRequest::SingleRun("prune", {workflow::kWorkflowProcessor, "RESULT"}, Index({0, 0}),
      {testbed::kListGen}));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_EQ(answer->bindings.size(), 1u);
  EXPECT_EQ(answer->bindings[0].value_repr, "5");
}

}  // namespace
}  // namespace provlin::provenance
