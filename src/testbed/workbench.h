#ifndef PROVLIN_TESTBED_WORKBENCH_H_
#define PROVLIN_TESTBED_WORKBENCH_H_

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/result.h"
#include "engine/executor.h"
#include "lineage/engine.h"
#include "lineage/index_proj_lineage.h"
#include "lineage/naive_lineage.h"
#include "provenance/trace_store.h"
#include "storage/database.h"
#include "workflow/dataflow.h"

namespace provlin::testbed {

/// Owns one end-to-end setup — dataflow, activity registry, trace
/// database, lineage engines — and the glue to execute runs with
/// provenance capture. Tests, benches and examples all build on this.
class Workbench {
 public:
  /// The Fig. 5 synthetic family with chain length `l`. `store_options`
  /// shapes the trace store (shard count, async ingest) — the default
  /// is one shard with synchronous ingest (modulo PROVLIN_TEST_SHARDS).
  static Result<std::unique_ptr<Workbench>> Synthetic(
      int chain_length,
      const provenance::TraceStoreOptions& store_options = {});
  /// The genes2Kegg workflow with the simulated KEGG services.
  static Result<std::unique_ptr<Workbench>> GK(
      uint64_t seed = 42,
      const provenance::TraceStoreOptions& store_options = {});
  /// The protein-discovery workflow with the simulated PubMed services.
  static Result<std::unique_ptr<Workbench>> PD(
      int text_steps = 22, uint64_t seed = 7,
      const provenance::TraceStoreOptions& store_options = {});
  /// Any dataflow + registry combination.
  static Result<std::unique_ptr<Workbench>> Create(
      std::shared_ptr<const workflow::Dataflow> flow,
      std::shared_ptr<engine::ActivityRegistry> registry,
      const provenance::TraceStoreOptions& store_options = {});

  /// Executes one run with provenance capture; fails if the recorder hit
  /// a storage error.
  Result<engine::RunResult> Run(const std::map<std::string, Value>& inputs,
                                const std::string& run_id,
                                const engine::ExecuteOptions& options = {});

  /// Synthetic convenience: binds { ListSize: d }.
  Result<engine::RunResult> RunSynthetic(int d, const std::string& run_id);

  const std::shared_ptr<const workflow::Dataflow>& flow() const {
    return flow_;
  }
  provenance::TraceStore* store() { return &*store_; }
  const provenance::TraceStore* store() const { return &*store_; }
  storage::Database* db() { return db_.get(); }

  /// The NI baseline over this workbench's trace store.
  lineage::NaiveLineage Naive() const {
    return lineage::NaiveLineage(&*store_);
  }
  /// The IndexProj engine (owned; plan cache persists across queries).
  lineage::IndexProjLineage* IndexProj() { return &*index_proj_; }

  /// Stable engine instance by name ("naive" | "indexproj"), as the
  /// LineageEngine interface — what service batches and interface-level
  /// tests address. Returns nullptr for unknown names.
  const lineage::LineageEngine* Engine(std::string_view name) {
    if (name == "naive") return &*naive_;
    if (name == "indexproj") return &*index_proj_;
    return nullptr;
  }

 private:
  Workbench() = default;

  std::unique_ptr<storage::Database> db_;
  std::optional<provenance::TraceStore> store_;
  std::shared_ptr<const workflow::Dataflow> flow_;
  std::shared_ptr<engine::ActivityRegistry> registry_;
  std::optional<lineage::NaiveLineage> naive_;
  std::optional<lineage::IndexProjLineage> index_proj_;
};

}  // namespace provlin::testbed

#endif  // PROVLIN_TESTBED_WORKBENCH_H_
