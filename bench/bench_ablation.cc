// Ablation benches for the design choices DESIGN.md calls out:
//
//   (a) plan caching — the s1 spec traversal is cached per (target,
//       index, 𝒫); how much does a cold plan cost as the graph grows?
//   (b) value interning — the recorder dedups value literals per run;
//       how much smaller is the val table than the raw binding stream?
//   (c) overlap-probe shape — the trace store answers an index-overlap
//       question with |q|+1 point probes + 1 range scan; compare with
//       the naive alternative of scanning the whole (run, processor,
//       port) prefix and filtering client-side.

#include <cstdio>

#include "bench/bench_util.h"
#include "lineage/index_proj_lineage.h"
#include "provenance/schema.h"
#include "storage/query.h"
#include "testbed/synthetic.h"
#include "testbed/workbench.h"

using namespace provlin;
using bench::CheckResult;

namespace {

void AblationPlanCache() {
  std::printf("(a) plan cache: cold vs warm IndexProj query (d=25)\n\n");
  bench::TablePrinter table({"l", "cold_ms", "warm_ms", "speedup"});
  for (int l : {10, 50, 100, 150}) {
    auto wb = CheckResult(testbed::Workbench::Synthetic(l), "workbench");
    CheckResult(wb->RunSynthetic(25, "r0"), "run");
    workflow::PortRef target{workflow::kWorkflowProcessor, "RESULT"};
    Index q({1, 2});
    lineage::InterestSet interest{testbed::kListGen};

    double cold = CheckResult(
        bench::BestOfFive([&]() -> Status {
          wb->IndexProj()->ClearPlanCache();
          return wb->IndexProj()->Query(lineage::LineageRequest::SingleRun("r0", target, q, interest)).status();
        }),
        "cold");
    double warm = CheckResult(
        bench::BestOfFive([&]() -> Status {
          return wb->IndexProj()->Query(lineage::LineageRequest::SingleRun("r0", target, q, interest)).status();
        }),
        "warm");
    char speedup[16];
    std::snprintf(speedup, sizeof(speedup), "%.1fx",
                  warm > 0 ? cold / warm : 0.0);
    table.AddRow({std::to_string(l), bench::Ms(cold), bench::Ms(warm),
                  speedup});
  }
  table.Print();
}

void AblationInterning() {
  std::printf("\n(b) value interning: stored literals vs raw bindings\n\n");
  bench::TablePrinter table(
      {"l", "d", "val_rows", "binding_refs", "dedup_ratio"});
  for (auto [l, d] : {std::pair{10, 10}, std::pair{50, 25},
                      std::pair{75, 50}}) {
    auto wb = CheckResult(testbed::Workbench::Synthetic(l), "workbench");
    CheckResult(wb->RunSynthetic(d, "r0"), "run");
    auto counts = CheckResult(wb->store()->CountRecords("r0"), "counts");
    // Each xform row holds up to 2 value refs, each xfer row 1.
    size_t refs = counts.xform_rows * 2 + counts.xfer_rows;
    char ratio[16];
    std::snprintf(ratio, sizeof(ratio), "%.1fx",
                  static_cast<double>(refs) /
                      static_cast<double>(counts.value_rows));
    table.AddRow({std::to_string(l), std::to_string(d),
                  bench::Num(counts.value_rows), bench::Num(refs), ratio});
  }
  table.Print();
}

void AblationProbeShape() {
  std::printf(
      "\n(c) overlap probe: point+range probes vs whole-port scan+filter\n"
      "(l=75, d=50; probing CHAINA_40:y for index [7])\n\n");
  auto wb = CheckResult(testbed::Workbench::Synthetic(75), "workbench");
  CheckResult(wb->RunSynthetic(50, "r0"), "run");

  // Structured overlap probe (what the trace store does).
  double structured = CheckResult(
      bench::BestOfFive([&]() -> Status {
        return wb->store()
            ->FindProducing("r0", "CHAINA_40", "y", Index({7}))
            .status();
      }),
      "structured");

  // Naive alternative: fetch every binding of the port, filter here.
  const storage::Table* xform =
      CheckResult(wb->db()->GetTable(provenance::ShardTableName(
                      provenance::tables::kXform, 0)),
                  "table");
  double scan_all = CheckResult(
      bench::BestOfFive([&]() -> Status {
        storage::SelectQuery q;
        q.equals.push_back({"run_id", storage::Datum("r0")});
        q.equals.push_back({"processor", storage::Datum("CHAINA_40")});
        q.equals.push_back({"out_port", storage::Datum("y")});
        PROVLIN_ASSIGN_OR_RETURN(storage::SelectResult r,
                                 storage::ExecuteSelect(*xform, q));
        size_t hits = 0;
        Index want({7});
        for (const storage::Row& row : r.rows) {
          auto idx = Index::Decode(row[7].AsString());
          if (idx.ok() &&
              (idx->IsPrefixOf(want) || want.IsPrefixOf(*idx))) {
            ++hits;
          }
        }
        if (hits == 0) return Status::Internal("scan found nothing");
        return Status::OK();
      }),
      "scan");

  bench::TablePrinter table({"strategy", "best_ms"});
  table.AddRow({"point+range probes", bench::Ms(structured)});
  table.AddRow({"port scan + filter", bench::Ms(scan_all)});
  table.Print();
}

}  // namespace

int main() {
  AblationPlanCache();
  AblationInterning();
  AblationProbeShape();
  return 0;
}
