// Scan-based lineage oracle for the equivalence suites.
//
// An independent implementation of Def. 1 (the naïve traversal of the
// extensional provenance trace) that shares no probe code with the
// engines under test: each run's rows are read once through
// TraceStore::ScanXforms / ScanXfers, and the overlapping rows of every
// visited binding are found by brute force over those rows. Neither the
// Find* finders, the probe memo, the B+-tree query planner nor the
// sealed-segment probes take part. Only binding rendering
// (binding_retrieval.h) and answer normalization are shared, so a
// disagreement points at the probe path, not at how answers are spelled.

#ifndef PROVLIN_TESTS_SCAN_ORACLE_H_
#define PROVLIN_TESTS_SCAN_ORACLE_H_

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/result.h"
#include "lineage/binding_retrieval.h"
#include "lineage/engine.h"
#include "lineage/query.h"
#include "provenance/trace_store.h"
#include "values/value.h"
#include "workflow/dataflow.h"

namespace provlin::testbed_testing {

class ScanOracle {
 public:
  /// Rows are scanned lazily, once per run, and cached: the store must
  /// not change while the oracle is in use.
  explicit ScanOracle(const provenance::TraceStore* store) : store_(store) {}

  /// lin(⟨target[index]⟩, 𝒫) over every run of `request`, normalized
  /// like an engine answer.
  Result<std::vector<lineage::LineageBinding>> Query(
      const lineage::LineageRequest& request) {
    std::vector<lineage::LineageBinding> bindings;
    for (const std::string& run : request.runs) {
      PROVLIN_RETURN_IF_ERROR(QueryRun(run, request, &bindings));
    }
    lineage::NormalizeBindings(&bindings);
    return bindings;
  }

  /// Whether `run` recorded a value at port[q]: some trace row on the
  /// port carries a binding at or below q, or a coarser binding whose
  /// value has an element at the rest of q. Def. 1 gives an index that
  /// addresses nothing an empty lineage; IndexProj projects indices
  /// without looking at the trace, so it is only defined where this
  /// holds.
  Result<bool> Addresses(const std::string& run, const workflow::PortRef& port,
                         const Index& q) {
    PROVLIN_ASSIGN_OR_RETURN(const RunRows* rows, Rows(run));
    std::vector<std::pair<Index, int64_t>> bound;  // (index, value id)
    auto on = [&](SymbolId proc, SymbolId port_sym) {
      return store_->NameOf(proc) == port.processor &&
             store_->NameOf(port_sym) == port.port;
    };
    for (const provenance::XformRecord& row : rows->xforms) {
      if (row.has_out && on(row.processor, row.out_port)) {
        bound.push_back({row.out_index, row.out_value});
      }
      if (row.has_in && on(row.processor, row.in_port)) {
        bound.push_back({row.in_index, row.in_value});
      }
    }
    for (const provenance::XferRecord& row : rows->xfers) {
      if (on(row.src_proc, row.src_port)) {
        bound.push_back({row.src_index, row.value_id});
      }
      if (on(row.dst_proc, row.dst_port)) {
        bound.push_back({row.dst_index, row.value_id});
      }
    }
    for (const auto& [index, value_id] : bound) {
      if (q.IsPrefixOf(index)) return true;
      if (!index.IsPrefixOf(q)) continue;
      PROVLIN_ASSIGN_OR_RETURN(Value whole, store_->GetValue(run, value_id));
      if (whole.At(q.SubIndex(index.length(), q.length() - index.length()))
              .ok()) {
        return true;
      }
    }
    return false;
  }

 private:
  using SymbolId = common::SymbolId;

  struct RunRows {
    std::vector<provenance::XformRecord> xforms;
    std::vector<provenance::XferRecord> xfers;
  };

  /// A visited binding: (processor, port, index, output side?).
  using Node = std::tuple<std::string, std::string, Index, bool>;

  static bool Overlaps(const Index& a, const Index& b) {
    return a.IsPrefixOf(b) || b.IsPrefixOf(a);
  }

  Result<const RunRows*> Rows(const std::string& run) {
    auto it = rows_.find(run);
    if (it == rows_.end()) {
      RunRows rows;
      PROVLIN_ASSIGN_OR_RETURN(rows.xforms, store_->ScanXforms(run));
      PROVLIN_ASSIGN_OR_RETURN(rows.xfers, store_->ScanXfers(run));
      it = rows_.emplace(run, std::move(rows)).first;
    }
    return &it->second;
  }

  /// xform rows whose OUT binding on proc:port overlaps q.
  std::vector<provenance::XformRecord> Producing(const RunRows& rows,
                                                 const std::string& proc,
                                                 const std::string& port,
                                                 const Index& q) const {
    std::vector<provenance::XformRecord> out;
    for (const provenance::XformRecord& row : rows.xforms) {
      if (row.has_out && store_->NameOf(row.processor) == proc &&
          store_->NameOf(row.out_port) == port && Overlaps(row.out_index, q)) {
        out.push_back(row);
      }
    }
    return out;
  }

  Status QueryRun(const std::string& run,
                  const lineage::LineageRequest& request,
                  std::vector<lineage::LineageBinding>* bindings) {
    PROVLIN_ASSIGN_OR_RETURN(const RunRows* rows, Rows(run));
    const workflow::PortRef& target = request.target;
    // The starting side: a binding with producing rows is an output (or
    // a workflow input), anything else an arc destination.
    bool start_output =
        !Producing(*rows, target.processor, target.port, request.index)
             .empty();
    std::vector<Node> pending = {
        {target.processor, target.port, request.index, start_output}};
    std::set<Node> visited;
    while (!pending.empty()) {
      Node node = std::move(pending.back());
      pending.pop_back();
      if (!visited.insert(node).second) continue;
      const auto& [proc, port, q, output] = node;
      if (!output) {
        // Def. 1 case 2: hop every arc into proc:port backwards; indices
        // transfer unchanged.
        for (const provenance::XferRecord& row : rows->xfers) {
          if (store_->NameOf(row.dst_proc) == proc &&
              store_->NameOf(row.dst_port) == port &&
              Overlaps(row.dst_index, q)) {
            pending.push_back({store_->NameOf(row.src_proc),
                               store_->NameOf(row.src_port), q, true});
          }
        }
        continue;
      }
      // Def. 1 case 1: invert the xform events that produced proc:port[q].
      std::vector<provenance::XformRecord> produced =
          Producing(*rows, proc, port, q);
      if (proc == workflow::kWorkflowProcessor) {
        // Workflow-input source rows end the traversal.
        if (lineage::IsInteresting(request.interest, proc)) {
          PROVLIN_RETURN_IF_ERROR(lineage::AppendSourceBindings(
              *store_, run, produced, q, bindings));
        }
        continue;
      }
      bool interesting = lineage::IsInteresting(request.interest, proc);
      for (const provenance::XformRecord& row : produced) {
        if (!row.has_in) continue;
        if (interesting) {
          PROVLIN_RETURN_IF_ERROR(
              lineage::AppendInputBinding(*store_, run, row, bindings));
        }
        pending.push_back(
            {proc, store_->NameOf(row.in_port), row.in_index, false});
      }
    }
    return Status::OK();
  }

  const provenance::TraceStore* store_;
  std::map<std::string, RunRows> rows_;
};

}  // namespace provlin::testbed_testing

#endif  // PROVLIN_TESTS_SCAN_ORACLE_H_
