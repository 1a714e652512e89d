// Substrate micro-benchmarks: B+tree and table/query-layer operations of
// the embedded relational engine that stands in for the paper's MySQL.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "common/sync.h"
#include "storage/bplus_tree.h"
#include "storage/query.h"
#include "storage/segment.h"
#include "storage/table.h"

namespace {

using namespace provlin;
using storage::BPlusTree;
using storage::Datum;
using storage::Key;

void BM_BPlusTreeInsert(benchmark::State& state) {
  const auto n = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    BPlusTree tree;
    Random rng(7);
    for (uint64_t i = 0; i < n; ++i) {
      tree.Insert({Datum(static_cast<int64_t>(rng.Uniform(n * 4)))}, i);
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_BPlusTreeInsert)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BPlusTreeLookup(benchmark::State& state) {
  const auto n = static_cast<uint64_t>(state.range(0));
  BPlusTree tree;
  Random rng(7);
  for (uint64_t i = 0; i < n; ++i) {
    tree.Insert({Datum(static_cast<int64_t>(i))}, i);
  }
  uint64_t probe = 0;
  for (auto _ : state) {
    auto rids = tree.Lookup({Datum(static_cast<int64_t>(probe++ % n))});
    benchmark::DoNotOptimize(rids);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BPlusTreeLookup)->Arg(10000)->Arg(100000);

void BM_BPlusTreePrefixScan(benchmark::State& state) {
  // Composite keys (group, member): prefix scans fetch one group.
  const int64_t groups = 1000;
  const int64_t members = state.range(0);
  BPlusTree tree;
  uint64_t rid = 0;
  for (int64_t g = 0; g < groups; ++g) {
    for (int64_t m = 0; m < members; ++m) {
      tree.Insert({Datum(g), Datum(m)}, rid++);
    }
  }
  int64_t probe = 0;
  for (auto _ : state) {
    auto rids = tree.PrefixLookup({Datum(probe++ % groups)});
    benchmark::DoNotOptimize(rids);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * members);
}
BENCHMARK(BM_BPlusTreePrefixScan)->Arg(10)->Arg(100);

// Identifier-layer payoff at the storage layer: one trace-shaped probe
// — all rows of (run, processor, port) under an index prefix — against
// the seed's string-keyed layout and against the dictionary-encoded
// layout (interned run, packed IdPair, raw IndexPath column). Same row
// count, same probe mix; only the key representation differs.

void BM_TraceProbeStringKeyed(benchmark::State& state) {
  const int64_t n = state.range(0);
  storage::Table table(
      "t", storage::Schema({{"run", storage::DatumKind::kString},
                            {"pair", storage::DatumKind::kString},
                            {"idx", storage::DatumKind::kString}}));
  {
    Status st = table.CreateIndex(
        {"by_pair", {"run", "pair", "idx"}, storage::IndexType::kBTree});
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  for (int64_t i = 0; i < n; ++i) {
    auto r = table.Insert(
        {Datum("run-2026-08-06-000"),
         Datum("processor_" + std::to_string(i % 100) + ":out"),
         Datum(std::to_string(i % 16) + "." + std::to_string(i % 8))});
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
  }
  int64_t probe = 0;
  for (auto _ : state) {
    storage::SelectQuery q;
    q.equals.push_back({"run", Datum("run-2026-08-06-000")});
    q.equals.push_back(
        {"pair", Datum("processor_" + std::to_string(probe % 100) + ":out")});
    q.string_prefix =
        storage::SelectQuery::StringPrefix{"idx", std::to_string(probe % 16)};
    ++probe;
    auto r = storage::ExecuteSelect(table, q);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceProbeStringKeyed)->Arg(10000)->Arg(100000);

void BM_TraceProbeIdKeyed(benchmark::State& state) {
  const int64_t n = state.range(0);
  storage::Table table(
      "t", storage::Schema({{"run", storage::DatumKind::kInt},
                            {"pair", storage::DatumKind::kIdPair},
                            {"idx", storage::DatumKind::kIndexPath}}));
  {
    Status st = table.CreateIndex(
        {"by_pair", {"run", "pair", "idx"}, storage::IndexType::kBTree});
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  for (int64_t i = 0; i < n; ++i) {
    auto r = table.Insert(
        {Datum(static_cast<int64_t>(0)),
         Datum(storage::IdPair{static_cast<uint32_t>(i % 100), 7}),
         Datum(storage::IndexPath{static_cast<int32_t>(i % 16),
                                  static_cast<int32_t>(i % 8)})});
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
  }
  int64_t probe = 0;
  for (auto _ : state) {
    storage::SelectQuery q;
    q.equals.push_back({"run", Datum(static_cast<int64_t>(0))});
    q.equals.push_back(
        {"pair", Datum(storage::IdPair{static_cast<uint32_t>(probe % 100), 7})});
    q.path_prefix = storage::SelectQuery::PathPrefix{
        "idx", storage::IndexPath{static_cast<int32_t>(probe % 16)}};
    ++probe;
    auto r = storage::ExecuteSelect(table, q);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceProbeIdKeyed)->Arg(10000)->Arg(100000);

void BM_TableIndexedSelect(benchmark::State& state) {
  const int64_t n = state.range(0);
  storage::Table table(
      "t", storage::Schema({{"run", storage::DatumKind::kString},
                            {"proc", storage::DatumKind::kString},
                            {"idx", storage::DatumKind::kString}}));
  {
    Status st = table.CreateIndex(
        {"by_proc", {"run", "proc", "idx"}, storage::IndexType::kBTree});
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  for (int64_t i = 0; i < n; ++i) {
    auto r = table.Insert({Datum("r0"), Datum("P" + std::to_string(i % 100)),
                           Datum(std::to_string(i))});
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
  }
  int64_t probe = 0;
  for (auto _ : state) {
    storage::SelectQuery q;
    q.equals.push_back({"run", Datum("r0")});
    q.equals.push_back({"proc", Datum("P" + std::to_string(probe++ % 100))});
    auto r = storage::ExecuteSelect(table, q);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TableIndexedSelect)->Arg(10000)->Arg(100000);

// Compressed-segment axis (DESIGN.md §13): the same trace-shaped rows
// sealed into an immutable Segment — encode throughput, and the
// in-situ probe against the B+tree probes above. The probe mirrors
// BM_TraceProbeIdKeyed's shape: all rows of one (processor, port) pair
// under an index prefix, out of n rows of a single run.

std::vector<storage::Row> SegmentBenchRows(int64_t n) {
  std::vector<storage::Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    storage::Row row(8);
    row[0] = Datum(static_cast<int64_t>(0));  // run
    row[1] = Datum(i);                        // event
    row[2] = Datum(storage::IdPair{static_cast<uint32_t>(i % 100), 3});
    row[3] = Datum(storage::IndexPath{static_cast<int32_t>(i % 16)});
    row[4] = Datum(i);
    row[5] = Datum(storage::IdPair{static_cast<uint32_t>(i % 100), 7});
    row[6] = Datum(storage::IndexPath{static_cast<int32_t>(i % 16),
                                      static_cast<int32_t>(i % 8)});
    row[7] = Datum(i);
    rows.push_back(std::move(row));
  }
  return rows;
}

void BM_SegmentEncode(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<storage::Row> rows = SegmentBenchRows(n);
  size_t encoded_bytes = 0;
  for (auto _ : state) {
    auto seg = storage::Segment::Build(storage::Segment::Kind::kXform, 0, rows);
    if (!seg.ok()) state.SkipWithError(seg.status().ToString().c_str());
    encoded_bytes = seg->bytes().size();
    benchmark::DoNotOptimize(encoded_bytes);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
  state.counters["bytes_per_row"] =
      static_cast<double>(encoded_bytes) / static_cast<double>(n);
}
BENCHMARK(BM_SegmentEncode)->Arg(10000)->Arg(100000);

void BM_TraceProbeSealed(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto seg =
      storage::Segment::Build(storage::Segment::Kind::kXform, 0,
                              SegmentBenchRows(n));
  if (!seg.ok()) {
    state.SkipWithError(seg.status().ToString().c_str());
    return;
  }
  int64_t probe = 0;
  for (auto _ : state) {
    storage::Segment::ViewProbe vp;
    vp.pair = storage::IdPair{static_cast<uint32_t>(probe % 100), 7}.Packed();
    vp.has_lo = vp.has_hi = true;
    vp.lo = storage::IndexPath{static_cast<int32_t>(probe % 16)};
    vp.hi = storage::IndexPath{static_cast<int32_t>(probe % 16), INT32_MAX};
    ++probe;
    storage::Segment::Scratch scratch;
    storage::Segment::ProbeCounts counts;
    size_t hits = 0;
    Status st = seg->ProbeView(
        storage::Segment::kViewOut, vp, &scratch, &counts,
        [&](uint64_t, const storage::Row&) { ++hits; });
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceProbeSealed)->Arg(10000)->Arg(100000);

// Sealing one run out of the hot tier (the storage half of
// TraceStore::SealRun): remove the run's rows from an xform-shaped table
// by key range and encode them. The run has range(0) rows; the shard
// around it holds range(1)x as many rows of other runs, half inserted
// before the run and half after. Seal time must track the run, not the
// shard. Each iteration re-inserts the rows untimed, so tombstoned
// slots pile up behind the run as they do in a long-lived store.
void BM_SealRun(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t others = n * state.range(1);
  storage::Table table(
      "xform", storage::Schema({{"run", storage::DatumKind::kInt},
                                {"event_id", storage::DatumKind::kInt},
                                {"in", storage::DatumKind::kIdPair},
                                {"in_index", storage::DatumKind::kIndexPath},
                                {"in_value", storage::DatumKind::kInt},
                                {"out", storage::DatumKind::kIdPair},
                                {"out_index", storage::DatumKind::kIndexPath},
                                {"out_value", storage::DatumKind::kInt}}));
  for (const storage::IndexSpec& spec :
       {storage::IndexSpec{"out", {"run", "out", "out_index"}},
        storage::IndexSpec{"in", {"run", "in", "in_index"}},
        storage::IndexSpec{"event", {"run", "event_id"}}}) {
    if (!table.CreateIndex(spec).ok()) state.SkipWithError("CreateIndex");
  }
  // Other runs take ids 1.., 4096 rows each; the sealed run is id 0.
  const storage::Row other = SegmentBenchRows(1).front();
  auto insert_others = [&](int64_t from, int64_t to) {
    for (int64_t i = from; i < to; ++i) {
      storage::Row row = other;
      row[0] = Datum(1 + i / 4096);
      row[1] = Datum(i);
      (void)table.Insert(row);
    }
  };
  insert_others(0, others / 2);
  std::vector<storage::Row> run_rows = SegmentBenchRows(n);
  for (const storage::Row& row : run_rows) (void)table.Insert(row);
  insert_others(others / 2, others);
  for (auto _ : state) {
    auto rows = table.RemoveByLeadingKey(Datum(int64_t{0}));
    if (!rows.ok() || rows->size() != run_rows.size()) {
      state.SkipWithError("RemoveByLeadingKey");
      break;
    }
    auto seg = storage::Segment::Build(storage::Segment::Kind::kXform, 0, *rows);
    if (!seg.ok()) {
      state.SkipWithError(seg.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(seg->bytes().size());
    state.PauseTiming();
    for (const storage::Row& row : *rows) (void)table.Insert(row);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SealRun)->Args({4096, 1})->Args({4096, 16});

// Guards the zero-overhead contract of the ranked sync wrappers: in a
// release build (PROVLIN_LOCK_DEBUG off) an uncontended Lock/Unlock
// round trip must cost what the raw std primitive costs — sync.h
// static-asserts the layout half; these expose any per-acquisition
// regression. In a lock-debug build they instead measure the detector
// itself (useful, but not comparable against release baselines).
void BM_MutexLockUnlock(benchmark::State& state) {
  common::Mutex mu{common::LockRank::kTestOuter};
  for (auto _ : state) {
    common::MutexLock lock(mu);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MutexLockUnlock);

void BM_SharedMutexReadLock(benchmark::State& state) {
  common::SharedMutex mu{common::LockRank::kTestOuter};
  for (auto _ : state) {
    common::ReaderLock lock(mu);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SharedMutexReadLock);

}  // namespace

BENCHMARK_MAIN();
