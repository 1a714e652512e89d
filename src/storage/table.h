#ifndef PROVLIN_STORAGE_TABLE_H_
#define PROVLIN_STORAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/bplus_tree.h"
#include "storage/hash_index.h"
#include "storage/schema.h"

namespace provlin::storage {

enum class IndexType { kBTree, kHash };

/// Declarative secondary-index description.
struct IndexSpec {
  std::string name;
  std::vector<std::string> columns;
  IndexType type = IndexType::kBTree;
};

/// Access-path counters (a value snapshot). The benches report these
/// alongside wall-clock times: unlike milliseconds they are hardware
/// independent, so the NI-vs-IndexProj probe-count gap directly mirrors
/// the paper's argument.
struct TableStats {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t index_probes = 0;
  uint64_t full_scans = 0;
  uint64_t rows_examined = 0;
  /// Logical probes that were submitted through a batched lookup
  /// (IndexMultiSeek). Each such probe also counts in index_probes —
  /// batching changes the physical execution, never the logical count.
  uint64_t batched_probes = 0;
  /// Physical root-to-leaf B+-tree descents. A single-probe lookup costs
  /// exactly one; a batch amortizes — descents <= probes is the whole
  /// point of the batched layer. Hash probes never descend.
  uint64_t descents = 0;
};

/// Per-thread access-path counters, mirroring the read-side TableStats
/// fields. The global atomics aggregate across all threads, so a delta
/// of AggregateStats() taken around a query is meaningless once queries
/// run concurrently — it charges every other thread's probes to this
/// query. Read paths therefore also bump these plain thread_local
/// counters, and per-query cost attribution (LineageTiming.trace_probes,
/// the service's per-thread metrics) uses deltas of ThisThreadStats().
struct ThreadStats {
  uint64_t index_probes = 0;
  uint64_t full_scans = 0;
  uint64_t rows_examined = 0;
  uint64_t batched_probes = 0;
  uint64_t descents = 0;

  uint64_t probes() const { return index_probes + full_scans; }
};

/// The calling thread's counters (monotonic; never reset by the layer).
ThreadStats& ThisThreadStats();

/// Heap table with optional secondary indexes. Rows are addressed by a
/// stable row id (their insertion ordinal); deletes tombstone in place.
///
/// Concurrency contract (DESIGN.md §10): the table itself is
/// single-writer — rows_, deleted_, and indexes_ carry no capability
/// because mutation is confined to capture/setup phases, while query
/// phases share the table read-only across threads (the regime the
/// LineageService batches run in; trace stores must be quiescent during
/// a batch). The only state touched from concurrent const readers is
/// StatsCounters, which is relaxed-atomic by design rather than
/// mutex-guarded: counter bumps sit on the per-probe hot path, and
/// cross-counter consistency of a snapshot is explicitly not promised
/// (racy-exact, exact when quiescent).
class Table {
 public:
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Registers and backfills a secondary index.
  Status CreateIndex(const IndexSpec& spec);

  bool HasIndex(std::string_view index_name) const;
  std::vector<IndexSpec> indexes() const;

  /// Appends a row; returns its row id. The row must match the schema.
  Result<uint64_t> Insert(const Row& row);

  /// Tombstones a row and removes it from all indexes.
  Status Delete(uint64_t rid);

  /// Removes every live row whose column 0 equals `lead` and returns
  /// them in rid order, moved out of the heap rather than copied. One
  /// ErasePrefix per index replaces a per-row Delete, so this is valid
  /// only when every index is a BTree led by column 0 (InvalidArgument
  /// otherwise, including a table with no index). Counts n deletes
  /// exactly as n Delete calls would, and moves no access-path counter:
  /// it is a maintenance path (run seal and deletion), not a query.
  Result<std::vector<Row>> RemoveByLeadingKey(const Datum& lead);

  /// Fetches a live row.
  Result<Row> Get(uint64_t rid) const;

  /// Zero-copy read of a live row: a pointer into the table's own row
  /// storage, or nullptr for dead/out-of-range rids. The pointer is
  /// invalidated by the next write to this table (Insert may reallocate
  /// the heap, Delete tombstones) — callers on the read-only query path
  /// must finish with it before any mutation.
  const Row* PeekRow(uint64_t rid) const;

  /// Row ids whose indexed columns equal `key` (one datum per index
  /// column, in index order).
  Result<std::vector<uint64_t>> IndexLookup(std::string_view index_name,
                                            const Key& key) const;

  /// Row ids whose leading indexed columns equal `prefix` (BTree only).
  Result<std::vector<uint64_t>> IndexPrefixLookup(std::string_view index_name,
                                                  const Key& prefix) const;

  /// Row ids with lo <= indexed-key <= hi (BTree only; composite bounds).
  Result<std::vector<uint64_t>> IndexRangeLookup(std::string_view index_name,
                                                 const Key& lo,
                                                 const Key& hi) const;

  /// Answers a batch of probes against one BTree index in a single
  /// amortized pass (see BPlusTree::MultiSeek). Counts every probe as a
  /// logical index probe (and as a batched one), but only the physical
  /// descents the batch actually paid.
  Result<BPlusTree::MultiSeekResult> IndexMultiSeek(
      std::string_view index_name,
      const std::vector<BPlusTree::Probe>& probes) const;

  /// All live row ids, in insertion order. Counts as a full scan.
  std::vector<uint64_t> FullScan() const;

  /// Visits every live row in rid order without moving any access-path
  /// counter. Maintenance-path enumeration (segment seal/unseal, image
  /// writers) — not a query surface, so cost attribution around queries
  /// stays undisturbed.
  void ForEachLiveRow(
      const std::function<void(uint64_t rid, const Row& row)>& fn) const;

  /// Approximate resident bytes: row payloads (live slots only — Delete
  /// releases a tombstoned row's storage), the slot/tombstone vectors,
  /// and every secondary index.
  size_t ApproxMemoryUsage() const;

  size_t num_rows() const { return live_rows_; }
  size_t num_slots() const { return rows_.size(); }

  /// Snapshot of the access-path counters (relaxed reads).
  TableStats stats() const { return stats_.Snapshot(); }
  void ResetStats() { stats_.Reset(); }

  /// Verifies that every index agrees with the heap (used in tests).
  Status CheckIndexConsistency() const;

 private:
  struct SecondaryIndex {
    IndexSpec spec;
    std::vector<size_t> column_idx;
    std::unique_ptr<BPlusTree> btree;  // when type == kBTree
    std::unique_ptr<HashIndex> hash;   // when type == kHash
  };

  Key ExtractKey(const Row& row, const SecondaryIndex& idx) const;
  Result<const SecondaryIndex*> FindIndex(std::string_view index_name) const;

  /// Counters behind the TableStats snapshot. Const query paths (Get,
  /// IndexLookup, FullScan) bump them, so they are mutable — and relaxed
  /// atomics, so concurrent const readers of a shared table stay
  /// data-race free once shared-read serving lands.
  struct StatsCounters {
    std::atomic<uint64_t> inserts{0};
    std::atomic<uint64_t> deletes{0};
    std::atomic<uint64_t> index_probes{0};
    std::atomic<uint64_t> full_scans{0};
    std::atomic<uint64_t> rows_examined{0};
    std::atomic<uint64_t> batched_probes{0};
    std::atomic<uint64_t> descents{0};

    TableStats Snapshot() const;
    void Reset();
    void Bump(std::atomic<uint64_t>& counter, uint64_t n = 1) {
      counter.fetch_add(n, std::memory_order_relaxed);
    }
  };

  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  std::vector<bool> deleted_;
  size_t live_rows_ = 0;
  std::vector<SecondaryIndex> indexes_;
  mutable StatsCounters stats_;
};

}  // namespace provlin::storage

#endif  // PROVLIN_STORAGE_TABLE_H_
