#ifndef PROVLIN_PROVENANCE_SCHEMA_H_
#define PROVLIN_PROVENANCE_SCHEMA_H_

#include "common/result.h"
#include "storage/database.h"

namespace provlin::provenance {

/// Relational layout of the trace database (DESIGN.md §3). Every index
/// leads with the run, mirroring the paper's remark that "trace IDs are
/// key attributes in our relational implementation".
///
/// The trace tables are dictionary-encoded: processor/port names and run
/// labels live once in the database's SymbolTable, and the hot columns
/// carry dense integer ids. (processor, port) pairs pack into a single
/// kIdPair column per side, and index paths are kIndexPath cells whose
/// lexicographic order preserves the prefix-then-component order the old
/// string Encode() form provided — so B+-tree probes compare machine
/// words end to end.
///
///   runs (run_id TEXT, workflow TEXT, seq INT)
///       the only string-keyed trace table: the public boundary where
///       external run labels enter the system.
///   val  (run INT=SymbolId, value_id INT, repr TEXT)
///   xform(run INT=SymbolId, event_id INT,
///         in IDPAIR=(processor, in_port), in_index PATH, in_value INT,
///         out IDPAIR=(processor, out_port), out_index PATH, out_value INT)
///       one row per (input-binding, output-binding) pair of one
///       elementary invocation — the extensional form of relation (1) of
///       §2.3. Workflow-input "source" rows carry NULL in_* columns.
///   xfer (run INT=SymbolId, src IDPAIR, src_index PATH,
///         dst IDPAIR, dst_index PATH, value_id INT)
///       relation (2) of §2.3, one row per transferred element at the
///       producer's granularity; indices map identically across an arc.
namespace tables {
inline constexpr const char* kRuns = "runs";
inline constexpr const char* kVal = "val";
inline constexpr const char* kXform = "xform";
inline constexpr const char* kXfer = "xfer";
/// Single-row catalog table recording the store's shard count.
inline constexpr const char* kShardMeta = "shard_meta";
}  // namespace tables

namespace indexes {
inline constexpr const char* kValById = "val_by_id";
inline constexpr const char* kXformOut = "xform_out";
inline constexpr const char* kXformIn = "xform_in";
inline constexpr const char* kXformEvent = "xform_event";
inline constexpr const char* kXferDst = "xfer_dst";
inline constexpr const char* kXferSrc = "xfer_src";
inline constexpr const char* kRunsById = "runs_by_id";
}  // namespace indexes

// --- run sharding (DESIGN.md §11) ------------------------------------------
//
// A store keeps one physical copy of the trace tables per shard, named
// by the base name suffixed with "#k" ("xform#0", "xform#2") at every
// shard count, one included. Every table keys rows by run in
// column 0, so a run's rows live wholly inside the shard its id hashes
// to — the property the fan-out/merge probe layer and per-shard WALs
// rely on.

/// Physical table name of `base` in shard `shard`.
std::string ShardTableName(const char* base, size_t shard);

/// Stable hash of a run id, identical across processes and platforms
/// (FNV-1a 64); the owning shard of a run is RunShardHash(id) % N.
uint64_t RunShardHash(std::string_view run_id);

/// Creates the four trace tables and their indexes for each of
/// `shards` shards, plus the shard_meta record.
Status CreateProvenanceSchema(storage::Database* db, size_t shards);

/// Creates shard `shard`'s copy of the four trace tables if missing
/// (used by resharding to grow a layout in place). Index names need no
/// suffixing: IndexSpec names are scoped to their table.
Status EnsureShardTables(storage::Database* db, size_t shard);

/// Shard count recorded in `db`'s shard_meta row, 0 if the provenance
/// schema has not been created at all.
Result<size_t> DetectShardCount(const storage::Database& db);

/// Rewrites the shard_meta record (creating the table if needed) to
/// record `shards`.
Status WriteShardMeta(storage::Database* db, size_t shards);

}  // namespace provlin::provenance

#endif  // PROVLIN_PROVENANCE_SCHEMA_H_
