#include "provenance/schema.h"

namespace provlin::provenance {

using storage::Column;
using storage::Datum;
using storage::DatumKind;
using storage::IndexSpec;
using storage::IndexType;
using storage::Schema;
using storage::Table;

Status EnsureShardTables(storage::Database* db, size_t shard) {
  if (db->GetTable(ShardTableName(tables::kXform, shard)).ok()) {
    return Status::OK();
  }
  {
    PROVLIN_ASSIGN_OR_RETURN(
        Table * runs,
        db->CreateTable(ShardTableName(tables::kRuns, shard),
                        Schema({{"run_id", DatumKind::kString},
                                {"workflow", DatumKind::kString},
                                {"seq", DatumKind::kInt}})));
    PROVLIN_RETURN_IF_ERROR(runs->CreateIndex(
        IndexSpec{indexes::kRunsById, {"run_id"}, IndexType::kHash}));
  }
  {
    PROVLIN_ASSIGN_OR_RETURN(
        Table * val,
        db->CreateTable(ShardTableName(tables::kVal, shard),
                        Schema({{"run", DatumKind::kInt},
                                {"value_id", DatumKind::kInt},
                                {"repr", DatumKind::kString}})));
    PROVLIN_RETURN_IF_ERROR(val->CreateIndex(
        IndexSpec{indexes::kValById, {"run", "value_id"}, IndexType::kHash}));
  }
  {
    PROVLIN_ASSIGN_OR_RETURN(
        Table * xform,
        db->CreateTable(ShardTableName(tables::kXform, shard),
                        Schema({{"run", DatumKind::kInt},
                                {"event_id", DatumKind::kInt},
                                {"in", DatumKind::kIdPair},
                                {"in_index", DatumKind::kIndexPath},
                                {"in_value", DatumKind::kInt},
                                {"out", DatumKind::kIdPair},
                                {"out_index", DatumKind::kIndexPath},
                                {"out_value", DatumKind::kInt}})));
    PROVLIN_RETURN_IF_ERROR(xform->CreateIndex(IndexSpec{
        indexes::kXformOut, {"run", "out", "out_index"}, IndexType::kBTree}));
    PROVLIN_RETURN_IF_ERROR(xform->CreateIndex(IndexSpec{
        indexes::kXformIn, {"run", "in", "in_index"}, IndexType::kBTree}));
    PROVLIN_RETURN_IF_ERROR(xform->CreateIndex(IndexSpec{
        indexes::kXformEvent, {"run", "event_id"}, IndexType::kBTree}));
  }
  {
    PROVLIN_ASSIGN_OR_RETURN(
        Table * xfer,
        db->CreateTable(ShardTableName(tables::kXfer, shard),
                        Schema({{"run", DatumKind::kInt},
                                {"src", DatumKind::kIdPair},
                                {"src_index", DatumKind::kIndexPath},
                                {"dst", DatumKind::kIdPair},
                                {"dst_index", DatumKind::kIndexPath},
                                {"value_id", DatumKind::kInt}})));
    PROVLIN_RETURN_IF_ERROR(xfer->CreateIndex(IndexSpec{
        indexes::kXferDst, {"run", "dst", "dst_index"}, IndexType::kBTree}));
    // Forward (impact) queries hop arcs in flow direction.
    PROVLIN_RETURN_IF_ERROR(xfer->CreateIndex(IndexSpec{
        indexes::kXferSrc, {"run", "src", "src_index"}, IndexType::kBTree}));
  }
  return Status::OK();
}

std::string ShardTableName(const char* base, size_t shard) {
  return std::string(base) + "#" + std::to_string(shard);
}

uint64_t RunShardHash(std::string_view run_id) {
  // FNV-1a 64: stable across processes, unlike std::hash — the same run
  // must land in the same shard after an image reload in a new process.
  uint64_t h = 1469598103934665603ull;
  for (char c : run_id) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

Status CreateProvenanceSchema(storage::Database* db, size_t shards) {
  if (shards == 0) shards = 1;
  for (size_t k = 0; k < shards; ++k) {
    PROVLIN_RETURN_IF_ERROR(EnsureShardTables(db, k));
  }
  return WriteShardMeta(db, shards);
}

Result<size_t> DetectShardCount(const storage::Database& db) {
  auto meta = db.GetTable(tables::kShardMeta);
  if (!meta.ok()) return size_t{0};
  for (uint64_t rid : meta.value()->FullScan()) {
    PROVLIN_ASSIGN_OR_RETURN(storage::Row row, meta.value()->Get(rid));
    int64_t n = row[0].AsInt();
    if (n < 1) return Status::Corruption("shard_meta records " +
                                         std::to_string(n) + " shards");
    return static_cast<size_t>(n);
  }
  return Status::Corruption("shard_meta table is empty");
}

Status WriteShardMeta(storage::Database* db, size_t shards) {
  Table* meta = nullptr;
  auto existing = db->GetTable(tables::kShardMeta);
  if (existing.ok()) {
    meta = existing.value();
    std::vector<uint64_t> rids = meta->FullScan();
    for (uint64_t rid : rids) PROVLIN_RETURN_IF_ERROR(meta->Delete(rid));
  } else {
    PROVLIN_ASSIGN_OR_RETURN(
        meta, db->CreateTable(tables::kShardMeta,
                              Schema({{"shards", DatumKind::kInt}})));
  }
  return meta->Insert({Datum(static_cast<int64_t>(shards))}).status();
}

}  // namespace provlin::provenance
