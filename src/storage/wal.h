#ifndef PROVLIN_STORAGE_WAL_H_
#define PROVLIN_STORAGE_WAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/result.h"

namespace provlin::storage {

/// CRC-32 (IEEE, reflected) over a byte string.
uint32_t Crc32(std::string_view data);

/// Append-only write-ahead log. Record framing:
///
///   [u32 length | u32 crc32(payload) | payload bytes]
///
/// Append() writes and flushes one record. Replay() returns every intact
/// record in order and stops silently at the first torn or corrupt entry
/// (the expected state after a crash mid-append), so recovery replays
/// exactly the committed prefix.
///
/// The provenance layer logs every trace-row insert through this, making
/// provenance capture crash-safe: a run interrupted mid-execution loses
/// at most the record being written.
class WriteAheadLog {
 public:
  /// Opens (creating if absent) the log at `path` for appending.
  static Result<WriteAheadLog> Open(const std::string& path);

  WriteAheadLog(WriteAheadLog&& other) noexcept;
  WriteAheadLog& operator=(WriteAheadLog&& other) noexcept;
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;
  ~WriteAheadLog();

  /// Appends one record and flushes it to the OS.
  Status Append(std::string_view payload);

  /// Number of records appended through this handle.
  uint64_t records_appended() const { return records_appended_; }
  const std::string& path() const { return path_; }

  /// Reads all intact records from a log file.
  static Result<std::vector<std::string>> Replay(const std::string& path);

 private:
  WriteAheadLog(std::string path, std::FILE* file)
      : path_(std::move(path)), file_(file) {}

  std::string path_;
  std::FILE* file_ = nullptr;
  uint64_t records_appended_ = 0;
};

// --- sharded WAL layout -----------------------------------------------------
//
// A run-sharded store (DESIGN.md §11) keeps one WAL per shard so writer
// threads append without contending on a shared file: shard k logs to
// "<base>.shard-<k>", at every shard count. A small text manifest at
// "<base>.manifest" records the shard count, so recovery knows how many
// files to replay. `base` itself is never a file.

/// WAL file path of shard `shard` under `base`.
std::string ShardWalPath(const std::string& base, size_t shard);

/// Manifest path for the sharded WAL rooted at `base`.
std::string WalManifestPath(const std::string& base);

/// Writes/overwrites the manifest recording `shards`.
Status WriteWalManifest(const std::string& base, size_t shards);

/// Shard count from the manifest; NotFound when no manifest exists.
Result<size_t> ReadWalManifest(const std::string& base);

}  // namespace provlin::storage

#endif  // PROVLIN_STORAGE_WAL_H_
