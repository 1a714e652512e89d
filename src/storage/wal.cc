#include "storage/wal.h"

#include "common/metrics.h"
#include "common/tracing.h"

#include <array>
#include <cstring>
#include <fstream>

namespace provlin::storage {

namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const std::array<uint32_t, 256> kTable = BuildCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (char c : data) {
    crc = kTable[(crc ^ static_cast<unsigned char>(c)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Result<WriteAheadLog> WriteAheadLog::Open(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::IoError("cannot open WAL '" + path + "' for append");
  }
  return WriteAheadLog(path, file);
}

WriteAheadLog::WriteAheadLog(WriteAheadLog&& other) noexcept
    : path_(std::move(other.path_)),
      file_(other.file_),
      records_appended_(other.records_appended_) {
  other.file_ = nullptr;
}

WriteAheadLog& WriteAheadLog::operator=(WriteAheadLog&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    path_ = std::move(other.path_);
    file_ = other.file_;
    records_appended_ = other.records_appended_;
    other.file_ = nullptr;
  }
  return *this;
}

WriteAheadLog::~WriteAheadLog() {
  if (file_ != nullptr) std::fclose(file_);
}

Status WriteAheadLog::Append(std::string_view payload) {
  PROVLIN_TRACE_SPAN("wal/append");
  if (file_ == nullptr) {
    return Status::FailedPrecondition("WAL is closed");
  }
  uint32_t length = static_cast<uint32_t>(payload.size());
  uint32_t crc = Crc32(payload);
  char header[8];
  std::memcpy(header, &length, 4);
  std::memcpy(header + 4, &crc, 4);
  if (std::fwrite(header, 1, 8, file_) != 8 ||
      std::fwrite(payload.data(), 1, payload.size(), file_) !=
          payload.size()) {
    return Status::IoError("short write to WAL '" + path_ + "'");
  }
  if (std::fflush(file_) != 0) {
    return Status::IoError("flush failed for WAL '" + path_ + "'");
  }
  ++records_appended_;
  static auto* appends = common::metrics::GetCounter("wal/appends");
  static auto* bytes = common::metrics::GetCounter("wal/bytes");
  static auto* flushes = common::metrics::GetCounter("wal/flushes");
  appends->Increment();
  bytes->Add(payload.size() + 8);
  flushes->Increment();
  return Status::OK();
}

Result<std::vector<std::string>> WriteAheadLog::Replay(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open WAL '" + path + "' for read");
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());

  std::vector<std::string> records;
  size_t pos = 0;
  while (pos + 8 <= data.size()) {
    uint32_t length = 0;
    uint32_t crc = 0;
    std::memcpy(&length, data.data() + pos, 4);
    std::memcpy(&crc, data.data() + pos + 4, 4);
    if (pos + 8 + length > data.size()) break;  // torn tail record
    std::string_view payload(data.data() + pos + 8, length);
    if (Crc32(payload) != crc) break;  // corrupt tail record
    records.emplace_back(payload);
    pos += 8 + length;
  }
  return records;
}

std::string ShardWalPath(const std::string& base, size_t shard) {
  return base + ".shard-" + std::to_string(shard);
}

std::string WalManifestPath(const std::string& base) {
  return base + ".manifest";
}

Status WriteWalManifest(const std::string& base, size_t shards) {
  const std::string path = WalManifestPath(base);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open WAL manifest '" + path +
                           "' for write");
  }
  out << "provlin-wal-manifest v1\nshards " << shards << "\n";
  out.flush();
  if (!out) return Status::IoError("short write to WAL manifest '" + path +
                                   "'");
  return Status::OK();
}

Result<size_t> ReadWalManifest(const std::string& base) {
  const std::string path = WalManifestPath(base);
  std::ifstream in(path);
  if (!in) return Status::NotFound("no WAL manifest at '" + path + "'");
  std::string header;
  std::getline(in, header);
  if (header != "provlin-wal-manifest v1") {
    return Status::Corruption("bad WAL manifest header in '" + path + "'");
  }
  std::string key;
  size_t shards = 0;
  if (!(in >> key >> shards) || key != "shards" || shards == 0) {
    return Status::Corruption("bad shard count in WAL manifest '" + path +
                              "'");
  }
  return shards;
}

}  // namespace provlin::storage
