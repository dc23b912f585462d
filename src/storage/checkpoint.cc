#include "storage/checkpoint.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#ifdef _WIN32
#include <io.h>
#include <process.h>
#else
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#endif

#include "common/crc32.h"
#include "common/fault_injector.h"
#include "storage/storage_governor.h"

namespace gbmqo {

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kCkptMagic = 0x504B4347u;  // "GCKP"
constexpr uint32_t kCkptFormat = 1;
constexpr uint32_t kCkptHeaderBytes = 28;  // magic + format + version + len + crc
constexpr char kCkptSuffix[] = ".gckp";

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}

void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

struct Cursor {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  bool Has(size_t n) const { return size - pos >= n; }
  template <typename T>
  bool Get(T* out) {
    if (!Has(sizeof(T))) return false;
    std::memcpy(out, data + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }
  /// Reads `count` packed values into *out; memcpy because the image gives
  /// no alignment guarantee.
  template <typename T>
  bool GetArray(uint64_t count, std::vector<T>* out) {
    if (count > (size - pos) / sizeof(T)) return false;
    out->resize(count);
    if (count > 0) std::memcpy(out->data(), data + pos, count * sizeof(T));
    pos += count * sizeof(T);
    return true;
  }
  bool GetString(std::string* out) {
    uint32_t len = 0;
    if (!Get(&len) || !Has(len)) return false;
    out->assign(reinterpret_cast<const char*>(data + pos), len);
    pos += len;
    return true;
  }
};

Status Truncated(const char* what) {
  return Status::Internal(std::string("checkpoint: truncated ") + what);
}

/// Serializes one table: schema, null bitmaps, typed payloads (strings as
/// dictionary + codes), index key masks. Readable back bit-identically by
/// DecodeTable.
void EncodeTable(const Table& table, std::string* out) {
  PutString(out, table.name());
  const Schema& schema = table.schema();
  PutU32(out, static_cast<uint32_t>(schema.num_columns()));
  for (const ColumnDef& def : schema.columns()) {
    PutString(out, def.name);
    PutU8(out, static_cast<uint8_t>(def.type));
    PutU8(out, def.nullable ? 1 : 0);
  }
  const uint64_t rows = table.num_rows();
  PutU64(out, rows);
  const size_t nwords = (rows + 63) / 64;
  for (int c = 0; c < schema.num_columns(); ++c) {
    const Column& col = table.column(c);
    const uint64_t* nulls = col.null_words();
    PutU8(out, nulls != nullptr ? 1 : 0);
    if (nulls != nullptr) {
      out->append(reinterpret_cast<const char*>(nulls), nwords * 8);
    }
    switch (col.type()) {
      case DataType::kInt64:
        out->append(reinterpret_cast<const char*>(col.int64_data()), rows * 8);
        break;
      case DataType::kDouble:
        out->append(reinterpret_cast<const char*>(col.double_data()), rows * 8);
        break;
      case DataType::kString: {
        PutU32(out, static_cast<uint32_t>(col.dict_size()));
        for (size_t d = 0; d < col.dict_size(); ++d) {
          PutString(out, col.DictEntry(d));
        }
        out->append(reinterpret_cast<const char*>(col.string_codes()),
                    rows * 4);
        break;
      }
    }
  }
  PutU32(out, static_cast<uint32_t>(table.indexes().size()));
  for (const auto& [key, index] : table.indexes()) {
    PutU64(out, key.mask());
  }
}

/// Rebuilds a table from its image, one bulk load per column. Every table
/// in the engine is built by appends (or by Column::Concat, which equals
/// them), and Column::FromX returns exactly the column that appending the
/// decoded rows one by one would build — dictionary first-appearance order,
/// NULL placeholders, code-range metadata — or an error for an image no
/// append sequence produces. Indexes are recomputed from their key masks;
/// CreateIndex's order is total, so the permutations match too.
Result<TablePtr> DecodeTable(Cursor* cur) {
  std::string name;
  if (!cur->GetString(&name)) return Truncated("table name");
  uint32_t ncols = 0;
  if (!cur->Get(&ncols)) return Truncated("column count");
  std::vector<ColumnDef> defs;
  for (uint32_t c = 0; c < ncols; ++c) {
    ColumnDef def;
    if (!cur->GetString(&def.name)) return Truncated("column name");
    uint8_t type = 0, nullable = 0;
    if (!cur->Get(&type) || !cur->Get(&nullable)) return Truncated("column def");
    if (type > static_cast<uint8_t>(DataType::kString)) {
      return Status::Internal("checkpoint: unknown column type " +
                              std::to_string(type));
    }
    def.type = static_cast<DataType>(type);
    def.nullable = nullable != 0;
    defs.push_back(std::move(def));
  }
  uint64_t rows = 0;
  if (!cur->Get(&rows)) return Truncated("row count");
  // Every column stores at least four bytes a row.
  if (ncols > 0 && rows > cur->size - cur->pos) return Truncated("rows");
  const uint64_t nwords = (rows + 63) / 64;

  std::vector<ColumnPtr> columns;
  for (uint32_t c = 0; c < ncols; ++c) {
    uint8_t has_nulls = 0;
    if (!cur->Get(&has_nulls)) return Truncated("null flag");
    std::vector<uint64_t> nulls;
    if (has_nulls != 0 && !cur->GetArray(nwords, &nulls)) {
      return Truncated("null bitmap");
    }
    Result<ColumnPtr> col = Status::Internal("unreachable column type");
    switch (defs[c].type) {
      case DataType::kInt64: {
        std::vector<int64_t> vals;
        if (!cur->GetArray(rows, &vals)) return Truncated("int64 payload");
        col = Column::FromInt64s(vals, std::move(nulls));
        break;
      }
      case DataType::kDouble: {
        std::vector<double> vals;
        if (!cur->GetArray(rows, &vals)) return Truncated("double payload");
        col = Column::FromDoubles(vals, std::move(nulls));
        break;
      }
      case DataType::kString: {
        uint32_t dict_count = 0;
        if (!cur->Get(&dict_count)) return Truncated("dictionary count");
        // Each entry carries at least its four-byte length.
        if (dict_count > (cur->size - cur->pos) / 4) {
          return Truncated("dictionary");
        }
        std::vector<std::string> dict(dict_count);
        for (std::string& entry : dict) {
          if (!cur->GetString(&entry)) return Truncated("dictionary entry");
        }
        std::vector<uint32_t> codes;
        if (!cur->GetArray(rows, &codes)) return Truncated("string codes");
        col = Column::FromStrings(codes, dict, std::move(nulls));
        break;
      }
    }
    if (!col.ok()) {
      return Status::Internal("checkpoint: table '" + name + "' column '" +
                              defs[c].name + "': " + col.status().message());
    }
    columns.push_back(*std::move(col));
  }
  std::vector<ColumnSet> index_keys;
  uint32_t nindexes = 0;
  if (!cur->Get(&nindexes)) return Truncated("index count");
  for (uint32_t i = 0; i < nindexes; ++i) {
    uint64_t mask = 0;
    if (!cur->Get(&mask)) return Truncated("index key");
    index_keys.push_back(ColumnSet(mask));
  }
  auto table =
      std::make_shared<Table>(std::move(name), Schema(std::move(defs)),
                              std::move(columns), ncols > 0 ? rows : 0);
  for (ColumnSet key : index_keys) {
    GBMQO_RETURN_NOT_OK(table->CreateIndex(key));
  }
  return table;
}

}  // namespace

bool ProcessAlive(uint64_t pid) {
#ifdef _WIN32
  // Without a handle we cannot probe another process portably; err on the
  // side of "alive" so the reaper never deletes a live process's files.
  (void)pid;
  return true;
#else
  if (pid == 0) return false;
  if (::kill(static_cast<pid_t>(pid), 0) == 0) return true;
  return errno != ESRCH;
#endif
}

uint64_t CurrentProcessId() {
#ifdef _WIN32
  return static_cast<uint64_t>(_getpid());
#else
  return static_cast<uint64_t>(::getpid());
#endif
}

std::string CheckpointFileName(uint64_t version) {
  return "checkpoint-" + std::to_string(version) + kCkptSuffix;
}

Status WriteCheckpoint(const std::string& directory,
                       const CheckpointImage& image, StorageGovernor* governor,
                       uint64_t* bytes_written) {
  if (bytes_written != nullptr) *bytes_written = 0;
  if (image.base == nullptr) {
    return Status::InvalidArgument("checkpoint: no base table to persist");
  }
  std::error_code ec;
  fs::create_directories(directory, ec);

  std::string payload;
  EncodeTable(*image.base, &payload);
  PutU32(&payload, static_cast<uint32_t>(image.entries.size()));
  for (const CheckpointCacheEntry& entry : image.entries) {
    PutU64(&payload, entry.columns_mask);
    PutU32(&payload, static_cast<uint32_t>(entry.aggs.size()));
    for (const CheckpointAggRef& agg : entry.aggs) {
      PutU32(&payload, static_cast<uint32_t>(agg.kind));
      PutU32(&payload, static_cast<uint32_t>(agg.column));
    }
    PutU64(&payload, entry.source_version);
    PutU8(&payload, entry.needs_recompute ? 1 : 0);
    EncodeTable(*entry.table, &payload);
  }

  std::string file_bytes;
  file_bytes.reserve(kCkptHeaderBytes + payload.size());
  PutU32(&file_bytes, kCkptMagic);
  PutU32(&file_bytes, kCkptFormat);
  PutU64(&file_bytes, image.base_version);
  PutU64(&file_bytes, static_cast<uint64_t>(payload.size()));
  PutU32(&file_bytes, Crc32(payload.data(), payload.size()));
  file_bytes += payload;

  const fs::path final_path =
      fs::path(directory) / CheckpointFileName(image.base_version);
  const fs::path tmp_path =
      fs::path(directory) / (CheckpointFileName(image.base_version) + ".tmp-" +
                             std::to_string(CurrentProcessId()));
  const uint64_t salt = FaultKey(image.base_version, 0xC4C4C4C4ull);

  auto fail = [&](Status status) {
    fs::remove(tmp_path, ec);
    return status;
  };

  if (GBMQO_INJECT_FAULT(FaultSite::kDiskEnospc, salt)) {
    return fail(Status::ResourceExhausted(
        "checkpoint: no space left on device writing " + tmp_path.string()));
  }

  std::FILE* file = std::fopen(tmp_path.string().c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal("checkpoint: cannot create " + tmp_path.string() +
                            ": " + std::strerror(errno));
  }
  size_t to_write = file_bytes.size();
  if (GBMQO_INJECT_FAULT(FaultSite::kDiskShortWrite, salt)) {
    to_write /= 2;
  }
  const size_t written = std::fwrite(file_bytes.data(), 1, to_write, file);
  if (written != file_bytes.size()) {
    const bool enospc = errno == ENOSPC;
    std::fclose(file);
    const std::string detail = "checkpoint: short write to " +
                               tmp_path.string() + " at offset " +
                               std::to_string(written) + ": wrote " +
                               std::to_string(written) + " of " +
                               std::to_string(file_bytes.size()) + " bytes";
    return fail(enospc ? Status::ResourceExhausted(detail + " (ENOSPC)")
                       : Status::Internal(detail));
  }
  bool sync_failed = std::fflush(file) != 0;
#ifdef _WIN32
  sync_failed = sync_failed || _commit(_fileno(file)) != 0;
#else
  sync_failed = sync_failed || ::fsync(fileno(file)) != 0;
#endif
  std::fclose(file);
  if (sync_failed || GBMQO_INJECT_FAULT(FaultSite::kDiskFsync, salt)) {
    return fail(Status::Internal("checkpoint: fsync failed for " +
                                 tmp_path.string()));
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    return fail(Status::Internal("checkpoint: cannot rename " +
                                 tmp_path.string() + " to " +
                                 final_path.string() + ": " + ec.message()));
  }
#ifndef _WIN32
  // fsync the directory so the rename itself survives a power failure.
  const int dir_fd = ::open(directory.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
#endif
  if (governor != nullptr) {
    governor->ForceReserveDisk(static_cast<double>(file_bytes.size()));
  }
  if (bytes_written != nullptr) *bytes_written = file_bytes.size();
  return Status::OK();
}

Result<CheckpointImage> ReadCheckpoint(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::Internal("checkpoint: cannot open " + path + ": " +
                            std::strerror(errno));
  }
  std::string buf;
  {
    char chunk[1 << 16];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, file)) > 0) {
      buf.append(chunk, n);
    }
    const bool read_error = std::ferror(file) != 0;
    std::fclose(file);
    if (read_error) {
      return Status::Internal("checkpoint: read error loading " + path);
    }
  }
  if (buf.size() < kCkptHeaderBytes) {
    return Status::Internal("checkpoint: " + path + " is truncated (" +
                            std::to_string(buf.size()) + " bytes)");
  }
  uint32_t magic, format, crc;
  uint64_t base_version, payload_len;
  std::memcpy(&magic, buf.data(), 4);
  std::memcpy(&format, buf.data() + 4, 4);
  std::memcpy(&base_version, buf.data() + 8, 8);
  std::memcpy(&payload_len, buf.data() + 16, 8);
  std::memcpy(&crc, buf.data() + 24, 4);
  if (magic != kCkptMagic) {
    return Status::Internal("checkpoint: bad magic in " + path);
  }
  if (format != kCkptFormat) {
    return Status::Internal("checkpoint: unsupported format " +
                            std::to_string(format) + " in " + path);
  }
  if (buf.size() - kCkptHeaderBytes != payload_len) {
    return Status::Internal("checkpoint: " + path + " payload is " +
                            std::to_string(buf.size() - kCkptHeaderBytes) +
                            " bytes, header promises " +
                            std::to_string(payload_len));
  }
  uint8_t* payload = reinterpret_cast<uint8_t*>(buf.data()) + kCkptHeaderBytes;
  // Read-path fault site: prove the whole-image CRC rejects bit rot.
  if (payload_len > 0 &&
      GBMQO_INJECT_FAULT(FaultSite::kDiskBitFlip, FaultKey(base_version))) {
    payload[payload_len / 2] ^= 0x04;
  }
  if (Crc32(payload, payload_len) != crc) {
    return Status::Internal("checkpoint: CRC mismatch in " + path);
  }

  Cursor cur{payload, payload_len};
  CheckpointImage image;
  image.base_version = base_version;
  Result<TablePtr> base = DecodeTable(&cur);
  GBMQO_RETURN_NOT_OK(base.status());
  image.base = *base;
  uint32_t num_entries = 0;
  if (!cur.Get(&num_entries)) return Truncated("cache entry count");
  image.entries.reserve(num_entries);
  for (uint32_t e = 0; e < num_entries; ++e) {
    CheckpointCacheEntry entry;
    uint32_t num_aggs = 0;
    if (!cur.Get(&entry.columns_mask) || !cur.Get(&num_aggs)) {
      return Truncated("cache entry key");
    }
    entry.aggs.reserve(num_aggs);
    for (uint32_t a = 0; a < num_aggs; ++a) {
      uint32_t kind = 0, column = 0;
      if (!cur.Get(&kind) || !cur.Get(&column)) return Truncated("agg ref");
      entry.aggs.push_back(CheckpointAggRef{static_cast<int>(kind),
                                            static_cast<int>(column)});
    }
    uint8_t needs_recompute = 0;
    if (!cur.Get(&entry.source_version) || !cur.Get(&needs_recompute)) {
      return Truncated("cache entry stamps");
    }
    entry.needs_recompute = needs_recompute != 0;
    Result<TablePtr> table = DecodeTable(&cur);
    GBMQO_RETURN_NOT_OK(table.status());
    entry.table = *table;
    image.entries.push_back(std::move(entry));
  }
  if (cur.pos != cur.size) {
    return Status::Internal("checkpoint: trailing garbage in " + path);
  }
  return image;
}

Result<std::vector<CheckpointRef>> ListCheckpoints(
    const std::string& directory) {
  std::vector<CheckpointRef> refs;
  std::error_code ec;
  if (!fs::exists(directory, ec)) return refs;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    constexpr char kPrefix[] = "checkpoint-";
    const size_t prefix_len = sizeof(kPrefix) - 1;
    const size_t suffix_len = sizeof(kCkptSuffix) - 1;
    if (name.size() <= prefix_len + suffix_len ||
        name.compare(0, prefix_len, kPrefix) != 0 ||
        name.compare(name.size() - suffix_len, suffix_len, kCkptSuffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix_len, name.size() - prefix_len - suffix_len);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    refs.push_back(CheckpointRef{std::strtoull(digits.c_str(), nullptr, 10),
                                 entry.path().string()});
  }
  if (ec) {
    return Status::Internal("checkpoint: cannot list " + directory + ": " +
                            ec.message());
  }
  std::sort(refs.begin(), refs.end(),
            [](const CheckpointRef& a, const CheckpointRef& b) {
              return a.version < b.version;
            });
  return refs;
}

uint64_t ReapStaleCheckpointTmps(const std::string& directory) {
  std::error_code ec;
  if (!fs::exists(directory, ec)) return 0;
  uint64_t reaped = 0;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    const std::string name = entry.path().filename().string();
    const size_t marker = name.rfind(".tmp-");
    if (name.compare(0, 11, "checkpoint-") != 0 ||
        marker == std::string::npos) {
      continue;
    }
    const std::string digits = name.substr(marker + 5);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    const uint64_t pid = std::strtoull(digits.c_str(), nullptr, 10);
    if (ProcessAlive(pid)) continue;
    if (fs::remove(entry.path(), ec)) ++reaped;
  }
  return reaped;
}

}  // namespace gbmqo
