#ifndef CXML_WAL_LOG_H_
#define CXML_WAL_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "fault/injector.h"
#include "wal/record.h"

namespace cxml::wal {

/// On-disk layout of one document's durability state, under
/// `<data_dir>/<EncodeDocDir(name)>/`:
///
///   checkpoint-<V>.cxg1   full CXG1 snapshot at version V (written
///                         tmp + fsync + rename, so a checkpoint file
///                         that exists is complete)
///   wal-<B>.log           a CXW1 segment: 16-byte header (magic
///                         "CXW1" | u32 format | u64 base version B)
///                         followed by framed records, every one with
///                         version > B
///
/// Recovery loads the newest readable checkpoint and replays every
/// record above its version; checkpointing rotates to a fresh segment
/// first and snapshots second, so every record beyond the checkpoint
/// always lives in a surviving segment (crash windows leave extra
/// files behind, never a hole).

inline constexpr size_t kSegmentHeaderBytes = 16;
inline constexpr uint32_t kSegmentFormatVersion = 1;

/// Document names may contain any non-whitespace byte ('/' included),
/// so directory names percent-encode everything outside [A-Za-z0-9._-].
std::string EncodeDocDir(std::string_view name);
/// Inverse of EncodeDocDir; rejects malformed escapes.
Result<std::string> DecodeDocDir(std::string_view dir);

/// `checkpoint-<version>.cxg1` / `wal-<base>.log` file names.
std::string CheckpointFileName(uint64_t version);
std::string SegmentFileName(uint64_t base_version);
bool ParseCheckpointFileName(std::string_view name, uint64_t* version);
bool ParseSegmentFileName(std::string_view name, uint64_t* base_version);

/// mkdir -p for one path component at a time (EEXIST is success).
Status EnsureDir(const std::string& path);
/// Names (not paths) of the entries in `path`, unsorted; "." and ".."
/// excluded.
Result<std::vector<std::string>> ListDir(const std::string& path);
/// Whole-file read/removal helpers.
Result<std::string> ReadFileBytes(const std::string& path);
/// Writes `bytes` durably: `<path>.tmp`, fsync, rename over `path`,
/// fsync the containing directory — the file either exists complete or
/// not at all.
Status WriteFileDurable(const std::string& path, std::string_view bytes);
/// Unlinks every file in `path`, then the directory itself.
Status RemoveDirRecursive(const std::string& path);
/// Fsyncs the directory containing `path`, making the creation,
/// rename or removal of that entry durable.
Status FsyncDirOf(const std::string& path);

/// Append handle over one open segment file. Not thread-safe — the
/// manager serializes per-document appends.
class SegmentWriter {
 public:
  /// Creates a fresh segment (header fsynced before the first record
  /// can land, so a crash never leaves a headerless file behind).
  static Result<std::unique_ptr<SegmentWriter>> Create(
      const std::string& path, uint64_t base_version);

  ~SegmentWriter();
  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  /// Appends one framed record. On failure (a short write, or the
  /// `wal.append_torn` fault) the committed size does not advance, but
  /// the file may carry a torn tail — call TruncateToCommitted before
  /// appending again. Fault points: `wal.append_torn` writes only the
  /// schedule's `value` bytes of the frame, then fails.
  Status Append(std::string_view bytes);
  /// Fault point: `wal.fsync` fails without reaching the disk.
  Status Fsync();
  /// Cuts the file back to the last fully-appended record boundary —
  /// the in-process analogue of recovery's torn-tail truncation, run
  /// after a failed Append so the segment stays usable.
  Status TruncateToCommitted();

  void set_injector(fault::Injector* injector) { injector_ = injector; }

  const std::string& path() const { return path_; }
  uint64_t base_version() const { return base_version_; }
  size_t size() const { return size_; }

 private:
  SegmentWriter(int fd, std::string path, uint64_t base_version,
                size_t size)
      : fd_(fd), path_(std::move(path)), base_version_(base_version),
        size_(size) {}

  int fd_ = -1;
  std::string path_;
  uint64_t base_version_ = 0;
  size_t size_ = 0;
  fault::Injector* injector_ = nullptr;
};

/// One segment, read whole: header fields + the record-region scan
/// (torn/corrupt tails stop the scan; see ScanRecords). `valid_bytes`
/// in the scan is relative to the record region — add
/// kSegmentHeaderBytes for the file-level truncation point.
struct SegmentData {
  uint64_t base_version = 0;
  ScanResult scan;
};
Result<SegmentData> ReadSegment(const std::string& path);

}  // namespace cxml::wal

#endif  // CXML_WAL_LOG_H_
