#ifndef CXML_WAL_RECORD_H_
#define CXML_WAL_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace cxml::wal {

/// One durable unit of the per-document write-ahead log: exactly one
/// WritePipeline publish (a group commit or a transaction commit).
/// Registrations are checkpoints, not records. Records
/// travel framed — on disk inside CXW1 segments, and on the wire as
/// CXP/1 `SYNC` response items — as
///
///   u32 payload_len | u32 crc32(payload) | payload
///
/// so a torn tail (truncated write at crash) and a corrupted body are
/// both detectable before a single payload byte is trusted. The
/// payload is
///
///   u8 type | u64 version | u64 wall_micros |
///     type kOps:      u64 base_version | u32 n_op_sets |
///                     n × (u32 len | op-set bytes)
///     type kSnapshot: CXG1 snapshot bytes (rest of payload)
///     type kPromote:  (nothing — the header is the whole payload)
///
/// `kOps` carries the batch's successful op-sets in application order,
/// each encoded as CXP/1 op lines (net::RenderOps — SELECT/APPLY, no
/// COMMIT), replayed through a prevalidating edit session with the
/// same per-op-set selection reset the group commit used. `kSnapshot`
/// replaces the document wholesale at `version`. The log writes one
/// for a publish with no wire form (an opaque in-process EditFn) and
/// for the first publish after a failed append, whose version the log
/// never received. SYNC ships one of the current version to a
/// follower the in-memory sync ring does not cover, but only once the
/// log holds that version.
/// `kPromote` seals an inherited log at failover: it marks "the
/// replicated history ends here at `version`; everything after was
/// written by the promoted primary". It changes no document state —
/// recovery and followers skip it — but it is fsynced before the
/// promoted server acknowledges its first write.
struct Record {
  enum class Type : uint8_t { kOps = 1, kSnapshot = 2, kPromote = 3 };

  Type type = Type::kOps;
  /// The store version this record produces when applied.
  uint64_t version = 0;
  /// Commit wall clock (microseconds since the Unix epoch) — the
  /// replication-lag reference a follower measures against.
  uint64_t wall_micros = 0;
  /// kOps: the version the batch applied on, always version - 1 (a
  /// reader checks the chain with it).
  uint64_t base_version = 0;
  /// kOps: one entry per successful batch participant.
  std::vector<std::string> op_sets;
  /// kSnapshot: the full CXG1 document image.
  std::string snapshot;
};

/// CRC-32 (IEEE 802.3, reflected) over `data` — no zlib dependency.
uint32_t Crc32(std::string_view data);

/// Serializes `record` with its length + CRC frame.
std::string EncodeRecord(const Record& record);

/// Decodes exactly one framed record; trailing bytes are an error.
/// Torn frames, CRC mismatches, and malformed payloads all come back
/// as clean ParseError/ValidationError statuses — never a crash or an
/// over-read (fuzzed in tests/fuzz_test.cc).
Result<Record> DecodeRecord(std::string_view framed);

/// A prefix scan over concatenated framed records (one log segment's
/// record region). Stops at the first torn or corrupt frame: records
/// before it are trusted (each passed its CRC), `valid_bytes` is where
/// the trusted prefix ends (the recovery truncation point), and
/// `clean` says the scan consumed everything.
struct ScanResult {
  std::vector<Record> records;
  size_t valid_bytes = 0;
  bool clean = false;
};
ScanResult ScanRecords(std::string_view data);

}  // namespace cxml::wal

#endif  // CXML_WAL_RECORD_H_
