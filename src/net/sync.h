#ifndef CXML_NET_SYNC_H_
#define CXML_NET_SYNC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace cxml::net {

/// One CXP/1 `SYNC <doc> <from_version>` answer: encoded WAL records
/// (wal::EncodeRecord framing — each is one length-prefixed response
/// item) with strictly ascending versions, all > from_version, plus
/// the document's current version at the primary so a caught-up
/// follower can measure its lag in versions even when no records ship.
struct SyncBatch {
  std::vector<std::string> records;
  uint64_t current_version = 0;
};

/// Where the server's SYNC verb reads replication batches from. The
/// durability layer (wal::WalManager) implements it; net only consumes
/// it, which keeps the module dependency one-way (wal → net). A server
/// without a source answers SYNC with ERR Unimplemented.
class SyncSource {
 public:
  virtual ~SyncSource() = default;

  /// Records after `from_version` for `document`, bounded by
  /// `max_bytes` (soft: the first record always ships, so a
  /// full-snapshot record may exceed the cap on its own).
  /// A follower older than the retained tail receives one kSnapshot
  /// record instead of history. Only versions the source has logged
  /// ship: a follower level with the log gets no records, with the
  /// store's newer version in `current_version`, until the log has it.
  virtual Result<SyncBatch> ReadSince(const std::string& document,
                                      uint64_t from_version,
                                      size_t max_bytes) = 0;
};

}  // namespace cxml::net

#endif  // CXML_NET_SYNC_H_
