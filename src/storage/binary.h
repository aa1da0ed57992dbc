#ifndef CXML_STORAGE_BINARY_H_
#define CXML_STORAGE_BINARY_H_

#include <memory>
#include <string>
#include <string_view>

#include "cmh/hierarchy.h"
#include "common/result.h"
#include "goddag/goddag.h"

namespace cxml::storage {

/// Persistent storage for concurrent XML — the paper's §1 "work on
/// building persistent storage solutions is currently underway",
/// realised here as a self-contained binary snapshot format `CXG1`:
///
///   magic "CXG1" | format version
///   root tag | shared content
///   hierarchy table: (name, DTD source text) per hierarchy
///   element table:   (hierarchy, tag, attrs, start, end) in document
///                    order
///
/// The snapshot embeds the CMH (as DTD text), so `Load` reconstructs
/// both the schema and the GODDAG with no external state. Logical
/// extents, not arena internals, are stored — snapshots remain valid
/// across library versions and load through the same reconstruction
/// path the representation drivers use (drivers::BuildGoddagFromExtents,
/// exercised by the round-trip property tests).

/// A loaded snapshot: the CMH must outlive the GODDAG, so both arrive
/// together.
struct LoadedGoddag {
  std::unique_ptr<cmh::ConcurrentHierarchies> cmh;
  std::unique_ptr<goddag::Goddag> g;
};

/// Serialises `g` (which must have a CMH bound) into snapshot bytes.
Result<std::string> Save(const goddag::Goddag& g);

/// Reconstructs CMH + GODDAG from snapshot bytes.
Result<LoadedGoddag> Load(std::string_view bytes);

/// Deep copy of a GODDAG (with its CMH) — the copy-on-write primitive
/// behind the service layer's DocumentStore: writers mutate a Clone
/// while readers keep the published snapshot. Structural: copies the
/// shared leaf layer, per-hierarchy trees, and node/edge arenas
/// in memory (goddag::Goddag::Clone + cmh Clone), never touching the
/// serializer, so NodeIds survive verbatim and the cost is a few bulk
/// copies of the flat arrays and pools rather than a Save/Load round
/// trip. Exceptions, for amortized hygiene: when detached arena slots
/// (edit-rollback garbage, which the verbatim copy would otherwise
/// carry into every future version) outnumber live nodes, the copy is
/// taken through the snapshot path below instead, rebuilding a compact
/// arena; and when dead pool entries outnumber live ones, the copy
/// repacks its pools (goddag::Goddag::CompactPools).
Result<LoadedGoddag> Clone(const goddag::Goddag& g);

/// The original snapshot-based deep copy (Save + Load). Kept as the
/// equivalence oracle for the structural Clone: both must yield
/// byte-identical CXG1 snapshots and identical query results
/// (storage_test exercises this), and reconstruction through the
/// drivers' extent path cross-checks the arena copy.
Result<LoadedGoddag> CloneViaSnapshot(const goddag::Goddag& g);

/// File convenience wrappers.
Status SaveToFile(const goddag::Goddag& g, const std::string& path);
Result<LoadedGoddag> LoadFromFile(const std::string& path);

}  // namespace cxml::storage

#endif  // CXML_STORAGE_BINARY_H_
