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
/// together. Edits never change a schema, so the CMH is shared, as a
/// const, by every copy Clone makes.
struct LoadedGoddag {
  std::shared_ptr<const cmh::ConcurrentHierarchies> cmh;
  std::unique_ptr<goddag::Goddag> g;
};

/// Serialises `g` (which must have a CMH bound) into snapshot bytes.
Result<std::string> Save(const goddag::Goddag& g);

/// Reconstructs CMH + GODDAG from snapshot bytes.
Result<LoadedGoddag> Load(std::string_view bytes);

/// Copy of a GODDAG (with its CMH) — the copy-on-write primitive behind
/// the service layer's DocumentStore: writers mutate a Clone while
/// readers keep the published snapshot. Structural
/// (goddag::Goddag::Clone), never touching the serializer, so NodeIds
/// survive verbatim: the copy shares every storage chunk with `g` and
/// copies the chunk tables, and each side copies a chunk the first
/// time it writes to it, so a write pays for the chunks it touches, not
/// the document. The CMH is shared too: the one `g` is bound to when a
/// shared_ptr holds it (as in every LoadedGoddag), else a copy. On the
/// 20k-char cxbench manuscript it takes 3.3-9.3 us with no CMH copy,
/// where the flat-array copy plus a CMH copy took 126-186 us. Exceptions, for
/// amortized hygiene: when detached arena slots (edit-rollback garbage,
/// which the verbatim copy would otherwise carry into every future
/// version) outnumber live nodes, the copy is taken through the
/// snapshot path below instead, rebuilding a compact arena; and when
/// dead pool entries outnumber live ones, the copy repacks its pools
/// (goddag::Goddag::CompactPools).
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
