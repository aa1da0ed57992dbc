#ifndef CXML_CMH_HIERARCHY_H_
#define CXML_CMH_HIERARCHY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "dtd/dtd.h"

namespace cxml::cmh {

/// Dense identifier of a hierarchy within one ConcurrentHierarchies set.
using HierarchyId = uint32_t;
inline constexpr HierarchyId kInvalidHierarchy =
    static_cast<HierarchyId>(-1);

/// One markup hierarchy: a named DTD whose element types have "a clear
/// nested structure" (paper §2). E.g. the *physical* hierarchy
/// (page, line) vs the *linguistic* hierarchy (sentence, phrase, word).
struct Hierarchy {
  HierarchyId id = kInvalidHierarchy;
  std::string name;
  dtd::Dtd dtd;

  /// True iff `tag` is declared in this hierarchy's DTD.
  bool Covers(std::string_view tag) const { return dtd.HasElement(tag); }
};

/// A concurrent markup hierarchy (paper §3): "a collection of DTD
/// elements that are not in conflict with each other", here modelled as a
/// set of named DTDs with pairwise-disjoint element vocabularies, all
/// sharing a single root element tag.
///
/// Edits never change a schema, so once built a CMH is shared, not
/// copied: storage::LoadedGoddag and the service's snapshots hold it as
/// `shared_ptr<const ConcurrentHierarchies>`, and storage::Clone hands
/// the same CMH to every version of a document (shared_from_this).
class ConcurrentHierarchies
    : public std::enable_shared_from_this<ConcurrentHierarchies> {
 public:
  /// `root_tag` is the element shared by every hierarchy's documents
  /// (`<r>` throughout the paper's figures).
  explicit ConcurrentHierarchies(std::string root_tag);

  // Moves stay available (Result/unique_ptr plumbing); copies only
  // through the explicit Clone() below.
  ConcurrentHierarchies(ConcurrentHierarchies&&) = default;
  ConcurrentHierarchies& operator=(ConcurrentHierarchies&&) = default;

  const std::string& root_tag() const { return root_tag_; }

  /// Registers a hierarchy. Fails when the name is taken or when any
  /// non-root element of `dtd` is already claimed by another hierarchy
  /// (vocabularies must partition the markup language).
  Result<HierarchyId> AddHierarchy(std::string name, dtd::Dtd dtd);

  size_t size() const { return hierarchies_.size(); }
  const Hierarchy& hierarchy(HierarchyId id) const {
    return hierarchies_[id];
  }
  const std::vector<Hierarchy>& hierarchies() const { return hierarchies_; }

  /// Finds a hierarchy by name; nullptr when absent.
  const Hierarchy* FindByName(std::string_view name) const;
  /// Id by name, or kInvalidHierarchy.
  HierarchyId FindIdByName(std::string_view name) const;

  /// The hierarchy owning element `tag`, or kInvalidHierarchy (the root
  /// tag belongs to all hierarchies and also returns kInvalidHierarchy —
  /// use `is_root_tag`).
  HierarchyId HierarchyOf(std::string_view tag) const;
  bool is_root_tag(std::string_view tag) const { return tag == root_tag_; }

  /// Compiles every hierarchy's DTD (validation + prevalidation automata).
  /// The returned object references this instance; keep it alive.
  Result<std::vector<dtd::CompiledDtd>> CompileAll() const;

  /// CompileAll, run once per CMH (thread-safe) and kept: every editor
  /// over a GODDAG bound to this CMH shares the automata. A content
  /// model that fails to compile (e.g. a non-deterministic one) fails
  /// every call, so it fails each edit, not the registration. Valid
  /// until the next AddHierarchy.
  Result<const std::vector<dtd::CompiledDtd>*> CompiledAutomata() const;

  /// Deep copy of the registry: names, DTD vocabularies (content
  /// models, attribute lists, entities), and the element-owner index.
  /// The clone is self-contained — nothing points back into this
  /// instance — so it can outlive it; storage::Clone hands one to a
  /// copy of a GODDAG whose CMH is not held by a shared_ptr.
  std::unique_ptr<ConcurrentHierarchies> Clone() const;

 private:
  /// The CompiledAutomata cache.
  struct Compiled;

  /// Memberwise copy behind Clone(), with a cache of its own (the
  /// compiled automata point into the DTDs they were compiled from).
  ConcurrentHierarchies(const ConcurrentHierarchies& other);

  std::string root_tag_;
  std::vector<Hierarchy> hierarchies_;
  /// element tag -> owning hierarchy (root tag excluded).
  std::map<std::string, HierarchyId, std::less<>> element_owner_;
  std::shared_ptr<Compiled> compiled_;
};

}  // namespace cxml::cmh

#endif  // CXML_CMH_HIERARCHY_H_
