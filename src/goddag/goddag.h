#ifndef CXML_GODDAG_GODDAG_H_
#define CXML_GODDAG_GODDAG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cmh/hierarchy.h"
#include "common/interval.h"
#include "common/result.h"
#include "common/span.h"
#include "goddag/chunks.h"
#include "goddag/pool.h"
#include "xml/token.h"

namespace cxml::sacx {
class GoddagHandler;
}  // namespace cxml::sacx

namespace cxml::goddag {

class SnapshotIndex;

using cmh::HierarchyId;
using cmh::kInvalidHierarchy;

/// Handle to a GODDAG node. Stable across mutations (nodes are
/// arena-allocated and never reused within one Goddag's lifetime).
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Node kinds of the Generalized Ordered-Descendant Directed Acyclic
/// Graph (Sperberg-McQueen & Huitfeldt 2000), as used by the paper:
/// one shared root, per-hierarchy element trees, and a shared layer of
/// leaf nodes (text fragments).
enum class NodeKind : uint8_t {
  kRoot,
  kElement,
  kLeaf,
};

const char* NodeKindToString(NodeKind kind);

/// The GODDAG: the in-memory data model for multihierarchical
/// document-centric XML (paper §3, Figure 2).
///
/// Structure:
///  * `content()` is the shared character data.
///  * The content is partitioned into ordered **leaves** — maximal
///    fragments whose borders are "given by markup positions from all
///    hierarchies".
///  * Each hierarchy `h` contributes a tree of **element** nodes over the
///    leaves; trees are united at the single **root** node and at the
///    leaf layer.
///  * Navigation "from one structure to another is done through root node
///    or leaf (text) nodes" — every leaf knows its parent in *each*
///    hierarchy.
///
/// Invariants (checked by `Validate()`):
///  I1 leaves are in content order and partition `[0, content.size())`;
///  I2 every element's leaf range is a contiguous interval;
///  I3 per-hierarchy parent/child links form a tree rooted at `root()`;
///  I4 an element's children lie inside its leaf range, are ordered, and
///     tile it exactly;
///  I5 element tags belong to their hierarchy's vocabulary (when a CMH is
///     bound).
///
/// Storage is copy-on-write chunks (see CowChunks), so that a copy
/// shares the whole document and a write copies only the chunks it
/// touches: per-node arrays indexed by NodeId, the leaf parents in one
/// array strided by hierarchy (`[slot * H + h]`) and the leaf order are
/// ChunkedArrays; every child list (the root's per-hierarchy lists
/// included) is a span of one NodeId Pool, every attribute list a span
/// of one xml::Attribute Pool; the content string is shared until a
/// text edit; tags are interned per document. A copy copies chunk
/// tables, a write copies the chunks it lands in the first time that
/// copy writes them, and an append (AllocNode) touches only the tail
/// chunks. On the 20k-char cxbench manuscript (11,186 slots, 4
/// hierarchies; 4-vCPU VM) storage::Clone takes 3.3-9.3 us, where flat
/// arrays took 126-186 us and made the next write regrow every array.
/// AllElements, SortDocumentOrder and SnapshotIndex::Patch walk the
/// arrays chunk by chunk or sort flat keys, so loading a snapshot and
/// building its index cost what they did on flat arrays.
///
/// Span lifetime: `children()`, `root_children()` and `attributes()`
/// return views into the pools. Any mutation may move a list (a list
/// that outgrows its span moves to a chunk with room) or copy the chunk
/// it lives in, so a view is valid only until the next mutation of this
/// Goddag. Published snapshots never mutate, so views into them stay
/// valid as long as the snapshot does.
class Goddag {
 public:
  /// An empty GODDAG over `content` with `num_hierarchies` hierarchies:
  /// one leaf per content (or none when content is empty) and a root.
  /// Use goddag::Builder / sacx::SacxParser for construction from markup.
  Goddag(std::string content, size_t num_hierarchies,
         std::string root_tag = "r");

  Goddag& operator=(const Goddag&) = delete;
  Goddag(Goddag&&) = default;
  Goddag& operator=(Goddag&&) = default;

  /// Optionally binds the CMH that defines hierarchy names/DTDs.
  /// The pointer is stored; the CMH must outlive the Goddag.
  void BindCmh(const cmh::ConcurrentHierarchies* cmh) { cmh_ = cmh; }
  const cmh::ConcurrentHierarchies* cmh() const { return cmh_; }

  // ------------------------------------------------------------ global
  const std::string& content() const { return *content_; }
  size_t num_hierarchies() const { return num_hierarchies_; }
  NodeId root() const { return root_; }
  const std::string& root_tag() const { return tag(root_); }
  /// Total nodes ever allocated (includes detached ones).
  size_t arena_size() const { return kind_.size(); }
  /// Attached elements over all hierarchies (kept by the mutations).
  size_t num_elements() const { return num_elements_; }
  /// Entries of the child and attribute pools, and how many of them no
  /// list owns any more (what CompactPools() would drop).
  size_t pool_entries() const {
    return child_pool_.size() + attr_pool_.size();
  }
  size_t dead_pool_entries() const {
    return child_pool_.dead() + attr_pool_.dead();
  }

  // ------------------------------------------------------- node access
  NodeKind kind(NodeId node) const { return kind_[node]; }
  bool is_element(NodeId node) const {
    return kind_[node] == NodeKind::kElement;
  }
  bool is_leaf(NodeId node) const { return kind_[node] == NodeKind::kLeaf; }
  bool is_root(NodeId node) const { return node == root_; }

  /// Tag of an element (or the root tag). Leaves have no tag.
  const std::string& tag(NodeId node) const { return tag_names_[tag_[node]]; }
  /// Hierarchy of an element; kInvalidHierarchy for root and leaves.
  HierarchyId hierarchy(NodeId node) const { return hierarchy_[node]; }

  /// Valid until the next mutation (see the class comment).
  Span<xml::Attribute> attributes(NodeId node) const {
    return attr_pool_.View(attrs_[node]);
  }
  /// Attribute value or nullptr.
  const std::string* FindAttribute(NodeId node, std::string_view name) const;
  void SetAttribute(NodeId node, std::string_view name,
                    std::string_view value);
  void RemoveAttribute(NodeId node, std::string_view name);

  /// Character extent `[begin, end)` of the node in `content()`.
  Interval char_range(NodeId node) const;
  /// Leaf-index extent `[first, past_last)` of the node.
  Interval leaf_range(NodeId node) const;
  /// The text the node dominates (substring of content()).
  std::string_view text(NodeId node) const;

  // ------------------------------------------------------- structure
  /// Ordered children of an element (elements of the same hierarchy
  /// and/or leaves). Only meaningful for elements. Valid until the next
  /// mutation (see the class comment).
  Span<NodeId> children(NodeId element) const {
    return child_pool_.View(children_[element]);
  }
  /// Ordered children of the root *within hierarchy h*.
  Span<NodeId> root_children(HierarchyId h) const {
    return child_pool_.View(root_children_[h]);
  }
  /// Parent of an element within its own hierarchy (an element or root).
  NodeId parent(NodeId element) const { return parent_[element]; }
  /// Parent of a leaf within hierarchy `h` (an element or the root).
  NodeId leaf_parent(NodeId leaf, HierarchyId h) const;
  /// Parent of `node` as seen from hierarchy `h`: for elements of `h`,
  /// their tree parent; for leaves, `leaf_parent`; root has none.
  NodeId parent_in(NodeId node, HierarchyId h) const;

  // ------------------------------------------------------- leaf layer
  size_t num_leaves() const { return leaves_.size(); }
  NodeId leaf_at(size_t index) const { return leaves_[index]; }
  /// The leaves in content order (iterable; index with leaf_at).
  const ChunkedArray<NodeId>& leaves() const { return leaves_; }
  /// Index of a leaf node in the leaf order.
  size_t leaf_index(NodeId leaf) const { return leaf_index_[leaf]; }

  /// The smallest leaf interval covering character range `chars`
  /// (leaves straddling the endpoints are included).
  Interval LeavesCovering(const Interval& chars) const;

  // ------------------------------------------------------ enumeration
  /// All (attached) elements of hierarchy `h` in document order.
  std::vector<NodeId> ElementsOf(HierarchyId h) const;
  /// All attached elements (all hierarchies) in document order.
  std::vector<NodeId> AllElements() const;
  /// All attached elements with `tag`, optionally restricted to `h`.
  std::vector<NodeId> ElementsByTag(
      std::string_view tag, HierarchyId h = kInvalidHierarchy) const;

  /// Document order: primarily by character start; ties broken by later
  /// end (containing before contained), then hierarchy, then kind
  /// (root < element < leaf), then allocation order.
  bool Before(NodeId a, NodeId b) const;
  /// Sorts a node vector into document order, removing duplicates.
  void SortDocumentOrder(std::vector<NodeId>* nodes) const;

  // -------------------------------------------------------- mutation
  /// Inserts a new element with `tag` into hierarchy `h` spanning exactly
  /// the character range `chars`. Splits boundary leaves when `chars`
  /// cuts through a leaf; re-hangs the covered nodes under the new
  /// element. Fails when the range partially overlaps an element of the
  /// *same* hierarchy (within one hierarchy markup must stay nested) or
  /// when offsets are out of range. (mutation.cc)
  Result<NodeId> InsertElement(HierarchyId h, std::string_view tag,
                               std::vector<xml::Attribute> attrs,
                               const Interval& chars);

  /// Removes an element, splicing its children into its parent.
  /// The node becomes detached; its id is never reused. (mutation.cc)
  Status RemoveElement(NodeId element);

  /// Splits the leaf containing `offset` at `offset`, if not already a
  /// boundary. All covering elements in all hierarchies are updated.
  /// Returns the leaf that now *starts* at `offset`. (mutation.cc)
  Result<NodeId> SplitLeafAt(size_t offset);

  /// Inserts `text` into the shared content at `offset`. The leaf
  /// containing `offset` absorbs the new characters; every element
  /// containing that leaf grows, everything after shifts. (mutation.cc)
  Status InsertText(size_t offset, std::string_view text);

  /// Deletes the character range from the shared content. Leaves wholly
  /// inside disappear; elements shrink, and elements entirely within the
  /// range become zero-width (their markup survives as milestones —
  /// deleting text never silently deletes markup). (mutation.cc)
  Status DeleteText(const Interval& range);

  /// Restores leaf minimality: merges adjacent leaves that have the same
  /// parent in every hierarchy and are adjacent siblings there (i.e. no
  /// markup boundary separates them any more). Returns the number of
  /// merges. (mutation.cc)
  size_t CoalesceLeaves();

  /// Rewrites the child and attribute pools to hold only live lists,
  /// packed with no spare room; NodeIds and every list's contents stay
  /// as they are. The builders call it when done, and storage::Clone
  /// calls it on a copy whose pools are mostly dead. (goddag.cc)
  void CompactPools();

  /// Structural invariant check (I1–I5), plus the storage checks: every
  /// pool span lies inside its pool, no two live spans overlap, and the
  /// element and dead-entry counts match a recount. Ok on healthy
  /// structures. (validate.cc)
  Status Validate() const;

  // ---------------------------------------------------------- cloning
  /// Native structural copy: shares every chunk of the node arrays,
  /// the leaf layer and the pools, and the content, with this GODDAG;
  /// either side copies a chunk the first time it writes to it, so the
  /// copy and this GODDAG may both go on mutating. No serializer round
  /// trip. NodeIds are arena indices, so they carry over verbatim: a
  /// node id valid in `*this` names the corresponding node in the copy,
  /// which is what edit::EditSession and the XPath overlap axes rely on
  /// (they never need remapping). Detached nodes are kept too, keeping
  /// the arenas aligned.
  ///
  /// Safe to call from several threads at once on a GODDAG none of them
  /// mutates (a published snapshot): the copy only restamps this
  /// GODDAG's chunk tables atomically.
  ///
  /// `cmh` is the binding for the copy, or nullptr to share this
  /// GODDAG's binding. (goddag.cc)
  Goddag Clone(const cmh::ConcurrentHierarchies* cmh = nullptr) const;

 private:
  friend class Builder;
  friend class SnapshotIndex;
  friend class ::cxml::sacx::GoddagHandler;

  /// Memberwise copy behind Clone(): every member is a value type or a
  /// chunk container whose copy shares its chunks, so the default copy
  /// is already a correct copy-on-write copy and covers members added
  /// later. Private so copies only arise through the explicit Clone().
  Goddag(const Goddag&) = default;

  NodeId AllocNode(NodeKind kind);
  /// The leaf whose char range contains `offset` (binary search).
  size_t LeafIndexAtOffset(size_t offset) const;
  void RenumberLeaves();
  /// The id of `tag` in tag_names_, added when new.
  uint32_t InternTag(std::string_view tag);
  /// The child list of `parent` in hierarchy `h`: the root's list for
  /// `h`, else the element's own.
  PoolSpan& ChildList(NodeId parent, HierarchyId h) {
    return parent == root_ ? root_children_[h] : children_.Mutable(parent);
  }
  /// ChildList for reading (writes no chunk).
  const PoolSpan& ChildSpan(NodeId parent, HierarchyId h) const {
    return parent == root_ ? root_children_[h] : children_[parent];
  }
  NodeId LeafParent(NodeId leaf, HierarchyId h) const {
    return leaf_parents_[leaf * num_hierarchies_ + h];
  }
  NodeId& MutableLeafParent(NodeId leaf, HierarchyId h) {
    return leaf_parents_.Mutable(leaf * num_hierarchies_ + h);
  }
  /// A private copy of the content to edit (text edits are O(arena)
  /// anyway, so they always copy rather than track ownership).
  std::string& MutableContent();
  /// Removes `leaf` from its parent's child list in hierarchy `h`.
  void UnlinkLeaf(NodeId leaf, HierarchyId h);

  /// Shared by copies, never written in place.
  std::shared_ptr<const std::string> content_;
  size_t num_hierarchies_ = 0;
  const cmh::ConcurrentHierarchies* cmh_ = nullptr;

  // Parallel node arrays indexed by NodeId.
  ChunkedArray<NodeKind> kind_;
  ChunkedArray<uint32_t> tag_;        // index into tag_names_
  ChunkedArray<HierarchyId> hierarchy_;
  ChunkedArray<PoolSpan> attrs_;      // into attr_pool_
  ChunkedArray<NodeId> parent_;
  ChunkedArray<PoolSpan> children_;   // into child_pool_
  ChunkedArray<Interval> chars_;      // leaves: exact; elements: cached
  ChunkedArray<uint32_t> leaf_index_;  // leaves only; a NodeId's width

  /// Leaf parents, strided: the parent of leaf slot `n` in hierarchy
  /// `h` is `[n * num_hierarchies_ + h]` (kInvalidNode for other slots).
  ChunkedArray<NodeId> leaf_parents_;

  NodeId root_ = kInvalidNode;
  std::vector<PoolSpan> root_children_;  // per hierarchy, into child_pool_
  ChunkedArray<NodeId> leaves_;  // in content order

  Pool<NodeId> child_pool_;
  Pool<xml::Attribute> attr_pool_;
  size_t num_elements_ = 0;  // attached elements

  /// Interned tags: id 0 is "" (leaves), tag_order_ lists the ids by
  /// name for InternTag's binary search.
  std::vector<std::string> tag_names_;
  std::vector<uint32_t> tag_order_;
};

}  // namespace cxml::goddag

#endif  // CXML_GODDAG_GODDAG_H_
