#ifndef CXML_EDIT_EDITOR_H_
#define CXML_EDIT_EDITOR_H_

#include <memory>
#include <string>
#include <vector>

#include "dtd/dtd.h"
#include "goddag/goddag.h"
#include "goddag/index_delta.h"

namespace cxml::edit {

using goddag::HierarchyId;
using goddag::NodeId;

/// One markup-insertion request: "select a document fragment and choose
/// the appropriate markup for it" (paper §4, xTagger).
struct InsertOp {
  HierarchyId hierarchy = 0;
  std::string tag;
  std::vector<xml::Attribute> attrs;
  Interval chars;
};

/// The editing engine behind xTagger: range-based markup insertion and
/// removal over a live GODDAG with **prevalidation** — "detects encodings
/// that cannot be extended to valid XML with further markup insertions"
/// (paper §4; Iacob, Dekhtyar & Dekhtyar, WebDB 2004).
///
/// Every mutating operation:
///  1. applies the structural change (well-formedness within the
///     hierarchy is enforced by the GODDAG mutation primitives),
///  2. checks *potential validity* of every element whose child sequence
///     changed (subsequence-of-content-model test),
///  3. rolls the change back and fails when the check rejects.
///
/// Operations are recorded for undo/redo.
class Editor {
 public:
  /// The GODDAG must have a CMH bound (the editor uses its DTD automata,
  /// compiled once per CMH); `g` must outlive the editor.
  static Result<Editor> Create(goddag::Goddag* g);

  Editor(Editor&&) = default;
  Editor& operator=(Editor&&) = default;

  const goddag::Goddag& goddag() const { return *g_; }

  /// Non-mutating check: would `Insert(op)` succeed?
  /// (Implemented as apply + rollback; boundary leaf splits may remain,
  /// which does not change document semantics.)
  Status CanInsert(const InsertOp& op);

  /// Inserts markup with prevalidation. Returns the new element.
  Result<NodeId> Insert(const InsertOp& op);

  /// Removes an element (children are spliced into the parent), with
  /// prevalidation of the parent's new child sequence.
  Status Remove(NodeId element);

  /// Sets an attribute after checking it is declared (and enum-valid)
  /// for the element's type.
  Status SetAttribute(NodeId element, std::string_view name,
                      std::string_view value);

  /// The tags of hierarchy `h` that could be inserted over `chars`
  /// without breaking potential validity — xTagger's "choose the
  /// appropriate markup" menu.
  std::vector<std::string> ApplicableTags(HierarchyId h,
                                          const Interval& chars);

  /// Full DTD validation of every hierarchy of the current document
  /// (strict, not potential): empty result means "valid now".
  Status ValidateStrict() const;

  // ----------------------------------------------------------- undo
  bool CanUndo() const { return !undo_.empty(); }
  bool CanRedo() const { return !redo_.empty(); }
  Status Undo();
  Status Redo();
  size_t undo_depth() const { return undo_.size(); }

  /// Running summary of the structural edits applied since this editor
  /// (and therefore its clone of the base snapshot) was created —
  /// inserts, removes, and their undo/redo re-applications, attribute
  /// writes excluded (they never move index pools). DocumentStore
  /// publish hands it to the successor snapshot so the next cold query
  /// can patch the predecessor's SnapshotIndex instead of rebuilding
  /// (see goddag::IndexDelta for what Patch takes from it).
  const goddag::IndexDelta& index_delta() const { return delta_; }

 private:
  /// A reversible record of one applied operation.
  struct Applied {
    enum class Kind { kInsert, kRemove, kSetAttribute };
    Kind kind;
    // kInsert: the created node; kRemove: parameters to re-insert.
    NodeId node = goddag::kInvalidNode;
    InsertOp op;
    // kSetAttribute: previous state.
    std::string attr_name;
    std::string old_value;
    bool had_old_value = false;
  };

  explicit Editor(goddag::Goddag* g) : g_(g) {}

  /// Potential validity of `element`'s current child sequence (and, when
  /// `element` is the root, of each hierarchy's root sequence).
  Status CheckPotentialValidity(HierarchyId h, NodeId element) const;

  Result<NodeId> InsertImpl(const InsertOp& op, bool record);
  Status RemoveImpl(NodeId element, bool record);

  goddag::Goddag* g_;
  /// The CMH's automata (ConcurrentHierarchies::CompiledAutomata).
  const std::vector<dtd::CompiledDtd>* compiled_ = nullptr;
  std::vector<Applied> undo_;
  std::vector<Applied> redo_;
  goddag::IndexDelta delta_;
};

}  // namespace cxml::edit

#endif  // CXML_EDIT_EDITOR_H_
