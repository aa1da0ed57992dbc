#include "edit/editor.h"

#include <algorithm>

#include "common/strings.h"
#include "dom/document.h"
#include "dtd/validator.h"
#include "goddag/serializer.h"

namespace cxml::edit {

Result<Editor> Editor::Create(goddag::Goddag* g) {
  if (g->cmh() == nullptr) {
    return status::FailedPrecondition(
        "Editor requires a GODDAG with a bound CMH (the DTDs drive "
        "prevalidation)");
  }
  Editor editor(g);
  CXML_ASSIGN_OR_RETURN(editor.compiled_, g->cmh()->CompiledAutomata());
  return editor;
}

namespace {

/// Tags of the element children of `node` (root uses hierarchy h's list).
std::vector<std::string> ChildTagSequence(const goddag::Goddag& g,
                                          HierarchyId h, NodeId node) {
  Span<NodeId> children =
      g.is_root(node) ? g.root_children(h) : g.children(node);
  std::vector<std::string> tags;
  for (NodeId c : children) {
    if (g.is_element(c)) tags.push_back(g.tag(c));
  }
  return tags;
}

}  // namespace

Status Editor::CheckPotentialValidity(HierarchyId h, NodeId element) const {
  const dtd::CompiledDtd& compiled = (*compiled_)[h];
  const std::string& tag =
      g_->is_root(element) ? g_->root_tag() : g_->tag(element);
  const dtd::CompiledDtd::ElementAutomata* ea = compiled.Find(tag);
  if (ea == nullptr) {
    return status::ValidationError(
        StrCat("element '", tag, "' is not declared in hierarchy '",
               g_->cmh()->hierarchy(h).name, "'"));
  }
  std::vector<std::string> children = ChildTagSequence(*g_, h, element);
  if (!ea->subsequence->IsPotentiallyValid(ea->nfa, children)) {
    std::string sequence = Join(
        std::vector<std::string_view>(children.begin(), children.end()),
        ",");
    return status::ValidationError(StrFormat(
        "children (%s) of '%s' cannot be extended to match %s — "
        "prevalidation rejects this edit",
        sequence.c_str(), tag.c_str(),
        ea->decl->model.ToString().c_str()));
  }
  return Status::Ok();
}

Result<NodeId> Editor::InsertImpl(const InsertOp& op, bool record) {
  CXML_ASSIGN_OR_RETURN(NodeId node,
                        g_->InsertElement(op.hierarchy, op.tag, op.attrs,
                                          op.chars));
  // Prevalidate the parent's new sequence and the new element's own
  // children; roll back on rejection.
  NodeId parent = g_->parent(node);
  Status st = CheckPotentialValidity(op.hierarchy, parent);
  if (st.ok()) st = CheckPotentialValidity(op.hierarchy, node);
  if (!st.ok()) {
    Status rollback = g_->RemoveElement(node);
    if (!rollback.ok()) {
      return status::Internal(
          StrCat("rollback after failed prevalidation failed: ",
                 rollback.message()));
    }
    return st;
  }
  if (record) {
    Applied record_entry;
    record_entry.kind = Applied::Kind::kInsert;
    record_entry.node = node;
    record_entry.op = op;
    undo_.push_back(std::move(record_entry));
    redo_.clear();
    delta_.Touch();
  }
  return node;
}

Result<NodeId> Editor::Insert(const InsertOp& op) {
  return InsertImpl(op, /*record=*/true);
}

Status Editor::CanInsert(const InsertOp& op) {
  CXML_ASSIGN_OR_RETURN(NodeId node, InsertImpl(op, /*record=*/false));
  return g_->RemoveElement(node);
}

Status Editor::RemoveImpl(NodeId element, bool record) {
  if (element >= g_->arena_size() || !g_->is_element(element)) {
    return status::InvalidArgument("Remove expects an element node");
  }
  HierarchyId h = g_->hierarchy(element);
  InsertOp reverse;
  reverse.hierarchy = h;
  reverse.tag = g_->tag(element);
  Span<xml::Attribute> attrs = g_->attributes(element);
  reverse.attrs.assign(attrs.begin(), attrs.end());
  reverse.chars = g_->char_range(element);
  NodeId parent = g_->parent(element);

  CXML_RETURN_IF_ERROR(g_->RemoveElement(element));
  Status st = CheckPotentialValidity(h, parent);
  if (!st.ok()) {
    // Roll back: re-insert over the same extent restores the structure.
    auto undo = g_->InsertElement(h, reverse.tag, reverse.attrs,
                                  reverse.chars);
    if (!undo.ok()) {
      return status::Internal(
          StrCat("rollback after failed prevalidation failed: ",
                 undo.status().message()));
    }
    return st;
  }
  if (record) {
    delta_.Touch();
    Applied record_entry;
    record_entry.kind = Applied::Kind::kRemove;
    record_entry.op = std::move(reverse);
    undo_.push_back(std::move(record_entry));
    redo_.clear();
  }
  return Status::Ok();
}

Status Editor::Remove(NodeId element) {
  return RemoveImpl(element, /*record=*/true);
}

Status Editor::SetAttribute(NodeId element, std::string_view name,
                            std::string_view value) {
  if (!g_->is_element(element)) {
    return status::InvalidArgument("SetAttribute expects an element");
  }
  HierarchyId h = g_->hierarchy(element);
  const dtd::ElementDecl* decl =
      g_->cmh()->hierarchy(h).dtd.FindElement(g_->tag(element));
  if (decl == nullptr) {
    return status::ValidationError(
        StrCat("element '", g_->tag(element), "' is not declared"));
  }
  const dtd::AttDef* def = decl->FindAttribute(name);
  if (def == nullptr && !StartsWith(name, "xml:")) {
    return status::ValidationError(
        StrCat("attribute '", std::string(name), "' is not declared on '",
               g_->tag(element), "'"));
  }
  if (def != nullptr && (def->type == dtd::AttType::kEnumeration ||
                         def->type == dtd::AttType::kNotation)) {
    if (std::find(def->enum_values.begin(), def->enum_values.end(),
                  std::string(value)) == def->enum_values.end()) {
      return status::ValidationError(
          StrCat("value '", std::string(value),
                 "' is not in the enumeration of attribute '",
                 std::string(name), "'"));
    }
  }
  if (def != nullptr && def->deflt == dtd::AttDefault::kFixed &&
      value != def->default_value) {
    return status::ValidationError(
        StrCat("attribute '", std::string(name), "' is #FIXED \"",
               def->default_value, "\""));
  }

  Applied record_entry;
  record_entry.kind = Applied::Kind::kSetAttribute;
  record_entry.node = element;
  record_entry.attr_name = std::string(name);
  const std::string* old = g_->FindAttribute(element, name);
  record_entry.had_old_value = old != nullptr;
  if (old != nullptr) record_entry.old_value = *old;
  g_->SetAttribute(element, name, value);
  undo_.push_back(std::move(record_entry));
  redo_.clear();
  return Status::Ok();
}

std::vector<std::string> Editor::ApplicableTags(HierarchyId h,
                                                const Interval& chars) {
  std::vector<std::string> out;
  if (h >= g_->num_hierarchies()) return out;
  for (const std::string& tag :
       g_->cmh()->hierarchy(h).dtd.ElementNames()) {
    if (tag == g_->root_tag()) continue;
    InsertOp op;
    op.hierarchy = h;
    op.tag = tag;
    op.chars = chars;
    if (CanInsert(op).ok()) out.push_back(tag);
  }
  return out;
}

Status Editor::ValidateStrict() const {
  for (HierarchyId h = 0; h < g_->num_hierarchies(); ++h) {
    CXML_ASSIGN_OR_RETURN(std::string xml,
                          goddag::SerializeHierarchy(*g_, h));
    CXML_ASSIGN_OR_RETURN(auto doc, dom::ParseDocument(xml));
    dtd::DtdValidator validator((*compiled_)[h]);
    Status st = validator.Check(*doc, g_->root_tag());
    if (!st.ok()) {
      return st.WithContext(
          StrCat("hierarchy '", g_->cmh()->hierarchy(h).name, "'"));
    }
  }
  return Status::Ok();
}

Status Editor::Undo() {
  if (undo_.empty()) {
    return status::FailedPrecondition("nothing to undo");
  }
  Applied entry = std::move(undo_.back());
  undo_.pop_back();
  switch (entry.kind) {
    case Applied::Kind::kInsert: {
      CXML_RETURN_IF_ERROR(g_->RemoveElement(entry.node));
      delta_.Touch();
      break;
    }
    case Applied::Kind::kRemove: {
      CXML_ASSIGN_OR_RETURN(
          NodeId node,
          g_->InsertElement(entry.op.hierarchy, entry.op.tag,
                            entry.op.attrs, entry.op.chars));
      entry.node = node;
      delta_.Touch();
      break;
    }
    case Applied::Kind::kSetAttribute: {
      std::string current;
      const std::string* cur = g_->FindAttribute(entry.node,
                                                 entry.attr_name);
      bool had_current = cur != nullptr;
      if (cur != nullptr) current = *cur;
      if (entry.had_old_value) {
        g_->SetAttribute(entry.node, entry.attr_name, entry.old_value);
      } else {
        g_->RemoveAttribute(entry.node, entry.attr_name);
      }
      entry.had_old_value = had_current;
      entry.old_value = std::move(current);
      break;
    }
  }
  redo_.push_back(std::move(entry));
  return Status::Ok();
}

Status Editor::Redo() {
  if (redo_.empty()) {
    return status::FailedPrecondition("nothing to redo");
  }
  Applied entry = std::move(redo_.back());
  redo_.pop_back();
  switch (entry.kind) {
    case Applied::Kind::kInsert: {
      CXML_ASSIGN_OR_RETURN(
          NodeId node,
          g_->InsertElement(entry.op.hierarchy, entry.op.tag,
                            entry.op.attrs, entry.op.chars));
      entry.node = node;
      delta_.Touch();
      break;
    }
    case Applied::Kind::kRemove: {
      CXML_RETURN_IF_ERROR(g_->RemoveElement(entry.node));
      delta_.Touch();
      break;
    }
    case Applied::Kind::kSetAttribute: {
      std::string current;
      const std::string* cur = g_->FindAttribute(entry.node,
                                                 entry.attr_name);
      bool had_current = cur != nullptr;
      if (cur != nullptr) current = *cur;
      if (entry.had_old_value) {
        g_->SetAttribute(entry.node, entry.attr_name, entry.old_value);
      } else {
        g_->RemoveAttribute(entry.node, entry.attr_name);
      }
      entry.had_old_value = had_current;
      entry.old_value = std::move(current);
      break;
    }
  }
  undo_.push_back(std::move(entry));
  return Status::Ok();
}

}  // namespace cxml::edit
