#include "sacx/goddag_handler.h"

#include "common/strings.h"

namespace cxml::sacx {

using goddag::Goddag;
using goddag::NodeId;
using goddag::NodeKind;

GoddagHandler::GoddagHandler(const cmh::ConcurrentHierarchies& cmh)
    : cmh_(&cmh) {}

Status GoddagHandler::StartDocument(std::string_view root_tag) {
  g_ = std::make_unique<Goddag>(std::string(), cmh_->size(),
                                std::string(root_tag));
  g_->BindCmh(cmh_);
  stacks_.assign(cmh_->size(), {g_->root()});
  content_.clear();
  return Status::Ok();
}

Status GoddagHandler::Characters(std::string_view text, size_t pos) {
  if (text.empty()) return Status::Ok();
  if (pos != content_.size()) {
    return status::Internal(StrFormat(
        "fragment at %zu, but content has %zu chars", pos, content_.size()));
  }
  content_ += text;
  NodeId leaf = g_->AllocNode(NodeKind::kLeaf);
  g_->chars_.Mutable(leaf) = Interval(pos, pos + text.size());
  g_->leaf_index_.Mutable(leaf) = static_cast<uint32_t>(g_->leaves_.size());
  g_->leaves_.push_back(leaf);
  // The leaf hangs off the innermost open node of every hierarchy.
  for (HierarchyId h = 0; h < g_->num_hierarchies(); ++h) {
    NodeId top = stacks_[h].back();
    g_->child_pool_.Append(&g_->ChildList(top, h), leaf);
    g_->MutableLeafParent(leaf, h) = top;
  }
  return Status::Ok();
}

Status GoddagHandler::StartElement(HierarchyId hierarchy,
                                   const xml::Event& event, size_t pos) {
  NodeId node = g_->AllocNode(NodeKind::kElement);
  g_->tag_.Mutable(node) = g_->InternTag(event.name);
  g_->hierarchy_.Mutable(node) = hierarchy;
  g_->attr_pool_.Replace(&g_->attrs_.Mutable(node), 0, 0,
                         event.attrs.begin(), event.attrs.size());
  g_->chars_.Mutable(node) = Interval(pos, pos);
  NodeId top = stacks_[hierarchy].back();
  g_->parent_.Mutable(node) = top;
  g_->child_pool_.Append(&g_->ChildList(top, hierarchy), node);
  ++g_->num_elements_;
  stacks_[hierarchy].push_back(node);
  return Status::Ok();
}

Status GoddagHandler::EndElement(HierarchyId hierarchy, std::string_view tag,
                                 size_t pos) {
  auto& stack = stacks_[hierarchy];
  if (stack.size() <= 1) {
    return status::Internal("end element with empty SACX stack");
  }
  NodeId node = stack.back();
  if (g_->tag(node) != tag) {
    return status::Internal(
        StrCat("SACX end tag '", std::string(tag), "' closes '",
               g_->tag(node), "'"));
  }
  g_->chars_.Mutable(node).end = pos;
  stack.pop_back();
  return Status::Ok();
}

Status GoddagHandler::EndDocument() {
  for (HierarchyId h = 0; h < g_->num_hierarchies(); ++h) {
    if (stacks_[h].size() != 1) {
      return status::Internal(StrFormat(
          "hierarchy %u has %zu unclosed elements at end of document", h,
          stacks_[h].size() - 1));
    }
  }
  g_->chars_.Mutable(g_->root()) = Interval(0, content_.size());
  g_->content_ = std::make_shared<const std::string>(std::move(content_));
  content_.clear();
  g_->CompactPools();
  finished_ = true;
  return Status::Ok();
}

Result<goddag::Goddag> GoddagHandler::Take() {
  if (!finished_ || g_ == nullptr) {
    return status::FailedPrecondition(
        "GoddagHandler::Take before a successful parse");
  }
  Goddag out = std::move(*g_);
  g_.reset();
  finished_ = false;
  return out;
}

Result<goddag::Goddag> ParseToGoddag(
    const cmh::ConcurrentHierarchies& cmh,
    const std::vector<std::string_view>& sources) {
  GoddagHandler handler(cmh);
  SacxParser parser;
  CXML_RETURN_IF_ERROR(parser.Parse(cmh, sources, &handler));
  return handler.Take();
}

}  // namespace cxml::sacx
