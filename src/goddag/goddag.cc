#include "goddag/goddag.h"

#include <algorithm>

#include "common/strings.h"

namespace cxml::goddag {

const char* NodeKindToString(NodeKind kind) {
  switch (kind) {
    case NodeKind::kRoot:
      return "Root";
    case NodeKind::kElement:
      return "Element";
    case NodeKind::kLeaf:
      return "Leaf";
  }
  return "Unknown";
}

Goddag::Goddag(std::string content, size_t num_hierarchies,
               std::string root_tag)
    : content_(std::move(content)), num_hierarchies_(num_hierarchies) {
  InternTag("");  // id 0: leaves
  root_ = AllocNode(NodeKind::kRoot);
  tag_[root_] = InternTag(root_tag);
  chars_[root_] = Interval(0, content_.size());
  root_children_.resize(num_hierarchies_);
  if (!content_.empty()) {
    NodeId leaf = AllocNode(NodeKind::kLeaf);
    chars_[leaf] = Interval(0, content_.size());
    leaf_index_[leaf] = 0;
    leaves_.push_back(leaf);
    for (HierarchyId h = 0; h < num_hierarchies_; ++h) {
      LeafParent(leaf, h) = root_;
      child_pool_.Append(&root_children_[h], leaf);
    }
  }
}

NodeId Goddag::AllocNode(NodeKind kind) {
  NodeId id = static_cast<NodeId>(kind_.size());
  kind_.push_back(kind);
  tag_.push_back(0);
  hierarchy_.push_back(kInvalidHierarchy);
  attrs_.emplace_back();
  parent_.push_back(kInvalidNode);
  children_.emplace_back();
  chars_.emplace_back();
  leaf_index_.push_back(0);
  leaf_parents_.resize(leaf_parents_.size() + num_hierarchies_,
                       kInvalidNode);
  return id;
}

uint32_t Goddag::InternTag(std::string_view tag) {
  auto it = std::lower_bound(
      tag_order_.begin(), tag_order_.end(), tag,
      [this](uint32_t id, std::string_view t) { return tag_names_[id] < t; });
  if (it != tag_order_.end() && tag_names_[*it] == tag) return *it;
  uint32_t id = static_cast<uint32_t>(tag_names_.size());
  tag_names_.emplace_back(tag);
  tag_order_.insert(it, id);
  return id;
}

const std::string* Goddag::FindAttribute(NodeId node,
                                         std::string_view name) const {
  for (const auto& a : attributes(node)) {
    if (a.name == name) return &a.value;
  }
  return nullptr;
}

void Goddag::SetAttribute(NodeId node, std::string_view name,
                          std::string_view value) {
  PoolSpan& attrs = attrs_[node];
  for (size_t i = 0; i < attrs.size; ++i) {
    xml::Attribute& a = attr_pool_.At(attrs, i);
    if (a.name == name) {
      a.value = std::string(value);
      return;
    }
  }
  attr_pool_.Append(&attrs, {std::string(name), std::string(value)});
}

void Goddag::RemoveAttribute(NodeId node, std::string_view name) {
  PoolSpan& attrs = attrs_[node];
  for (size_t i = attrs.size; i-- > 0;) {
    if (attr_pool_.At(attrs, i).name == name) attr_pool_.Erase(&attrs, i);
  }
}

Interval Goddag::char_range(NodeId node) const { return chars_[node]; }

Interval Goddag::leaf_range(NodeId node) const {
  if (is_leaf(node)) {
    size_t i = leaf_index_[node];
    return Interval(i, i + 1);
  }
  return LeavesCovering(chars_[node]);
}

std::string_view Goddag::text(NodeId node) const {
  const Interval& iv = chars_[node];
  return std::string_view(content_).substr(iv.begin, iv.length());
}

NodeId Goddag::leaf_parent(NodeId leaf, HierarchyId h) const {
  return leaf_parents_[leaf * num_hierarchies_ + h];
}

NodeId Goddag::parent_in(NodeId node, HierarchyId h) const {
  switch (kind_[node]) {
    case NodeKind::kRoot:
      return kInvalidNode;
    case NodeKind::kElement:
      return hierarchy_[node] == h ? parent_[node] : kInvalidNode;
    case NodeKind::kLeaf:
      return leaf_parent(node, h);
  }
  return kInvalidNode;
}

size_t Goddag::LeafIndexAtOffset(size_t offset) const {
  // First leaf whose end exceeds offset.
  size_t lo = 0, hi = leaves_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (chars_[leaves_[mid]].end <= offset) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Interval Goddag::LeavesCovering(const Interval& chars) const {
  if (leaves_.empty()) return Interval(0, 0);
  if (chars.empty()) {
    // First leaf starting at or after the position.
    size_t i = LeafIndexAtOffset(chars.begin);
    if (i < leaves_.size() && chars_[leaves_[i]].begin < chars.begin) ++i;
    return Interval(i, i);
  }
  size_t first = LeafIndexAtOffset(chars.begin);
  size_t last = LeafIndexAtOffset(chars.end - 1);
  return Interval(first, std::min(last + 1, leaves_.size()));
}

void Goddag::RenumberLeaves() {
  for (size_t i = 0; i < leaves_.size(); ++i) leaf_index_[leaves_[i]] = i;
}

namespace {

void CollectPreorder(const Goddag& g, NodeId node, std::vector<NodeId>* out) {
  if (!g.is_element(node)) return;
  out->push_back(node);
  for (NodeId child : g.children(node)) CollectPreorder(g, child, out);
}

}  // namespace

std::vector<NodeId> Goddag::ElementsOf(HierarchyId h) const {
  std::vector<NodeId> out;
  for (NodeId child : root_children(h)) CollectPreorder(*this, child, &out);
  return out;
}

std::vector<NodeId> Goddag::AllElements() const {
  std::vector<NodeId> out;
  out.reserve(num_elements_);
  for (HierarchyId h = 0; h < num_hierarchies_; ++h) {
    for (NodeId child : root_children(h)) {
      CollectPreorder(*this, child, &out);
    }
  }
  SortDocumentOrder(&out);
  return out;
}

std::vector<NodeId> Goddag::ElementsByTag(std::string_view tag,
                                          HierarchyId h) const {
  std::vector<NodeId> out;
  if (h != kInvalidHierarchy) {
    for (NodeId node : ElementsOf(h)) {
      if (this->tag(node) == tag) out.push_back(node);
    }
    return out;
  }
  for (NodeId node : AllElements()) {
    if (this->tag(node) == tag) out.push_back(node);
  }
  return out;
}

bool Goddag::Before(NodeId a, NodeId b) const {
  if (a == b) return false;
  const Interval& ia = chars_[a];
  const Interval& ib = chars_[b];
  if (ia.begin != ib.begin) return ia.begin < ib.begin;
  if (ia.end != ib.end) return ia.end > ib.end;  // container first
  auto rank = [&](NodeId n) -> int {
    switch (kind_[n]) {
      case NodeKind::kRoot:
        return 0;
      case NodeKind::kElement:
        return 1;
      case NodeKind::kLeaf:
        return 2;
    }
    return 3;
  };
  if (rank(a) != rank(b)) return rank(a) < rank(b);
  if (hierarchy_[a] != hierarchy_[b]) return hierarchy_[a] < hierarchy_[b];
  return a < b;
}

Goddag Goddag::Clone(const cmh::ConcurrentHierarchies* cmh) const {
  Goddag copy(*this);
  if (cmh != nullptr) copy.cmh_ = cmh;
  return copy;
}

void Goddag::CompactPools() {
  // Root lists first, then every node's list in slot order.
  child_pool_.Repack([this](auto visit) {
    for (PoolSpan& list : root_children_) visit(&list);
    for (PoolSpan& list : children_) visit(&list);
  });
  attr_pool_.Repack([this](auto visit) {
    for (PoolSpan& list : attrs_) visit(&list);
  });
}

void Goddag::SortDocumentOrder(std::vector<NodeId>* nodes) const {
  std::sort(nodes->begin(), nodes->end(),
            [this](NodeId a, NodeId b) { return Before(a, b); });
  nodes->erase(std::unique(nodes->begin(), nodes->end()), nodes->end());
}

}  // namespace cxml::goddag
