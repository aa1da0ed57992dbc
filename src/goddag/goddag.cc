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
    : content_(std::make_shared<const std::string>(std::move(content))),
      num_hierarchies_(num_hierarchies) {
  InternTag("");  // id 0: leaves
  root_ = AllocNode(NodeKind::kRoot);
  tag_.Mutable(root_) = InternTag(root_tag);
  chars_.Mutable(root_) = Interval(0, content_->size());
  root_children_.resize(num_hierarchies_);
  if (!content_->empty()) {
    NodeId leaf = AllocNode(NodeKind::kLeaf);
    chars_.Mutable(leaf) = Interval(0, content_->size());
    leaf_index_.Mutable(leaf) = 0;
    leaves_.push_back(leaf);
    for (HierarchyId h = 0; h < num_hierarchies_; ++h) {
      MutableLeafParent(leaf, h) = root_;
      child_pool_.Append(&root_children_[h], leaf);
    }
  }
}

NodeId Goddag::AllocNode(NodeKind kind) {
  NodeId id = static_cast<NodeId>(kind_.size());
  kind_.push_back(kind);
  tag_.push_back(0);
  hierarchy_.push_back(kInvalidHierarchy);
  attrs_.push_back(PoolSpan());
  parent_.push_back(kInvalidNode);
  children_.push_back(PoolSpan());
  chars_.push_back(Interval());
  leaf_index_.push_back(0);
  leaf_parents_.resize(leaf_parents_.size() + num_hierarchies_,
                       kInvalidNode);
  return id;
}

std::string& Goddag::MutableContent() {
  auto copy = std::make_shared<std::string>(*content_);
  std::string& out = *copy;
  content_ = std::move(copy);
  return out;
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
  const PoolSpan& attrs = attrs_[node];
  Span<xml::Attribute> current = attr_pool_.View(attrs);
  for (size_t i = 0; i < current.size(); ++i) {
    if (current[i].name == name) {
      attr_pool_.At(attrs, i).value = std::string(value);
      return;
    }
  }
  attr_pool_.Append(&attrs_.Mutable(node),
                    {std::string(name), std::string(value)});
}

void Goddag::RemoveAttribute(NodeId node, std::string_view name) {
  for (size_t i = attrs_[node].size; i-- > 0;) {
    if (attr_pool_.View(attrs_[node])[i].name == name) {
      attr_pool_.Erase(&attrs_.Mutable(node), i);
    }
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
  return std::string_view(*content_).substr(iv.begin, iv.length());
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
  for (size_t i = 0; i < leaves_.size(); ++i) {
    leaf_index_.Mutable(leaves_[i]) = static_cast<uint32_t>(i);
  }
}

namespace {

/// Goddag::Before as one flat key, so a sort compares contiguous keys
/// instead of reading the node arrays per comparison.
struct OrderKey {
  size_t begin;
  size_t end;
  int rank;  // root < element < leaf
  HierarchyId hierarchy;
  NodeId node;

  bool operator<(const OrderKey& o) const {
    if (begin != o.begin) return begin < o.begin;
    if (end != o.end) return end > o.end;  // container first
    if (rank != o.rank) return rank < o.rank;
    if (hierarchy != o.hierarchy) return hierarchy < o.hierarchy;
    return node < o.node;
  }
};

int KindRank(NodeKind kind) {
  switch (kind) {
    case NodeKind::kRoot:
      return 0;
    case NodeKind::kElement:
      return 1;
    case NodeKind::kLeaf:
      return 2;
  }
  return 3;
}

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
  // One pass over the node arrays, chunk by chunk: an element is
  // attached iff it has a parent (RemoveElement clears it).
  std::vector<OrderKey> keys;
  keys.reserve(num_elements_);
  kind_.ForEachChunk([&](size_t first, const NodeKind* kinds, size_t n) {
    const size_t c = first >> ChunkedArray<NodeKind>::kShift;
    const NodeId* parents = parent_.chunks().data(c);
    const Interval* chars = chars_.chunks().data(c);
    const HierarchyId* hierarchies = hierarchy_.chunks().data(c);
    for (size_t i = 0; i < n; ++i) {
      if (kinds[i] != NodeKind::kElement || parents[i] == kInvalidNode) {
        continue;
      }
      keys.push_back({chars[i].begin, chars[i].end, 1, hierarchies[i],
                      static_cast<NodeId>(first + i)});
    }
  });
  std::sort(keys.begin(), keys.end());
  std::vector<NodeId> out(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) out[i] = keys[i].node;
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
  const int rank_a = KindRank(kind_[a]);
  const int rank_b = KindRank(kind_[b]);
  if (rank_a != rank_b) return rank_a < rank_b;
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
  auto visit_all = [](ChunkedArray<PoolSpan>* lists, auto visit) {
    lists->ForEachChunkMutable([&](size_t, PoolSpan* data, size_t n) {
      for (size_t i = 0; i < n; ++i) visit(&data[i]);
    });
  };
  child_pool_.Repack([&](auto visit) {
    for (PoolSpan& list : root_children_) visit(&list);
    visit_all(&children_, visit);
  });
  attr_pool_.Repack([&](auto visit) { visit_all(&attrs_, visit); });
}

void Goddag::SortDocumentOrder(std::vector<NodeId>* nodes) const {
  std::vector<OrderKey> keys(nodes->size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const NodeId n = (*nodes)[i];
    keys[i] = {chars_[n].begin, chars_[n].end, KindRank(kind_[n]),
               hierarchy_[n], n};
  }
  std::sort(keys.begin(), keys.end());
  nodes->clear();
  for (const OrderKey& key : keys) {
    if (nodes->empty() || nodes->back() != key.node) {
      nodes->push_back(key.node);
    }
  }
}

}  // namespace cxml::goddag
