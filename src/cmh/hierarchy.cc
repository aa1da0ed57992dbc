#include "cmh/hierarchy.h"

#include <mutex>

#include "common/strings.h"

namespace cxml::cmh {

struct ConcurrentHierarchies::Compiled {
  std::once_flag once;
  Status status;
  std::vector<dtd::CompiledDtd> dtds;
};

ConcurrentHierarchies::ConcurrentHierarchies(std::string root_tag)
    : root_tag_(std::move(root_tag)),
      compiled_(std::make_shared<Compiled>()) {}

ConcurrentHierarchies::ConcurrentHierarchies(
    const ConcurrentHierarchies& other)
    : std::enable_shared_from_this<ConcurrentHierarchies>(other),
      root_tag_(other.root_tag_),
      hierarchies_(other.hierarchies_),
      element_owner_(other.element_owner_),
      compiled_(std::make_shared<Compiled>()) {}

Result<HierarchyId> ConcurrentHierarchies::AddHierarchy(std::string name,
                                                        dtd::Dtd dtd) {
  if (FindByName(name) != nullptr) {
    return status::AlreadyExists(
        StrCat("hierarchy '", name, "' already registered"));
  }
  // Vocabulary disjointness (modulo the shared root element).
  for (const auto& [element, decl] : dtd.elements()) {
    (void)decl;
    if (element == root_tag_) continue;
    auto it = element_owner_.find(element);
    if (it != element_owner_.end()) {
      return status::AlreadyExists(StrCat(
          "element '", element, "' already belongs to hierarchy '",
          hierarchies_[it->second].name, "'; hierarchies must partition ",
          "the markup language"));
    }
  }
  HierarchyId id = static_cast<HierarchyId>(hierarchies_.size());
  for (const auto& [element, decl] : dtd.elements()) {
    (void)decl;
    if (element != root_tag_) element_owner_.emplace(element, id);
  }
  Hierarchy h;
  h.id = id;
  h.name = std::move(name);
  h.dtd = std::move(dtd);
  hierarchies_.push_back(std::move(h));
  compiled_ = std::make_shared<Compiled>();
  return id;
}

const Hierarchy* ConcurrentHierarchies::FindByName(
    std::string_view name) const {
  for (const auto& h : hierarchies_) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

HierarchyId ConcurrentHierarchies::FindIdByName(std::string_view name) const {
  const Hierarchy* h = FindByName(name);
  return h == nullptr ? kInvalidHierarchy : h->id;
}

HierarchyId ConcurrentHierarchies::HierarchyOf(std::string_view tag) const {
  auto it = element_owner_.find(tag);
  return it == element_owner_.end() ? kInvalidHierarchy : it->second;
}

std::unique_ptr<ConcurrentHierarchies> ConcurrentHierarchies::Clone()
    const {
  return std::unique_ptr<ConcurrentHierarchies>(
      new ConcurrentHierarchies(*this));
}

Result<const std::vector<dtd::CompiledDtd>*>
ConcurrentHierarchies::CompiledAutomata() const {
  Compiled& compiled = *compiled_;
  std::call_once(compiled.once, [&] {
    auto all = CompileAll();
    if (all.ok()) {
      compiled.dtds = std::move(all).value();
    } else {
      compiled.status = all.status();
    }
  });
  if (!compiled.status.ok()) return compiled.status;
  return &compiled.dtds;
}

Result<std::vector<dtd::CompiledDtd>> ConcurrentHierarchies::CompileAll()
    const {
  std::vector<dtd::CompiledDtd> compiled;
  compiled.reserve(hierarchies_.size());
  for (const auto& h : hierarchies_) {
    auto c = dtd::CompiledDtd::Compile(h.dtd);
    if (!c.ok()) {
      return c.status().WithContext(
          StrCat("compiling hierarchy '", h.name, "'"));
    }
    compiled.push_back(std::move(c).value());
  }
  return compiled;
}

}  // namespace cxml::cmh
