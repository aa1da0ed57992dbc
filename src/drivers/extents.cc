#include "drivers/extents.h"

#include <algorithm>

#include "common/strings.h"

namespace cxml::drivers {

Result<goddag::Goddag> BuildGoddagFromExtents(
    const cmh::ConcurrentHierarchies& cmh, std::string content,
    std::vector<LogicalElement> elements) {
  goddag::Goddag g(std::move(content), cmh.size(), cmh.root_tag());
  g.BindCmh(&cmh);
  // Outermost-first, stable: equal extents keep input (document) order,
  // so outer fragments re-nest outside inner ones.
  std::stable_sort(elements.begin(), elements.end(),
                   [](const LogicalElement& a, const LogicalElement& b) {
                     if (a.chars.begin != b.chars.begin) {
                       return a.chars.begin < b.chars.begin;
                     }
                     return a.chars.end > b.chars.end;
                   });
  for (LogicalElement& el : elements) {
    if (el.hierarchy == cmh::kInvalidHierarchy) {
      return status::ValidationError(
          StrCat("element '", el.tag, "' belongs to no hierarchy"));
    }
    auto inserted = g.InsertElement(el.hierarchy, el.tag,
                                    std::move(el.attrs), el.chars);
    if (!inserted.ok()) {
      return inserted.status().WithContext(
          StrCat("reconstructing '", el.tag, "'"));
    }
  }
  g.CompactPools();
  return g;
}

std::vector<LogicalElement> ExtractExtents(const goddag::Goddag& g) {
  std::vector<LogicalElement> out;
  for (goddag::NodeId node : g.AllElements()) {
    LogicalElement el;
    el.hierarchy = g.hierarchy(node);
    el.tag = g.tag(node);
    Span<xml::Attribute> attrs = g.attributes(node);
    el.attrs.assign(attrs.begin(), attrs.end());
    el.chars = g.char_range(node);
    out.push_back(std::move(el));
  }
  return out;
}

}  // namespace cxml::drivers
