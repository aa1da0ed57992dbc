#ifndef CXML_SACX_GODDAG_HANDLER_H_
#define CXML_SACX_GODDAG_HANDLER_H_

#include <memory>
#include <vector>

#include "goddag/goddag.h"
#include "sacx/sacx.h"

namespace cxml::sacx {

/// SACX handler that assembles a GODDAG in a single streaming pass:
/// the merged event order *is* the GODDAG construction order — each
/// character fragment becomes one shared leaf, each start/end pair brackets
/// a subtree in its hierarchy. Memory never holds per-hierarchy DOMs,
/// which is SACX's advantage over the DOM-based goddag::Builder.
class GoddagHandler : public SacxHandler {
 public:
  /// `cmh` must outlive the handler and the produced Goddag.
  explicit GoddagHandler(const cmh::ConcurrentHierarchies& cmh);

  Status StartDocument(std::string_view root_tag) override;
  Status EndDocument() override;
  Status StartElement(HierarchyId hierarchy, const xml::Event& event,
                      size_t pos) override;
  Status EndElement(HierarchyId hierarchy, std::string_view tag,
                    size_t pos) override;
  Status Characters(std::string_view text, size_t pos) override;

  /// Takes the finished GODDAG; call exactly once after a successful
  /// SacxParser::Parse.
  Result<goddag::Goddag> Take();

 private:
  const cmh::ConcurrentHierarchies* cmh_;
  std::unique_ptr<goddag::Goddag> g_;
  /// The content read so far; the GODDAG gets it at EndDocument.
  std::string content_;
  /// Per-hierarchy stack of open nodes (bottom = root).
  std::vector<std::vector<goddag::NodeId>> stacks_;
  bool finished_ = false;
};

/// One-call convenience: SACX-parse `sources` into a GODDAG.
Result<goddag::Goddag> ParseToGoddag(
    const cmh::ConcurrentHierarchies& cmh,
    const std::vector<std::string_view>& sources);

}  // namespace cxml::sacx

#endif  // CXML_SACX_GODDAG_HANDLER_H_
