#ifndef CXML_XML_WRITER_H_
#define CXML_XML_WRITER_H_

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/span.h"
#include "xml/token.h"

namespace cxml::xml {

/// Streaming XML serializer with correct escaping and optional
/// pretty-printing. Used by the DOM serializer and all export drivers.
///
/// Pretty-printing is *markup-safe* for document-centric XML: indentation
/// is only inserted where a text node does not abut, so content offsets of
/// mixed content are never altered when `pretty=false` (the default for
/// drivers, where byte-exact round-trips matter).
class XmlWriter {
 public:
  struct Options {
    bool pretty = false;
    /// Spaces per indentation level when pretty-printing.
    int indent = 2;
    /// Emit an `<?xml version="1.0" encoding="UTF-8"?>` declaration.
    bool declaration = false;
  };

  XmlWriter() = default;
  explicit XmlWriter(Options options);

  /// Opens `<name ...>`. Attributes are escaped.
  void StartElement(std::string_view name, Span<Attribute> attrs = {});
  void StartElement(std::string_view name,
                    std::initializer_list<Attribute> attrs) {
    StartElement(name, Span<Attribute>(attrs.begin(), attrs.size()));
  }
  /// Writes `<name .../>`.
  void EmptyElement(std::string_view name, Span<Attribute> attrs = {});
  void EmptyElement(std::string_view name,
                    std::initializer_list<Attribute> attrs) {
    EmptyElement(name, Span<Attribute>(attrs.begin(), attrs.size()));
  }
  /// Closes the innermost open element.
  void EndElement();
  /// Writes escaped character data.
  void Text(std::string_view text);
  /// Writes a raw CDATA section (text must not contain "]]>").
  void CData(std::string_view text);
  void Comment(std::string_view text);
  void ProcessingInstruction(std::string_view target, std::string_view data);
  /// Writes a DOCTYPE with optional raw internal subset.
  void Doctype(std::string_view root, std::string_view internal_subset = {});

  /// Finishes and returns the document. Fails if elements remain open.
  Result<std::string> Finish();

  /// The buffer so far (for incremental inspection in tests).
  const std::string& buffer() const { return out_; }

 private:
  void MaybeIndent();
  void WriteAttrs(Span<Attribute> attrs);

  Options options_;
  std::string out_;
  std::vector<std::string> open_;
  bool wrote_decl_ = false;
  /// True when the last output at the current depth was character data, in
  /// which case pretty-printing must not inject whitespace.
  bool last_was_text_ = false;
};

}  // namespace cxml::xml

#endif  // CXML_XML_WRITER_H_
