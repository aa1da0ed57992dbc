#include "xml/writer.h"

#include "common/strings.h"
#include "xml/escape.h"

namespace cxml::xml {

XmlWriter::XmlWriter(Options options) : options_(options) {
  if (options_.declaration) {
    out_ += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
    if (options_.pretty) out_ += '\n';
    wrote_decl_ = true;
  }
}

void XmlWriter::MaybeIndent() {
  if (!options_.pretty || last_was_text_) return;
  if (!out_.empty() && out_.back() != '\n') out_ += '\n';
  out_.append(open_.size() * static_cast<size_t>(options_.indent), ' ');
}

void XmlWriter::WriteAttrs(Span<Attribute> attrs) {
  for (const auto& a : attrs) {
    out_ += ' ';
    out_ += a.name;
    out_ += "=\"";
    out_ += EscapeAttribute(a.value);
    out_ += '"';
  }
}

void XmlWriter::StartElement(std::string_view name, Span<Attribute> attrs) {
  MaybeIndent();
  out_ += '<';
  out_.append(name);
  WriteAttrs(attrs);
  out_ += '>';
  open_.emplace_back(name);
  last_was_text_ = false;
}

void XmlWriter::EmptyElement(std::string_view name, Span<Attribute> attrs) {
  MaybeIndent();
  out_ += '<';
  out_.append(name);
  WriteAttrs(attrs);
  out_ += "/>";
}

void XmlWriter::EndElement() {
  if (open_.empty()) return;  // Finish() reports the imbalance
  std::string name = std::move(open_.back());
  open_.pop_back();
  if (options_.pretty && !last_was_text_) {
    if (!out_.empty() && out_.back() != '\n') out_ += '\n';
    out_.append(open_.size() * static_cast<size_t>(options_.indent), ' ');
  }
  out_ += "</";
  out_ += name;
  out_ += '>';
  last_was_text_ = false;
}

void XmlWriter::Text(std::string_view text) {
  out_ += EscapeText(text);
  last_was_text_ = true;
}

void XmlWriter::CData(std::string_view text) {
  out_ += "<![CDATA[";
  out_.append(text);
  out_ += "]]>";
  last_was_text_ = true;
}

void XmlWriter::Comment(std::string_view text) {
  MaybeIndent();
  out_ += "<!--";
  out_.append(text);
  out_ += "-->";
}

void XmlWriter::ProcessingInstruction(std::string_view target,
                                      std::string_view data) {
  MaybeIndent();
  out_ += "<?";
  out_.append(target);
  if (!data.empty()) {
    out_ += ' ';
    out_.append(data);
  }
  out_ += "?>";
}

void XmlWriter::Doctype(std::string_view root,
                        std::string_view internal_subset) {
  MaybeIndent();
  out_ += "<!DOCTYPE ";
  out_.append(root);
  if (!internal_subset.empty()) {
    out_ += " [";
    out_.append(internal_subset);
    out_ += ']';
  }
  out_ += '>';
  if (options_.pretty) out_ += '\n';
}

Result<std::string> XmlWriter::Finish() {
  if (!open_.empty()) {
    return status::FailedPrecondition(
        StrCat("XmlWriter::Finish with unclosed element '", open_.back(),
               "'"));
  }
  return std::move(out_);
}

}  // namespace cxml::xml
