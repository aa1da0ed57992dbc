#include "xpath/engine.h"

namespace cxml::xpath {

Result<Value> XPathEngine::Evaluate(std::string_view expression) {
  CXML_ASSIGN_OR_RETURN(CompiledQueryPtr query, Compile(expression));
  return Evaluate(*query);
}

Result<Value> XPathEngine::EvaluateFrom(std::string_view expression,
                                        goddag::NodeId context) {
  CXML_ASSIGN_OR_RETURN(CompiledQueryPtr query, Compile(expression));
  return EvaluateFrom(*query, context);
}

Result<std::vector<goddag::NodeId>> XPathEngine::SelectNodes(
    std::string_view expression) {
  CXML_ASSIGN_OR_RETURN(Value value, Evaluate(expression));
  if (!value.is_node_set()) {
    return status::InvalidArgument(
        "XPath: expression does not evaluate to a node-set");
  }
  std::vector<goddag::NodeId> out;
  out.reserve(value.nodes().size());
  for (const NodeEntry& e : value.nodes()) {
    if (!e.is_document()) out.push_back(e.node);
  }
  return out;
}

namespace {

Result<std::vector<std::string>> RenderValue(const goddag::Goddag& g,
                                             Result<Value> value) {
  CXML_RETURN_IF_ERROR(value.status());
  std::vector<std::string> out;
  if (value->is_node_set()) {
    out.reserve(value->nodes().size());
    for (const NodeEntry& e : value->nodes()) {
      out.push_back(Value::StringValue(g, e));
    }
  } else {
    out.push_back(value->ToString(g));
  }
  return out;
}

}  // namespace

Result<std::vector<std::string>> XPathEngine::EvaluateToStrings(
    std::string_view expression) {
  return RenderValue(*g_, Evaluate(expression));
}

Result<std::vector<std::string>> XPathEngine::EvaluateToStrings(
    const CompiledQuery& query) {
  return RenderValue(*g_, Evaluate(query));
}

}  // namespace cxml::xpath
