#include "workflows/json_io.hpp"

#include <map>
#include <stdexcept>

#include "graph/topology.hpp"
#include "support/json.hpp"

namespace dagpm::workflows {

using graph::Dag;
using graph::VertexId;
using support::JsonArray;
using support::JsonObject;
using support::JsonValue;

namespace {

void setError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

/// Native dialect: top-level "tasks" + "edges".
std::optional<Dag> fromNative(const JsonValue& root, std::string* error) {
  const JsonValue* tasks = root.find("tasks");
  if (tasks == nullptr || !tasks->isArray()) {
    setError(error, "missing 'tasks' array");
    return std::nullopt;
  }
  Dag g;
  std::map<std::string, VertexId> byName;
  for (const JsonValue& task : tasks->asArray()) {
    if (!task.isObject()) {
      setError(error, "task is not an object");
      return std::nullopt;
    }
    const std::string name = task.stringOr("name", "");
    if (name.empty()) {
      setError(error, "task without a name");
      return std::nullopt;
    }
    if (byName.count(name) > 0) {
      setError(error, "duplicate task name: " + name);
      return std::nullopt;
    }
    byName[name] = g.addVertex(task.numberOr("work", 1.0),
                               task.numberOr("memory", 1.0),
                               task.stringOr("label", name));
  }
  if (const JsonValue* edges = root.find("edges"); edges != nullptr) {
    if (!edges->isArray()) {
      setError(error, "'edges' is not an array");
      return std::nullopt;
    }
    for (const JsonValue& edge : edges->asArray()) {
      const std::string from = edge.stringOr("from", "");
      const std::string to = edge.stringOr("to", "");
      const auto uIt = byName.find(from);
      const auto vIt = byName.find(to);
      if (uIt == byName.end() || vIt == byName.end()) {
        setError(error, "edge references unknown task: " + from + " -> " + to);
        return std::nullopt;
      }
      if (uIt->second == vIt->second) {
        setError(error, "self-loop on task " + from);
        return std::nullopt;
      }
      g.addEdge(uIt->second, vIt->second, edge.numberOr("cost", 1.0));
    }
  }
  return g;
}

/// WfCommons-style: "workflow"."tasks" with "parents" lists; costs from the
/// sum of input file sizes, split evenly across parents (the format ties
/// files to tasks, not to edges), defaulting to 1.
std::optional<Dag> fromWfCommons(const JsonValue& root, std::string* error) {
  const JsonValue* workflow = root.find("workflow");
  const JsonValue* tasks =
      workflow != nullptr ? workflow->find("tasks") : nullptr;
  if (tasks == nullptr || !tasks->isArray()) {
    setError(error, "missing 'workflow.tasks' array");
    return std::nullopt;
  }
  Dag g;
  std::map<std::string, VertexId> byName;
  for (const JsonValue& task : tasks->asArray()) {
    const std::string name = task.stringOr("name", "");
    if (name.empty() || byName.count(name) > 0) {
      setError(error, "missing or duplicate task name");
      return std::nullopt;
    }
    byName[name] = g.addVertex(task.numberOr("runtime", 1.0),
                               task.numberOr("memory", 1.0), name);
  }
  for (const JsonValue& task : tasks->asArray()) {
    const VertexId v = byName[task.stringOr("name", "")];
    const JsonValue* parents = task.find("parents");
    if (parents == nullptr || !parents->isArray()) continue;
    // Sum of input file sizes, if present, spread evenly over the parents.
    double inputSize = 0.0;
    if (const JsonValue* files = task.find("files");
        files != nullptr && files->isArray()) {
      for (const JsonValue& file : files->asArray()) {
        if (file.stringOr("link", "") == "input") {
          inputSize += file.numberOr("size", 0.0);
        }
      }
    }
    const double perParent =
        parents->asArray().empty()
            ? 0.0
            : inputSize / static_cast<double>(parents->asArray().size());
    for (const JsonValue& parent : parents->asArray()) {
      if (!parent.isString()) continue;
      const auto it = byName.find(parent.asString());
      if (it == byName.end()) {
        setError(error, "unknown parent: " + parent.asString());
        return std::nullopt;
      }
      g.addEdge(it->second, v, perParent > 0.0 ? perParent : 1.0);
    }
  }
  return g;
}

}  // namespace

std::optional<Dag> workflowFromJson(const std::string& text,
                                    std::string* error) {
  std::string parseError;
  const auto root = support::parseJsonWithError(text, &parseError);
  if (!root) {
    setError(error, "JSON parse error: " + parseError);
    return std::nullopt;
  }
  if (!root->isObject()) {
    setError(error, "top-level JSON value must be an object");
    return std::nullopt;
  }
  std::optional<Dag> g;
  try {
    g = root->find("workflow") != nullptr ? fromWfCommons(*root, error)
                                          : fromNative(*root, error);
  } catch (const std::invalid_argument& e) {
    // graph::Dag rejects negative weights.
    setError(error, e.what());
    return std::nullopt;
  }
  if (!g) return std::nullopt;
  if (!graph::isAcyclic(*g)) {
    setError(error, "workflow contains a dependency cycle");
    return std::nullopt;
  }
  return g;
}

std::string workflowToJson(const graph::Dag& g, const std::string& name) {
  // Task *names* must be unique for edge references; workflow labels often
  // repeat ("blastall" x1000), so names are synthesized from vertex ids and
  // the human label travels separately.
  auto nameOf = [](VertexId v) { return "t" + std::to_string(v); };
  JsonArray tasks;
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    JsonObject task;
    task.emplace("name", JsonValue(nameOf(v)));
    if (!g.label(v).empty()) task.emplace("label", JsonValue(g.label(v)));
    task.emplace("work", JsonValue(g.work(v)));
    task.emplace("memory", JsonValue(g.memory(v)));
    tasks.emplace_back(std::move(task));
  }
  JsonArray edges;
  for (graph::EdgeId e = 0; e < g.numEdges(); ++e) {
    JsonObject edge;
    edge.emplace("from", JsonValue(nameOf(g.edge(e).src)));
    edge.emplace("to", JsonValue(nameOf(g.edge(e).dst)));
    edge.emplace("cost", JsonValue(g.edge(e).cost));
    edges.emplace_back(std::move(edge));
  }
  JsonObject root;
  root.emplace("name", JsonValue(name));
  root.emplace("tasks", JsonValue(std::move(tasks)));
  root.emplace("edges", JsonValue(std::move(edges)));
  return JsonValue(std::move(root)).dump(2);
}

}  // namespace dagpm::workflows
