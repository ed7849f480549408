// Tests for the JSON parser/writer, the WfCommons-style workflow
// interchange, and malformed-input coverage of the DOT and JSON readers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "graph/dot_io.hpp"
#include "graph/topology.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "workflows/families.hpp"
#include "workflows/json_io.hpp"

namespace dagpm {
namespace {

using support::JsonValue;
using support::parseJson;

// ------------------------------------------------------------------- parser

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parseJson("null")->isNull());
  EXPECT_TRUE(parseJson("true")->asBool());
  EXPECT_FALSE(parseJson("false")->asBool());
  EXPECT_DOUBLE_EQ(parseJson("3.5")->asNumber(), 3.5);
  EXPECT_DOUBLE_EQ(parseJson("-17")->asNumber(), -17.0);
  EXPECT_DOUBLE_EQ(parseJson("1e3")->asNumber(), 1000.0);
  EXPECT_EQ(parseJson("\"hi\"")->asString(), "hi");
}

TEST(Json, ParsesEscapes) {
  const auto v = parseJson(R"("a\"b\\c\ndA")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->asString(), "a\"b\\c\ndA");
}

TEST(Json, ParsesNestedStructures) {
  const auto v = parseJson(R"({"a": [1, {"b": true}, null], "c": {}})");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->isObject());
  const JsonValue* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->isArray());
  EXPECT_EQ(a->asArray().size(), 3u);
  EXPECT_TRUE(a->asArray()[1].find("b")->asBool());
  EXPECT_TRUE(a->asArray()[2].isNull());
  EXPECT_TRUE(v->find("c")->isObject());
}

TEST(Json, RejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(support::parseJsonWithError("{", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parseJson("[1,]").has_value());
  EXPECT_FALSE(parseJson("{\"a\" 1}").has_value());
  EXPECT_FALSE(parseJson("\"unterminated").has_value());
  EXPECT_FALSE(parseJson("12 34").has_value());  // trailing characters
  EXPECT_FALSE(parseJson("nul").has_value());
}

TEST(Json, DumpRoundTrips) {
  const std::string doc =
      R"({"num": 1.5, "int": 7, "str": "x,\"y\"", "arr": [1, 2], )"
      R"("obj": {"k": false}})";
  const auto v = parseJson(doc);
  ASSERT_TRUE(v.has_value());
  const auto again = parseJson(v->dump(2));
  ASSERT_TRUE(again.has_value());
  EXPECT_DOUBLE_EQ(again->find("num")->asNumber(), 1.5);
  EXPECT_DOUBLE_EQ(again->find("int")->asNumber(), 7.0);
  EXPECT_EQ(again->find("str")->asString(), "x,\"y\"");
  EXPECT_EQ(again->find("arr")->asArray().size(), 2u);
  EXPECT_FALSE(again->find("obj")->find("k")->asBool());
}

TEST(Json, TypedGettersWithFallbacks) {
  const auto v = parseJson(R"({"n": 2, "s": "t"})");
  EXPECT_DOUBLE_EQ(v->numberOr("n", 0.0), 2.0);
  EXPECT_DOUBLE_EQ(v->numberOr("missing", 9.0), 9.0);
  EXPECT_DOUBLE_EQ(v->numberOr("s", 9.0), 9.0);  // wrong type -> fallback
  EXPECT_EQ(v->stringOr("s", ""), "t");
  EXPECT_EQ(v->stringOr("n", "fb"), "fb");
}

// ------------------------------------------------------------ workflow JSON

TEST(WorkflowJson, NativeDialectParses) {
  const auto g = workflows::workflowFromJson(R"({
    "name": "demo",
    "tasks": [
      {"name": "a", "work": 2, "memory": 3},
      {"name": "b", "work": 4, "memory": 5}
    ],
    "edges": [ {"from": "a", "to": "b", "cost": 6} ]
  })");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->numVertices(), 2u);
  EXPECT_EQ(g->numEdges(), 1u);
  EXPECT_DOUBLE_EQ(g->work(0), 2.0);
  EXPECT_DOUBLE_EQ(g->memory(1), 5.0);
  EXPECT_DOUBLE_EQ(g->edge(0).cost, 6.0);
}

TEST(WorkflowJson, WfCommonsDialectParses) {
  const auto g = workflows::workflowFromJson(R"({
    "name": "wfc",
    "workflow": { "tasks": [
      {"name": "p", "runtime": 10, "memory": 4},
      {"name": "c", "runtime": 20, "memory": 8, "parents": ["p"],
       "files": [ {"link": "input", "size": 42},
                  {"link": "output", "size": 7} ]}
    ]}
  })");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->numVertices(), 2u);
  ASSERT_EQ(g->numEdges(), 1u);
  EXPECT_DOUBLE_EQ(g->work(0), 10.0);
  EXPECT_DOUBLE_EQ(g->edge(0).cost, 42.0);  // input size onto the edge
}

TEST(WorkflowJson, WfCommonsMultipleParentsSplitInputSize) {
  const auto g = workflows::workflowFromJson(R"({
    "workflow": { "tasks": [
      {"name": "p1"}, {"name": "p2"},
      {"name": "c", "parents": ["p1", "p2"],
       "files": [ {"link": "input", "size": 10} ]}
    ]}
  })");
  ASSERT_TRUE(g.has_value());
  ASSERT_EQ(g->numEdges(), 2u);
  EXPECT_DOUBLE_EQ(g->edge(0).cost, 5.0);
  EXPECT_DOUBLE_EQ(g->edge(1).cost, 5.0);
}

TEST(WorkflowJson, RejectsBrokenWorkflows) {
  std::string error;
  EXPECT_FALSE(workflows::workflowFromJson("{}", &error).has_value());
  EXPECT_NE(error.find("tasks"), std::string::npos);
  // Unknown edge endpoint.
  EXPECT_FALSE(workflows::workflowFromJson(
                   R"({"tasks":[{"name":"a"}],
                       "edges":[{"from":"a","to":"zz"}]})",
                   &error)
                   .has_value());
  // Duplicate names.
  EXPECT_FALSE(workflows::workflowFromJson(
                   R"({"tasks":[{"name":"a"},{"name":"a"}]})", &error)
                   .has_value());
  // Cycle.
  EXPECT_FALSE(workflows::workflowFromJson(
                   R"({"tasks":[{"name":"a"},{"name":"b"}],
                       "edges":[{"from":"a","to":"b"},
                                {"from":"b","to":"a"}]})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("cycle"), std::string::npos);
}

TEST(WorkflowJson, RejectsNegativeWeights) {
  std::string error;
  EXPECT_FALSE(workflows::workflowFromJson(
                   R"({"tasks":[{"name":"a","work":-1}]})", &error)
                   .has_value());
  EXPECT_NE(error.find("non-negative"), std::string::npos) << error;
  EXPECT_FALSE(workflows::workflowFromJson(
                   R"({"tasks":[{"name":"a"},{"name":"b"}],
                       "edges":[{"from":"a","to":"b","cost":-2}]})",
                   &error)
                   .has_value());
}

TEST(WorkflowJson, RoundTripPreservesGeneratedWorkflow) {
  workflows::GenConfig cfg;
  cfg.numTasks = 80;
  const graph::Dag original =
      workflows::generate(workflows::Family::kMontage, cfg);
  const std::string json = workflows::workflowToJson(original, "montage");
  const auto parsed = workflows::workflowFromJson(json);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->numVertices(), original.numVertices());
  ASSERT_EQ(parsed->numEdges(), original.numEdges());
  for (graph::VertexId v = 0; v < original.numVertices(); ++v) {
    EXPECT_DOUBLE_EQ(parsed->work(v), original.work(v));
    EXPECT_DOUBLE_EQ(parsed->memory(v), original.memory(v));
    EXPECT_EQ(parsed->label(v), original.label(v));
  }
  // Edge multiset must match (ids may be reordered).
  auto edgeKey = [](const graph::Dag& g, graph::EdgeId e) {
    return std::make_tuple(g.edge(e).src, g.edge(e).dst, g.edge(e).cost);
  };
  std::vector<std::tuple<graph::VertexId, graph::VertexId, double>> a, b;
  for (graph::EdgeId e = 0; e < original.numEdges(); ++e) {
    a.push_back(edgeKey(original, e));
    b.push_back(edgeKey(*parsed, e));
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

// ------------------------------------------------ reader mutation coverage

using Reader = std::optional<graph::Dag> (*)(const std::string&);

/// Feeds `reader` every prefix truncation of `text` plus `substitutions`
/// seeded copies with 1-4 bytes replaced (half by arbitrary bytes, half by
/// syntax characters, so some mutants get past the tokenizer). Every input
/// must be rejected or parse to a valid Dag; nothing may throw.
void expectRejectOrValid(const std::string& text, Reader reader,
                         int substitutions) {
  std::size_t throws = 0;
  std::string firstThrow;
  const auto check = [&](const std::string& input) {
    std::optional<graph::Dag> g;
    try {
      g = reader(input);
    } catch (...) {
      if (throws++ == 0) firstThrow = input;
      return;
    }
    if (!g) return;
    EXPECT_TRUE(graph::isAcyclic(*g)) << input;
    for (graph::VertexId v = 0; v < g->numVertices(); ++v) {
      EXPECT_TRUE(std::isfinite(g->work(v)) && g->work(v) >= 0.0) << input;
      EXPECT_TRUE(std::isfinite(g->memory(v)) && g->memory(v) >= 0.0)
          << input;
    }
    for (graph::EdgeId e = 0; e < g->numEdges(); ++e) {
      const graph::Edge& edge = g->edge(e);
      EXPECT_NE(edge.src, edge.dst) << input;
      EXPECT_TRUE(std::isfinite(edge.cost) && edge.cost >= 0.0) << input;
    }
  };

  for (std::size_t len = 0; len <= text.size(); ++len) {
    check(text.substr(0, len));
  }
  constexpr std::string_view kSyntax = "{}[]\",:;=->.eE+0123456789 \n\\";
  support::Rng rng(0x5eed);
  const auto pick = [&rng](std::size_t n) {  // uniform in [0, n)
    return static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
  };
  for (int m = 0; m < substitutions; ++m) {
    std::string mutant = text;
    const std::size_t bytes = 1 + pick(4);
    for (std::size_t b = 0; b < bytes; ++b) {
      const std::size_t pos = pick(text.size());
      if (m % 2 == 0) {
        mutant[pos] = static_cast<char>(pick(256));
      } else {
        mutant[pos] = kSyntax[pick(kSyntax.size())];
      }
    }
    check(mutant);
  }
  EXPECT_EQ(throws, 0u) << "first throwing input:\n" << firstThrow;
}

graph::Dag mutationSource() {
  workflows::GenConfig cfg;
  cfg.numTasks = 24;
  cfg.seed = 7;
  return workflows::generate(workflows::Family::kMontage, cfg);
}

/// The JSON reader with its error channel on, so rejections format their
/// messages too.
std::optional<graph::Dag> readJsonReportingErrors(const std::string& text) {
  std::string error;
  return workflows::workflowFromJson(text, &error);
}

TEST(ReaderMutation, DotPrefixesAndSubstitutionsNeverThrow) {
  const std::string dot = graph::toDot(mutationSource());
  ASSERT_TRUE(graph::dagFromDot(dot).has_value());
  expectRejectOrValid(dot, graph::dagFromDot, 10000);
}

TEST(ReaderMutation, JsonPrefixesAndSubstitutionsNeverThrow) {
  const std::string json =
      workflows::workflowToJson(mutationSource(), "montage");
  ASSERT_TRUE(workflows::workflowFromJson(json).has_value());
  expectRejectOrValid(json, readJsonReportingErrors, 10000);
}

}  // namespace
}  // namespace dagpm
