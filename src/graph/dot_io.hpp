#pragma once
// DOT (Graphviz) reader/writer for workflow DAGs.
//
// The paper converts nextflow workflow definitions to .dot; we support the
// same interchange so users can bring their own workflows. The writer emits
// `work`, `memory` node attributes and a `cost` edge attribute; the reader
// accepts that dialect (attributes optional, defaulting to 1).

#include <iosfwd>
#include <optional>
#include <string>

#include "graph/dag.hpp"

namespace dagpm::graph {

/// Serializes `g` as a DOT digraph named `name`.
void writeDot(std::ostream& os, const Dag& g, const std::string& name = "G");
std::string toDot(const Dag& g, const std::string& name = "G");

/// Parses a DOT digraph in the dialect produced by writeDot (a practical
/// subset of DOT: statements `id [attrs];` and `id -> id [attrs];`).
/// Returns std::nullopt on syntax errors, a dependency cycle, a self-loop,
/// or a NaN, infinite or negative work/memory/cost. Unknown attributes are
/// ignored; missing (or non-numeric) work/memory/cost default to 1.
std::optional<Dag> readDot(std::istream& is);
std::optional<Dag> dagFromDot(const std::string& text);

}  // namespace dagpm::graph
