#include "graph/dot_io.hpp"

#include <cctype>
#include <cmath>
#include <map>
#include <ostream>
#include <sstream>

#include "graph/topology.hpp"

namespace dagpm::graph {
namespace {

// --- tiny DOT tokenizer ----------------------------------------------------

struct Token {
  enum class Kind { kId, kArrow, kLBracket, kRBracket, kLBrace, kRBrace,
                    kSemicolon, kComma, kEquals, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;
};

class Lexer {
 public:
  explicit Lexer(std::string text) : text_(std::move(text)) {}

  Token next() {
    skipWhitespaceAndComments();
    if (pos_ >= text_.size()) return {Token::Kind::kEnd, {}};
    const char c = text_[pos_];
    switch (c) {
      case '[': ++pos_; return {Token::Kind::kLBracket, "["};
      case ']': ++pos_; return {Token::Kind::kRBracket, "]"};
      case '{': ++pos_; return {Token::Kind::kLBrace, "{"};
      case '}': ++pos_; return {Token::Kind::kRBrace, "}"};
      case ';': ++pos_; return {Token::Kind::kSemicolon, ";"};
      case ',': ++pos_; return {Token::Kind::kComma, ","};
      case '=': ++pos_; return {Token::Kind::kEquals, "="};
      default: break;
    }
    if (c == '-' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
      pos_ += 2;
      return {Token::Kind::kArrow, "->"};
    }
    if (c == '"') return quotedId();
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
        c == '-' || c == '+') {
      return bareId();
    }
    ++pos_;  // skip unknown character
    return next();
  }

 private:
  void skipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < text_.size() &&
               !(text_[pos_] == '*' && text_[pos_ + 1] == '/')) {
          ++pos_;
        }
        pos_ = std::min(pos_ + 2, text_.size());
      } else {
        break;
      }
    }
  }

  Token quotedId() {
    std::string out;
    ++pos_;  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      out += text_[pos_++];
    }
    if (pos_ < text_.size()) ++pos_;  // closing quote
    return {Token::Kind::kId, out};
  }

  Token bareId() {
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '.' || c == '-' || c == '+') {
        out += c;
        ++pos_;
      } else {
        break;
      }
    }
    return {Token::Kind::kId, out};
  }

  std::string text_;
  std::size_t pos_ = 0;
};

/// The weight an attribute value denotes: `fallback` when the text is not a
/// number, std::nullopt when it is NaN, infinite or negative (std::stod
/// accepts "nan" and "inf"), which the reader rejects like the JSON reader.
std::optional<double> parseWeight(const std::string& s, double fallback) {
  double v = fallback;
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(s, &consumed);
    if (consumed > 0) v = parsed;
  } catch (...) {
  }
  if (!std::isfinite(v) || v < 0.0) return std::nullopt;
  return v;
}

}  // namespace

void writeDot(std::ostream& os, const Dag& g, const std::string& name) {
  os << "digraph \"" << name << "\" {\n";
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    os << "  n" << v << " [work=" << g.work(v) << ", memory=" << g.memory(v);
    if (!g.label(v).empty()) os << ", label=\"" << g.label(v) << "\"";
    os << "];\n";
  }
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    const Edge& edge = g.edge(e);
    os << "  n" << edge.src << " -> n" << edge.dst << " [cost=" << edge.cost
       << "];\n";
  }
  os << "}\n";
}

std::string toDot(const Dag& g, const std::string& name) {
  std::ostringstream oss;
  writeDot(oss, g, name);
  return oss.str();
}

std::optional<Dag> dagFromDot(const std::string& text) {
  Lexer lexer(text);
  Token tok = lexer.next();
  // Optional "digraph" keyword and graph name.
  if (tok.kind == Token::Kind::kId && tok.text == "digraph") {
    tok = lexer.next();
    if (tok.kind == Token::Kind::kId) tok = lexer.next();  // graph name
  }
  if (tok.kind != Token::Kind::kLBrace) return std::nullopt;

  Dag g;
  std::map<std::string, VertexId> nodeOf;
  auto internNode = [&](const std::string& nodeName) {
    const auto it = nodeOf.find(nodeName);
    if (it != nodeOf.end()) return it->second;
    const VertexId v = g.addVertex(1.0, 1.0, nodeName);
    nodeOf.emplace(nodeName, v);
    return v;
  };

  using Attrs = std::map<std::string, std::string>;
  // Parses `[k=v, k=v, ...]`; returns attr map. Caller saw '['.
  auto parseAttrs = [&lexer]() -> std::optional<Attrs> {
    Attrs attrs;
    while (true) {
      Token t = lexer.next();
      if (t.kind == Token::Kind::kRBracket) return attrs;
      if (t.kind == Token::Kind::kComma) continue;
      if (t.kind != Token::Kind::kId) return std::nullopt;
      const std::string key = t.text;
      t = lexer.next();
      if (t.kind != Token::Kind::kEquals) return std::nullopt;
      t = lexer.next();
      if (t.kind != Token::Kind::kId) return std::nullopt;
      attrs[key] = t.text;
    }
  };

  tok = lexer.next();
  while (tok.kind != Token::Kind::kRBrace && tok.kind != Token::Kind::kEnd) {
    if (tok.kind == Token::Kind::kSemicolon) {
      tok = lexer.next();
      continue;
    }
    if (tok.kind != Token::Kind::kId) return std::nullopt;
    const std::string first = tok.text;
    tok = lexer.next();
    if (tok.kind == Token::Kind::kArrow) {
      // Edge statement (possibly a chain a -> b -> c).
      VertexId prev = internNode(first);
      double cost = 1.0;
      std::vector<std::pair<VertexId, VertexId>> chain;
      while (tok.kind == Token::Kind::kArrow) {
        tok = lexer.next();
        if (tok.kind != Token::Kind::kId) return std::nullopt;
        const VertexId cur = internNode(tok.text);
        if (cur == prev) return std::nullopt;  // self-loop
        chain.emplace_back(prev, cur);
        prev = cur;
        tok = lexer.next();
      }
      if (tok.kind == Token::Kind::kLBracket) {
        const auto attrs = parseAttrs();
        if (!attrs) return std::nullopt;
        const auto it = attrs->count("cost") ? attrs->find("cost")
                                             : attrs->find("label");
        if (it != attrs->end()) {
          const auto parsed = parseWeight(it->second, 1.0);
          if (!parsed) return std::nullopt;
          cost = *parsed;
        }
        tok = lexer.next();
      }
      for (const auto& [u, v] : chain) g.addEdge(u, v, cost);
    } else {
      // Node statement.
      const VertexId v = internNode(first);
      if (tok.kind == Token::Kind::kLBracket) {
        const auto attrs = parseAttrs();
        if (!attrs) return std::nullopt;
        if (const auto it = attrs->find("work"); it != attrs->end()) {
          const auto work = parseWeight(it->second, 1.0);
          if (!work) return std::nullopt;
          g.setWork(v, *work);
        }
        if (const auto it = attrs->find("memory"); it != attrs->end()) {
          const auto memory = parseWeight(it->second, 1.0);
          if (!memory) return std::nullopt;
          g.setMemory(v, *memory);
        }
        tok = lexer.next();
      }
    }
  }
  if (!isAcyclic(g)) return std::nullopt;
  return g;
}

std::optional<Dag> readDot(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return dagFromDot(buffer.str());
}

}  // namespace dagpm::graph
