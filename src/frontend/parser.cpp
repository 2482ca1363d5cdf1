#include "frontend/parser.hpp"

#include <map>
#include <optional>

#include "frontend/lexer.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/trace.hpp"
#include "util/strings.hpp"

namespace hlts::frontend {

namespace {

/// Compiler temporaries use a '$' prefix, which the lexer cannot produce,
/// so they can never collide with user names.
bool is_temp(const std::string& name) { return !name.empty() && name[0] == '$'; }

class Parser {
 public:
  explicit Parser(const std::string& source) : tokens_(tokenize(source)) {}

  dfg::Dfg run() {
    expect(TokenKind::KwDesign);
    const std::string name = expect(TokenKind::Identifier).text;
    graph_.emplace(name);
    expect(TokenKind::LBrace);
    while (at(TokenKind::KwInput) || at(TokenKind::KwOutput)) {
      declaration();
    }
    while (!at(TokenKind::RBrace)) {
      statement();
    }
    expect(TokenKind::RBrace);
    expect(TokenKind::End);
    return finish();
  }

 private:
  [[noreturn]] void fail(const std::string& message) {
    const Token& t = peek();
    throw ParseError("parse", message, t.line, t.column);
  }

  const Token& peek() const { return tokens_[pos_]; }
  bool at(TokenKind kind) const { return peek().kind == kind; }
  Token advance() { return tokens_[pos_++]; }
  Token expect(TokenKind kind) {
    if (!at(kind)) {
      fail(std::string("expected ") + token_kind_name(kind) + ", found " +
           token_kind_name(peek().kind) +
           (peek().text.empty() ? "" : " '" + peek().text + "'"));
    }
    return advance();
  }
  bool accept(TokenKind kind) {
    if (at(kind)) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Resolves a user-visible name: rename targets first, then plain
  /// variables (inputs, literals).
  std::optional<dfg::VarId> lookup(const std::string& name) const {
    auto it = named_.find(name);
    if (it != named_.end()) return it->second;
    auto var = graph_->find_var(name);
    if (var && !is_temp(graph_->var(*var).name)) return var;
    return std::nullopt;
  }

  void declaration() {
    if (accept(TokenKind::KwInput)) {
      do {
        const std::string name = expect(TokenKind::Identifier).text;
        if (lookup(name)) fail("'" + name + "' declared twice");
        graph_->add_input(name);
      } while (accept(TokenKind::Comma));
      expect(TokenKind::Semicolon);
      return;
    }
    expect(TokenKind::KwOutput);
    const bool registered = accept(TokenKind::KwRegister);
    do {
      const std::string name = expect(TokenKind::Identifier).text;
      if (!outputs_.emplace(name, registered).second) {
        fail("output '" + name + "' declared twice");
      }
    } while (accept(TokenKind::Comma));
    expect(TokenKind::Semicolon);
  }

  void statement() {
    const Token target = expect(TokenKind::Identifier);
    expect(TokenKind::Assign);
    const dfg::VarId value = expression();
    expect(TokenKind::Semicolon);
    // Reassignment creates a new value version (the DFG is SSA; lifetime
    // analysis later decides whether versions can share one register, just
    // as the paper's VHDL compiler does for reused variables).  Primary
    // inputs cannot be driven.
    if (auto existing = graph_->find_var(target.text);
        existing && graph_->var(*existing).is_primary_input &&
        !named_.count(target.text)) {
      fail("cannot assign to input '" + target.text + "'");
    }
    const dfg::Variable& v = graph_->var(value);
    dfg::VarId result;
    if (v.def.valid() && is_temp(v.name) && !base_of_.count(v.name)) {
      // The expression's final operation defines a fresh temp: it becomes
      // this version of the target.
      result = value;
    } else {
      // Bare alias ("out = in;") or reuse of an already-named value:
      // materialize as an explicit move so the version has a defining op.
      result = graph_->add_variable(cat("$m", std::to_string(++move_counter_)));
      graph_->add_op(fresh_op_name(), dfg::OpKind::Move, {value}, result);
    }
    base_of_[graph_->var(result).name] = target.text;
    versions_[target.text].push_back(result);
    named_[target.text] = result;
  }

  dfg::VarId expression() { return logic(); }

  dfg::VarId logic() {
    dfg::VarId lhs = comparison();
    while (at(TokenKind::Amp) || at(TokenKind::Pipe) || at(TokenKind::Caret)) {
      const TokenKind op = advance().kind;
      dfg::VarId rhs = comparison();
      lhs = emit(op == TokenKind::Amp    ? dfg::OpKind::And
                 : op == TokenKind::Pipe ? dfg::OpKind::Or
                                         : dfg::OpKind::Xor,
                 {lhs, rhs});
    }
    return lhs;
  }

  dfg::VarId comparison() {
    dfg::VarId lhs = sum();
    while (at(TokenKind::Less) || at(TokenKind::Greater) ||
           at(TokenKind::EqualEqual)) {
      const TokenKind op = advance().kind;
      dfg::VarId rhs = sum();
      lhs = emit(op == TokenKind::Less      ? dfg::OpKind::Less
                 : op == TokenKind::Greater ? dfg::OpKind::Greater
                                            : dfg::OpKind::Equal,
                 {lhs, rhs});
    }
    return lhs;
  }

  dfg::VarId sum() {
    dfg::VarId lhs = term();
    while (at(TokenKind::Plus) || at(TokenKind::Minus)) {
      const TokenKind op = advance().kind;
      dfg::VarId rhs = term();
      lhs = emit(op == TokenKind::Plus ? dfg::OpKind::Add : dfg::OpKind::Sub,
                 {lhs, rhs});
    }
    return lhs;
  }

  dfg::VarId term() {
    dfg::VarId lhs = factor();
    while (at(TokenKind::Star) || at(TokenKind::Slash)) {
      const TokenKind op = advance().kind;
      dfg::VarId rhs = factor();
      lhs = emit(op == TokenKind::Star ? dfg::OpKind::Mul : dfg::OpKind::Div,
                 {lhs, rhs});
    }
    return lhs;
  }

  dfg::VarId factor() {
    // Nesting cap: every level of expression nesting (parens, unary chains)
    // passes through factor(), so bounding it here bounds the recursion of
    // the whole descent.  Without it, adversarial input like 100k '(' or
    // '~' bytes overflows the C++ stack before any diagnostic is produced
    // -- a crash, not a ParseError.  512 is far beyond any real design
    // (the paper's benchmarks nest < 10 deep).
    if (depth_ >= kMaxNesting) {
      fail(cat("expression nested deeper than ", std::to_string(kMaxNesting),
               " levels"));
    }
    const DepthGuard guard(depth_);
    if (accept(TokenKind::Tilde)) {
      return emit(dfg::OpKind::Not, {factor()});
    }
    if (accept(TokenKind::LParen)) {
      dfg::VarId inner = expression();
      expect(TokenKind::RParen);
      return inner;
    }
    if (at(TokenKind::Number)) {
      const std::string literal = advance().text;
      // Literals become implicit constant input ports (named after the
      // value, as the paper's Diffeq does with its literal 3).
      if (auto existing = graph_->find_var(literal)) return *existing;
      return graph_->add_input(literal);
    }
    const Token id = expect(TokenKind::Identifier);
    auto var = lookup(id.text);
    if (!var) {
      fail("use of undefined variable '" + id.text + "'");
    }
    return *var;
  }

  dfg::VarId emit(dfg::OpKind kind, const std::vector<dfg::VarId>& inputs) {
    const std::string tmp = cat("$t", std::to_string(++temp_counter_));
    dfg::OpId op = graph_->add_op_new_var(fresh_op_name(), kind, inputs, tmp);
    return graph_->op(op).output;
  }

  std::string fresh_op_name() {
    return cat("N", std::to_string(++op_counter_));
  }

  /// Rebuilds the graph with final names (the Dfg API has no rename) and
  /// applies the output declarations.
  dfg::Dfg finish() {
    // Final display names: the last version of each target carries the bare
    // name; earlier versions get '#k' suffixes (VHDL-style value versions).
    std::map<std::string, std::string> display;
    for (const auto& [base, vars] : versions_) {
      for (std::size_t i = 0; i < vars.size(); ++i) {
        const std::string& internal = graph_->var(vars[i]).name;
        display[internal] = i + 1 == vars.size()
                                ? base
                                : base + "#" + std::to_string(i + 1);
      }
    }
    dfg::Dfg out(graph_->name());
    IndexVec<dfg::VarId, dfg::VarId> map(graph_->num_vars());
    auto final_name = [&](dfg::VarId v) {
      const std::string& n = graph_->var(v).name;
      auto it = display.find(n);
      if (it != display.end()) return it->second;
      if (is_temp(n)) {
        // Leftover intermediate: pretty name if free.
        std::string pretty = n.substr(1);
        return graph_->find_var(pretty) ? n : pretty;
      }
      return n;
    };
    for (dfg::VarId v : graph_->var_ids()) {
      const dfg::Variable& var = graph_->var(v);
      map[v] = var.is_primary_input ? out.add_input(final_name(v))
                                    : out.add_variable(final_name(v));
    }
    for (dfg::OpId op : graph_->topo_order()) {
      const dfg::Operation& o = graph_->op(op);
      std::vector<dfg::VarId> ins;
      for (dfg::VarId in : o.inputs) ins.push_back(map[in]);
      out.add_op(o.name, o.kind, ins, map[o.output]);
    }
    for (const auto& [name, registered] : outputs_) {
      auto v = out.find_var(name);
      if (!v || (!out.var(*v).def.valid() && !out.var(*v).is_primary_input)) {
        throw Error("output '" + name + "' is never assigned",
                    ErrorKind::Input);
      }
      out.mark_output(*v, registered);
    }
    out.validate();
    return out;
  }

  static constexpr int kMaxNesting = 512;
  struct DepthGuard {
    int& depth;
    explicit DepthGuard(int& d) : depth(d) { ++depth; }
    ~DepthGuard() { --depth; }
  };

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::optional<dfg::Dfg> graph_;
  std::map<std::string, bool> outputs_;         // name -> registered
  std::map<std::string, dfg::VarId> named_;     // target name -> latest version
  std::map<std::string, std::string> base_of_;  // internal var -> target name
  std::map<std::string, std::vector<dfg::VarId>> versions_;
  int temp_counter_ = 0;
  int move_counter_ = 0;
  int op_counter_ = 0;
};

}  // namespace

dfg::Dfg compile(const std::string& source) {
  HLTS_SPAN("frontend.compile");
  HLTS_FAILPOINT("frontend.parse");
  return Parser(source).run();
}

CompileResult compile_or_error(const std::string& source) {
  HLTS_SPAN("frontend.compile");
  CompileResult r;
  try {
    HLTS_FAILPOINT("frontend.parse");
    r.dfg = Parser(source).run();
  } catch (const ParseError& e) {
    r.error = {e.what(), e.line(), e.column()};
  } catch (const Error& e) {
    // Only user-input errors become diagnostics ("output never assigned");
    // Transient (injected) and Internal errors propagate to the caller's
    // retry / failure handling.
    if (e.kind() != ErrorKind::Input) throw;
    r.error = {e.what(), 0, 0};
  }
  return r;
}

}  // namespace hlts::frontend
