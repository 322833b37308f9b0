#include "frontend/parser.hpp"

#include <cassert>

#include "common/strings.hpp"

namespace hermes::fe {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Program> run() {
    Program program;
    while (!check(TokKind::kEof)) {
      FuncDecl fn;
      if (!parse_function(fn)) return error_;
      program.functions.push_back(std::move(fn));
    }
    return program;
  }

 private:
  // ---- token plumbing ----
  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const {
    const std::size_t index = pos_ + ahead;
    return index < tokens_.size() ? tokens_[index] : tokens_.back();
  }
  [[nodiscard]] bool check(TokKind kind) const { return peek().kind == kind; }
  const Token& advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool match(TokKind kind) {
    if (!check(kind)) return false;
    advance();
    return true;
  }
  bool expect(TokKind kind, const char* context) {
    if (match(kind)) return true;
    fail(format("line %u: expected '%s' %s, got '%s'", peek().loc.line,
                to_string(kind), context,
                peek().kind == TokKind::kIdentifier ? peek().text.c_str()
                                                    : to_string(peek().kind)));
    return false;
  }
  void fail(std::string message) {
    if (error_.ok()) error_ = Status::Error(ErrorCode::kParseError, std::move(message));
  }
  [[nodiscard]] bool failed() const { return !error_.ok(); }

  /// Restores the nesting depth on scope exit.
  struct DepthScope {
    explicit DepthScope(Parser& parser) : parser(parser), saved(parser.depth_) {}
    ~DepthScope() { parser.depth_ = saved; }
    Parser& parser;
    std::size_t saved;
  };
  /// Enters one more nesting level. Past kMaxParseDepth the parse fails and
  /// the caller returns at once, so no deeper tree is ever built.
  bool descend() {
    if (++depth_ <= kMaxParseDepth) return true;
    fail(format("line %u: nesting deeper than %zu levels", peek().loc.line,
                kMaxParseDepth));
    return false;
  }

  /// True if the current token begins a type name (keyword or typedef name).
  bool at_type(Type* out = nullptr) {
    Type type;
    if (check(TokKind::kKwVoid)) { type = Type::Void(); }
    else if (check(TokKind::kKwBool)) { type = Type::Bool(); }
    else if (check(TokKind::kIdentifier) && parse_type_name(peek().text, type)) {}
    else return false;
    if (out) *out = type;
    return true;
  }

  // ---- declarations ----
  bool parse_function(FuncDecl& fn) {
    match(TokKind::kKwConst);  // `const` on return type: accepted, ignored
    Type ret;
    if (!at_type(&ret)) {
      fail(format("line %u: expected function return type", peek().loc.line));
      return false;
    }
    fn.loc = peek().loc;
    advance();
    fn.return_type = ret;
    if (!check(TokKind::kIdentifier)) {
      fail(format("line %u: expected function name", peek().loc.line));
      return false;
    }
    fn.name = advance().text;
    if (!expect(TokKind::kLParen, "after function name")) return false;
    if (!check(TokKind::kRParen)) {
      do {
        if (check(TokKind::kKwVoid) && peek(1).kind == TokKind::kRParen) {
          advance();  // f(void)
          break;
        }
        Param param;
        param.is_const = match(TokKind::kKwConst);
        if (!at_type(&param.type)) {
          fail(format("line %u: expected parameter type", peek().loc.line));
          return false;
        }
        advance();
        if (!check(TokKind::kIdentifier)) {
          fail(format("line %u: expected parameter name", peek().loc.line));
          return false;
        }
        param.name = advance().text;
        while (match(TokKind::kLBracket)) {
          if (!check(TokKind::kIntLiteral)) {
            fail(format("line %u: array parameter needs a constant size",
                        peek().loc.line));
            return false;
          }
          param.dims.push_back(static_cast<std::size_t>(advance().int_value));
          if (!expect(TokKind::kRBracket, "after array size")) return false;
        }
        param.array_size = 1;
        for (std::size_t dim : param.dims) param.array_size *= dim;
        if (param.dims.empty()) param.array_size = 0;
        fn.params.push_back(std::move(param));
      } while (match(TokKind::kComma));
    }
    if (!expect(TokKind::kRParen, "after parameter list")) return false;
    StmtPtr body = parse_block();
    if (failed()) return false;
    fn.body.reset(static_cast<BlockStmt*>(body.release()));
    return true;
  }

  // ---- statements ----
  StmtPtr parse_block() {
    auto block = std::make_unique<BlockStmt>();
    block->loc = peek().loc;
    if (!expect(TokKind::kLBrace, "to open block")) return block;
    while (!check(TokKind::kRBrace) && !check(TokKind::kEof) && !failed()) {
      block->body.push_back(parse_statement());
    }
    expect(TokKind::kRBrace, "to close block");
    return block;
  }

  StmtPtr parse_statement() {
    DepthScope scope(*this);
    if (!descend()) return nullptr;
    if (check(TokKind::kLBrace)) return parse_block();
    if (check(TokKind::kKwIf)) return parse_if();
    if (check(TokKind::kKwWhile)) return parse_while();
    if (check(TokKind::kKwDo)) return parse_do_while();
    if (check(TokKind::kKwFor)) return parse_for();
    if (check(TokKind::kKwReturn)) return parse_return();
    if (match(TokKind::kKwBreak)) {
      auto stmt = std::make_unique<BreakStmt>();
      expect(TokKind::kSemicolon, "after break");
      return stmt;
    }
    if (match(TokKind::kKwContinue)) {
      auto stmt = std::make_unique<ContinueStmt>();
      expect(TokKind::kSemicolon, "after continue");
      return stmt;
    }
    if (check(TokKind::kKwConst) || at_type()) {
      StmtPtr decl = parse_var_decl();
      expect(TokKind::kSemicolon, "after declaration");
      return decl;
    }
    auto stmt = std::make_unique<ExprStmt>();
    stmt->loc = peek().loc;
    stmt->expr = parse_expression();
    expect(TokKind::kSemicolon, "after expression");
    return stmt;
  }

  StmtPtr parse_var_decl() {
    auto decl = std::make_unique<VarDeclStmt>();
    decl->loc = peek().loc;
    match(TokKind::kKwConst);  // locals: const accepted, not enforced
    if (!at_type(&decl->type)) {
      fail(format("line %u: expected type in declaration", peek().loc.line));
      return decl;
    }
    advance();
    if (!check(TokKind::kIdentifier)) {
      fail(format("line %u: expected variable name", peek().loc.line));
      return decl;
    }
    decl->name = advance().text;
    if (check(TokKind::kLBracket)) {
      while (match(TokKind::kLBracket)) {
        if (!check(TokKind::kIntLiteral)) {
          fail(format("line %u: local array needs a constant size",
                      peek().loc.line));
          return decl;
        }
        decl->dims.push_back(static_cast<std::size_t>(advance().int_value));
        expect(TokKind::kRBracket, "after array size");
      }
      decl->array_size = 1;
      for (std::size_t dim : decl->dims) decl->array_size *= dim;
      if (match(TokKind::kAssign)) {
        expect(TokKind::kLBrace, "to open array initializer");
        if (!check(TokKind::kRBrace)) {
          do {
            bool negate = match(TokKind::kMinus);
            if (!check(TokKind::kIntLiteral)) {
              fail(format("line %u: array initializers must be integer literals",
                          peek().loc.line));
              return decl;
            }
            std::uint64_t v = advance().int_value;
            decl->array_init.push_back(negate ? ~v + 1 : v);
          } while (match(TokKind::kComma));
        }
        expect(TokKind::kRBrace, "to close array initializer");
      }
    } else if (match(TokKind::kAssign)) {
      decl->init = parse_assignment();
    }
    return decl;
  }

  StmtPtr parse_if() {
    auto stmt = std::make_unique<IfStmt>();
    stmt->loc = peek().loc;
    advance();  // if
    expect(TokKind::kLParen, "after if");
    stmt->condition = parse_expression();
    expect(TokKind::kRParen, "after if condition");
    stmt->then_branch = parse_statement();
    if (match(TokKind::kKwElse)) stmt->else_branch = parse_statement();
    return stmt;
  }

  StmtPtr parse_while() {
    auto stmt = std::make_unique<WhileStmt>();
    stmt->loc = peek().loc;
    advance();  // while
    expect(TokKind::kLParen, "after while");
    stmt->condition = parse_expression();
    expect(TokKind::kRParen, "after while condition");
    stmt->body = parse_statement();
    return stmt;
  }

  StmtPtr parse_do_while() {
    auto stmt = std::make_unique<DoWhileStmt>();
    stmt->loc = peek().loc;
    advance();  // do
    stmt->body = parse_statement();
    expect(TokKind::kKwWhile, "after do body");
    expect(TokKind::kLParen, "after while");
    stmt->condition = parse_expression();
    expect(TokKind::kRParen, "after do-while condition");
    expect(TokKind::kSemicolon, "after do-while");
    return stmt;
  }

  StmtPtr parse_for() {
    auto stmt = std::make_unique<ForStmt>();
    stmt->loc = peek().loc;
    advance();  // for
    expect(TokKind::kLParen, "after for");
    if (!match(TokKind::kSemicolon)) {
      if (check(TokKind::kKwConst) || at_type()) {
        stmt->init = parse_var_decl();
      } else {
        auto init = std::make_unique<ExprStmt>();
        init->expr = parse_expression();
        stmt->init = std::move(init);
      }
      expect(TokKind::kSemicolon, "after for initializer");
    }
    if (!check(TokKind::kSemicolon)) stmt->condition = parse_expression();
    expect(TokKind::kSemicolon, "after for condition");
    if (!check(TokKind::kRParen)) stmt->update = parse_expression();
    expect(TokKind::kRParen, "after for clauses");
    stmt->body = parse_statement();
    return stmt;
  }

  StmtPtr parse_return() {
    auto stmt = std::make_unique<ReturnStmt>();
    stmt->loc = peek().loc;
    advance();  // return
    if (!check(TokKind::kSemicolon)) stmt->value = parse_expression();
    expect(TokKind::kSemicolon, "after return");
    return stmt;
  }

  // ---- expressions (precedence climbing) ----
  ExprPtr parse_expression() { return parse_assignment(); }

  ExprPtr parse_assignment() {
    ExprPtr lhs = parse_ternary();
    if (check(TokKind::kAssign) || check(TokKind::kPlusAssign) ||
        check(TokKind::kMinusAssign) || check(TokKind::kStarAssign)) {
      const TokKind op = advance().kind;
      DepthScope scope(*this);  // a = b = ... nests to the right
      if (!descend()) return lhs;
      ExprPtr rhs = parse_assignment();
      if (op != TokKind::kAssign) {
        // x op= y  ==>  x = x op y (target cloned structurally below)
        auto bin = std::make_unique<BinaryExpr>();
        bin->loc = lhs->loc;
        bin->op = op == TokKind::kPlusAssign ? BinaryOp::kAdd
                 : op == TokKind::kMinusAssign ? BinaryOp::kSub
                                               : BinaryOp::kMul;
        bin->lhs = clone_lvalue(*lhs);
        bin->rhs = std::move(rhs);
        rhs = std::move(bin);
      }
      auto assign = std::make_unique<AssignExpr>();
      assign->loc = lhs->loc;
      assign->target = std::move(lhs);
      assign->value = std::move(rhs);
      return assign;
    }
    return lhs;
  }

  /// Structural copy of a VarRef / ArrayIndex lvalue for compound-assignment
  /// desugaring. Array index expressions are re-parsed sub-trees, so the
  /// index is cloned recursively.
  ExprPtr clone_lvalue(const Expr& expr) {
    if (expr.kind == Expr::Kind::kVarRef) {
      auto copy = std::make_unique<VarRefExpr>();
      copy->loc = expr.loc;
      copy->name = static_cast<const VarRefExpr&>(expr).name;
      return copy;
    }
    if (expr.kind == Expr::Kind::kArrayIndex) {
      const auto& from = static_cast<const ArrayIndexExpr&>(expr);
      auto copy = std::make_unique<ArrayIndexExpr>();
      copy->loc = expr.loc;
      copy->array = from.array;
      for (const ExprPtr& index : from.indices) {
        copy->indices.push_back(clone_expr(*index));
      }
      return copy;
    }
    fail(format("line %u: invalid assignment target", expr.loc.line));
    return std::make_unique<IntLitExpr>();
  }

  ExprPtr clone_expr(const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kIntLit: {
        auto copy = std::make_unique<IntLitExpr>();
        copy->value = static_cast<const IntLitExpr&>(expr).value;
        copy->loc = expr.loc;
        return copy;
      }
      case Expr::Kind::kBoolLit: {
        auto copy = std::make_unique<BoolLitExpr>();
        copy->value = static_cast<const BoolLitExpr&>(expr).value;
        copy->loc = expr.loc;
        return copy;
      }
      case Expr::Kind::kVarRef:
      case Expr::Kind::kArrayIndex:
        return clone_lvalue(expr);
      case Expr::Kind::kUnary: {
        const auto& from = static_cast<const UnaryExpr&>(expr);
        auto copy = std::make_unique<UnaryExpr>();
        copy->op = from.op;
        copy->operand = clone_expr(*from.operand);
        copy->loc = expr.loc;
        return copy;
      }
      case Expr::Kind::kBinary: {
        const auto& from = static_cast<const BinaryExpr&>(expr);
        auto copy = std::make_unique<BinaryExpr>();
        copy->op = from.op;
        copy->lhs = clone_expr(*from.lhs);
        copy->rhs = clone_expr(*from.rhs);
        copy->loc = expr.loc;
        return copy;
      }
      case Expr::Kind::kCast: {
        const auto& from = static_cast<const CastExpr&>(expr);
        auto copy = std::make_unique<CastExpr>();
        copy->target = from.target;
        copy->operand = clone_expr(*from.operand);
        copy->loc = expr.loc;
        return copy;
      }
      default:
        fail(format("line %u: expression too complex in compound assignment",
                    expr.loc.line));
        return std::make_unique<IntLitExpr>();
    }
  }

  /// Every expression, a parenthesised or indexing one included, reaches the
  /// nesting bound through here.
  ExprPtr parse_ternary() {
    DepthScope scope(*this);
    if (!descend()) return std::make_unique<IntLitExpr>();
    ExprPtr cond = parse_logical_or();
    if (!match(TokKind::kQuestion)) return cond;
    auto expr = std::make_unique<TernaryExpr>();
    expr->loc = cond->loc;
    expr->condition = std::move(cond);
    expr->if_true = parse_expression();
    expect(TokKind::kColon, "in ternary expression");
    expr->if_false = parse_ternary();
    return expr;
  }

  ExprPtr parse_binary_level(int level) {
    // Levels from loosest to tightest.
    struct Level {
      TokKind tokens[4];
      BinaryOp ops[4];
      int count;
    };
    static const Level kLevels[] = {
        {{TokKind::kPipePipe}, {BinaryOp::kLogicalOr}, 1},
        {{TokKind::kAmpAmp}, {BinaryOp::kLogicalAnd}, 1},
        {{TokKind::kPipe}, {BinaryOp::kOr}, 1},
        {{TokKind::kCaret}, {BinaryOp::kXor}, 1},
        {{TokKind::kAmp}, {BinaryOp::kAnd}, 1},
        {{TokKind::kEqEq, TokKind::kNe}, {BinaryOp::kEq, BinaryOp::kNe}, 2},
        {{TokKind::kLt, TokKind::kLe, TokKind::kGt, TokKind::kGe},
         {BinaryOp::kLt, BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe}, 4},
        {{TokKind::kShl, TokKind::kShr}, {BinaryOp::kShl, BinaryOp::kShr}, 2},
        {{TokKind::kPlus, TokKind::kMinus}, {BinaryOp::kAdd, BinaryOp::kSub}, 2},
        {{TokKind::kStar, TokKind::kSlash, TokKind::kPercent},
         {BinaryOp::kMul, BinaryOp::kDiv, BinaryOp::kRem}, 3},
    };
    constexpr int kNumLevels = static_cast<int>(std::size(kLevels));
    if (level >= kNumLevels) return parse_unary();

    ExprPtr lhs = parse_binary_level(level + 1);
    DepthScope scope(*this);
    while (true) {
      const Level& spec = kLevels[level];
      int matched = -1;
      for (int i = 0; i < spec.count; ++i) {
        if (check(spec.tokens[i])) {
          matched = i;
          break;
        }
      }
      if (matched < 0 || !descend()) return lhs;
      advance();
      auto expr = std::make_unique<BinaryExpr>();
      expr->loc = lhs->loc;
      expr->op = spec.ops[matched];
      expr->lhs = std::move(lhs);
      expr->rhs = parse_binary_level(level + 1);
      lhs = std::move(expr);
    }
  }

  ExprPtr parse_logical_or() { return parse_binary_level(0); }

  ExprPtr parse_unary() {
    const SrcLoc loc = peek().loc;
    // A prefix operator or a cast nests its operand one level deeper.
    DepthScope scope(*this);
    const auto operand = [this]() -> ExprPtr {
      if (!descend()) return std::make_unique<IntLitExpr>();
      return parse_unary();
    };
    if (match(TokKind::kMinus)) {
      auto expr = std::make_unique<UnaryExpr>();
      expr->loc = loc;
      expr->op = UnaryOp::kNeg;
      expr->operand = operand();
      return expr;
    }
    if (match(TokKind::kBang)) {
      auto expr = std::make_unique<UnaryExpr>();
      expr->loc = loc;
      expr->op = UnaryOp::kNot;
      expr->operand = operand();
      return expr;
    }
    if (match(TokKind::kTilde)) {
      auto expr = std::make_unique<UnaryExpr>();
      expr->loc = loc;
      expr->op = UnaryOp::kBitNot;
      expr->operand = operand();
      return expr;
    }
    // Pre-increment/decrement: ++x / --x  =>  x = x +/- 1
    if (check(TokKind::kPlusPlus) || check(TokKind::kMinusMinus)) {
      const bool inc = advance().kind == TokKind::kPlusPlus;
      ExprPtr target = operand();
      return make_incdec(std::move(target), inc, loc);
    }
    // Cast: '(' typename ')' unary
    if (check(TokKind::kLParen)) {
      Type type;
      if ((peek(1).kind == TokKind::kIdentifier &&
           parse_type_name(peek(1).text, type) &&
           peek(2).kind == TokKind::kRParen) ||
          (peek(1).kind == TokKind::kKwBool && peek(2).kind == TokKind::kRParen)) {
        if (peek(1).kind == TokKind::kKwBool) type = Type::Bool();
        advance();  // (
        advance();  // type
        advance();  // )
        auto expr = std::make_unique<CastExpr>();
        expr->loc = loc;
        expr->target = type;
        expr->operand = operand();
        return expr;
      }
    }
    return parse_postfix();
  }

  ExprPtr make_incdec(ExprPtr target, bool inc, SrcLoc loc) {
    auto one = std::make_unique<IntLitExpr>();
    one->value = 1;
    one->loc = loc;
    auto bin = std::make_unique<BinaryExpr>();
    bin->loc = loc;
    bin->op = inc ? BinaryOp::kAdd : BinaryOp::kSub;
    bin->lhs = clone_lvalue(*target);
    bin->rhs = std::move(one);
    auto assign = std::make_unique<AssignExpr>();
    assign->loc = loc;
    assign->target = std::move(target);
    assign->value = std::move(bin);
    return assign;
  }

  ExprPtr parse_postfix() {
    ExprPtr expr = parse_primary();
    DepthScope scope(*this);  // each postfix ++/-- wraps the tree once more
    while (true) {
      if ((check(TokKind::kPlusPlus) || check(TokKind::kMinusMinus)) &&
          descend()) {
        const SrcLoc loc = peek().loc;
        const bool inc = advance().kind == TokKind::kPlusPlus;
        expr = make_incdec(std::move(expr), inc, loc);
        continue;
      }
      break;
    }
    return expr;
  }

  ExprPtr parse_primary() {
    const SrcLoc loc = peek().loc;
    if (check(TokKind::kIntLiteral)) {
      auto expr = std::make_unique<IntLitExpr>();
      expr->loc = loc;
      expr->value = advance().int_value;
      return expr;
    }
    if (check(TokKind::kKwTrue) || check(TokKind::kKwFalse)) {
      auto expr = std::make_unique<BoolLitExpr>();
      expr->loc = loc;
      expr->value = advance().kind == TokKind::kKwTrue;
      return expr;
    }
    if (match(TokKind::kLParen)) {
      ExprPtr inner = parse_expression();
      expect(TokKind::kRParen, "after parenthesized expression");
      return inner;
    }
    if (check(TokKind::kIdentifier)) {
      const std::string name = advance().text;
      if (match(TokKind::kLParen)) {
        auto call = std::make_unique<CallExpr>();
        call->loc = loc;
        call->callee = name;
        if (!check(TokKind::kRParen)) {
          do {
            call->args.push_back(parse_assignment());
          } while (match(TokKind::kComma));
        }
        expect(TokKind::kRParen, "after call arguments");
        return call;
      }
      if (check(TokKind::kLBracket)) {
        auto index = std::make_unique<ArrayIndexExpr>();
        index->loc = loc;
        index->array = name;
        while (match(TokKind::kLBracket)) {
          index->indices.push_back(parse_expression());
          expect(TokKind::kRBracket, "after array index");
        }
        return index;
      }
      auto ref = std::make_unique<VarRefExpr>();
      ref->loc = loc;
      ref->name = name;
      return ref;
    }
    fail(format("line %u: unexpected token '%s' in expression", loc.line,
                peek().kind == TokKind::kIdentifier ? peek().text.c_str()
                                                    : to_string(peek().kind)));
    advance();
    return std::make_unique<IntLitExpr>();
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< current nesting, bounded by kMaxParseDepth
  Status error_;
};

}  // namespace

Result<Program> parse(std::string_view source) {
  auto tokens = lex(source);
  if (!tokens.ok()) return tokens.status();
  return Parser(tokens.take()).run();
}

}  // namespace hermes::fe
