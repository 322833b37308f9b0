// Tests for the C-subset lexer, parser and type checker.
#include <gtest/gtest.h>

#include <string>

#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"
#include "frontend/typecheck.hpp"

namespace hermes::fe {
namespace {

TEST(Lexer, TokenKinds) {
  auto tokens = lex("int x = 0x1F + 42; // comment\n /* block */ x <<= 1;");
  ASSERT_TRUE(tokens.ok()) << tokens.status().to_string();
  const auto& t = tokens.value();
  EXPECT_EQ(t[0].kind, TokKind::kIdentifier);  // 'int' resolves in the parser
  EXPECT_EQ(t[0].text, "int");
  EXPECT_EQ(t[1].text, "x");
  EXPECT_EQ(t[2].kind, TokKind::kAssign);
  EXPECT_EQ(t[3].kind, TokKind::kIntLiteral);
  EXPECT_EQ(t[3].int_value, 0x1Fu);
  EXPECT_EQ(t[4].kind, TokKind::kPlus);
  EXPECT_EQ(t[5].int_value, 42u);
}

TEST(Lexer, IntegerSuffixesIgnored) {
  auto tokens = lex("1u 2UL 3ll 0xFFull");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].int_value, 1u);
  EXPECT_EQ(tokens.value()[1].int_value, 2u);
  EXPECT_EQ(tokens.value()[2].int_value, 3u);
  EXPECT_EQ(tokens.value()[3].int_value, 0xFFu);
}

TEST(Lexer, TracksLineNumbers) {
  auto tokens = lex("a\nb\n  c");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].loc.line, 1u);
  EXPECT_EQ(tokens.value()[1].loc.line, 2u);
  EXPECT_EQ(tokens.value()[2].loc.line, 3u);
}

TEST(Lexer, RejectsUnknownCharacter) {
  EXPECT_FALSE(lex("int a = `;").ok());
  EXPECT_FALSE(lex("/* unterminated").ok());
}

TEST(Lexer, TwoCharOperators) {
  auto tokens = lex("<= >= == != && || << >> += -= *= ++ --");
  ASSERT_TRUE(tokens.ok());
  const TokKind expect[] = {
      TokKind::kLe, TokKind::kGe, TokKind::kEqEq, TokKind::kNe,
      TokKind::kAmpAmp, TokKind::kPipePipe, TokKind::kShl, TokKind::kShr,
      TokKind::kPlusAssign, TokKind::kMinusAssign, TokKind::kStarAssign,
      TokKind::kPlusPlus, TokKind::kMinusMinus};
  for (std::size_t i = 0; i < std::size(expect); ++i) {
    EXPECT_EQ(tokens.value()[i].kind, expect[i]) << i;
  }
}

TEST(TypeNames, AllSupported) {
  Type type;
  EXPECT_TRUE(parse_type_name("int8_t", type));
  EXPECT_EQ(type.bits, 8u);
  EXPECT_TRUE(type.is_signed);
  EXPECT_TRUE(parse_type_name("uint64_t", type));
  EXPECT_EQ(type.bits, 64u);
  EXPECT_FALSE(type.is_signed);
  EXPECT_TRUE(parse_type_name("unsigned", type));
  EXPECT_EQ(type.bits, 32u);
  EXPECT_FALSE(parse_type_name("float", type));
  EXPECT_FALSE(parse_type_name("double", type));
}

TEST(Parser, FunctionWithParams) {
  auto program = parse("int f(int a, const uint8_t buf[16]) { return a; }");
  ASSERT_TRUE(program.ok()) << program.status().to_string();
  ASSERT_EQ(program.value().functions.size(), 1u);
  const FuncDecl& fn = program.value().functions[0];
  EXPECT_EQ(fn.name, "f");
  ASSERT_EQ(fn.params.size(), 2u);
  EXPECT_EQ(fn.params[0].array_size, 0u);
  EXPECT_EQ(fn.params[1].array_size, 16u);
  EXPECT_TRUE(fn.params[1].is_const);
  EXPECT_EQ(fn.params[1].type.bits, 8u);
}

TEST(Parser, VoidParameterList) {
  auto program = parse("int f(void) { return 1; }");
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(program.value().functions[0].params.empty());
}

TEST(Parser, OperatorPrecedence) {
  // 2 + 3 * 4 must parse as 2 + (3 * 4).
  auto program = parse("int f() { return 2 + 3 * 4; }");
  ASSERT_TRUE(program.ok());
  const auto& ret = static_cast<const ReturnStmt&>(
      *program.value().functions[0].body->body[0]);
  const auto& add = static_cast<const BinaryExpr&>(*ret.value);
  EXPECT_EQ(add.op, BinaryOp::kAdd);
  EXPECT_EQ(static_cast<const BinaryExpr&>(*add.rhs).op, BinaryOp::kMul);
}

TEST(Parser, ShiftVsRelationalPrecedence) {
  // a << 2 > b must parse as (a << 2) > b.
  auto program = parse("bool f(int a, int b) { return a << 2 > b; }");
  ASSERT_TRUE(program.ok());
  const auto& ret = static_cast<const ReturnStmt&>(
      *program.value().functions[0].body->body[0]);
  const auto& cmp = static_cast<const BinaryExpr&>(*ret.value);
  EXPECT_EQ(cmp.op, BinaryOp::kGt);
  EXPECT_EQ(static_cast<const BinaryExpr&>(*cmp.lhs).op, BinaryOp::kShl);
}

TEST(Parser, CompoundAssignDesugars) {
  auto program = parse("void f() { int x = 0; x += 5; }");
  ASSERT_TRUE(program.ok());
  const auto& stmt = static_cast<const ExprStmt&>(
      *program.value().functions[0].body->body[1]);
  ASSERT_EQ(stmt.expr->kind, Expr::Kind::kAssign);
  const auto& assign = static_cast<const AssignExpr&>(*stmt.expr);
  EXPECT_EQ(assign.value->kind, Expr::Kind::kBinary);
}

TEST(Parser, ArrayInitializer) {
  auto program = parse("void f() { int t[4] = {1, -2, 3}; }");
  ASSERT_TRUE(program.ok());
  const auto& decl = static_cast<const VarDeclStmt&>(
      *program.value().functions[0].body->body[0]);
  ASSERT_EQ(decl.array_init.size(), 3u);
  EXPECT_EQ(decl.array_init[1], static_cast<std::uint64_t>(-2));
}

TEST(Parser, ControlFlowForms) {
  auto program = parse(R"(
    void f(int n) {
      for (int i = 0; i < n; i = i + 1) { }
      while (n > 0) { n = n - 1; }
      do { n = n + 1; } while (n < 4);
      if (n == 4) { n = 0; } else { n = 1; }
      for (;;) { break; }
    }
  )");
  ASSERT_TRUE(program.ok()) << program.status().to_string();
}

TEST(Parser, TernaryAndCast) {
  auto program = parse("int f(int a) { return a > 0 ? (int16_t)a : -1; }");
  ASSERT_TRUE(program.ok()) << program.status().to_string();
}

TEST(Parser, RejectsMalformedInputs) {
  EXPECT_FALSE(parse("int f( { }").ok());
  EXPECT_FALSE(parse("int f() { return 1 }").ok());    // missing semicolon
  EXPECT_FALSE(parse("int f() { int a[x]; }").ok());   // non-const array size
  EXPECT_FALSE(parse("f() { }").ok());                  // missing return type
  EXPECT_FALSE(parse("int f() { if a { } }").ok());     // missing parens
}

// ---- type checker ----

Status check(std::string_view source) {
  auto program = parse(source);
  if (!program.ok()) return program.status();
  return typecheck(program.value());
}

// ---- nesting bound ----

std::string repeat(std::string_view text, std::size_t count) {
  std::string out;
  out.reserve(text.size() * count);
  for (std::size_t i = 0; i < count; ++i) out += text;
  return out;
}

// Kernels nesting exactly `depth` levels (see kMaxParseDepth). The function
// body's `return` statement is level 1 and its expression level 2; the body
// block itself is not a statement.
std::string nested_parens(std::size_t depth) {
  return "int f(int x) { return " + repeat("(", depth - 2) + "x" +
         repeat(")", depth - 2) + "; }";
}
std::string nested_blocks(std::size_t depth) {
  return "void f() {" + repeat("{", depth) + repeat("}", depth) + "}";
}
std::string operator_chain(std::size_t depth) {
  return "int f(int x) { return x" + repeat("+x", depth - 2) + "; }";
}
std::string unary_chain(std::size_t depth) {
  return "int f(int x) { return " + repeat("~", depth - 2) + "x; }";
}

void expect_too_deep(const std::string& source) {
  const auto program = parse(source);
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), ErrorCode::kParseError);
  EXPECT_NE(program.status().message().find(std::to_string(kMaxParseDepth)),
            std::string::npos)
      << program.status().message();
}

TEST(ParseDepth, HostileNestingIsAParseErrorNotACrash) {
  // Each of these overflowed the stack before the bound: the parser on the
  // first two, the type checker on the left-deep tree of the third.
  expect_too_deep(nested_parens(100'000));
  expect_too_deep(nested_blocks(100'000));
  expect_too_deep("int f() { int x = 0; x = 1" + repeat("+1", 50'000) +
                  "; return x; }");
  expect_too_deep(unary_chain(100'000));
  // A postfix chain is already an invalid assignment target at its second
  // operator; the bound still keeps its tree shallow.
  EXPECT_EQ(parse("int f(int x) { return x" + repeat("++", 100'000) + "; }")
                .status()
                .code(),
            ErrorCode::kParseError);
  expect_too_deep("int f(int x) { x" + repeat(" = x", 100'000) + "; return x; }");
  expect_too_deep("int f(int x) { return " + repeat("x ? x : ", 100'000) +
                  "x; }");
}

TEST(ParseDepth, ExactlyAtTheLimitCompilesOneMoreFails) {
  for (const auto& shape :
       {nested_parens, nested_blocks, operator_chain, unary_chain}) {
    EXPECT_TRUE(check(shape(kMaxParseDepth)).ok())
        << check(shape(kMaxParseDepth)).message();
    expect_too_deep(shape(kMaxParseDepth + 1));
  }
}

TEST(Typecheck, AcceptsValidProgram) {
  EXPECT_TRUE(check(R"(
    int helper(int x) { return x * 2; }
    int top(int a, int b, int data[8]) {
      int acc = helper(a);
      for (int i = 0; i < 8; i = i + 1) {
        acc = acc + data[i] * b;
      }
      return acc;
    }
  )").ok());
}

TEST(Typecheck, UndeclaredVariable) {
  const Status status = check("int f() { return missing; }");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kTypeError);
}

TEST(Typecheck, Redeclaration) {
  EXPECT_FALSE(check("int f() { int a = 0; int a = 1; return a; }").ok());
}

TEST(Typecheck, ShadowingInNestedScopeAllowed) {
  EXPECT_TRUE(check("int f() { int a = 0; { int a = 1; a = a; } return a; }").ok());
}

TEST(Typecheck, ArrayUsedAsScalar) {
  EXPECT_FALSE(check("int f(int a[4]) { return a; }").ok());
}

TEST(Typecheck, ScalarIndexed) {
  EXPECT_FALSE(check("int f(int a) { return a[0]; }").ok());
}

TEST(Typecheck, AssignToArrayRejected) {
  EXPECT_FALSE(check("void f(int a[4]) { a = 0; }").ok());
}

TEST(Typecheck, ConstArrayWriteRejected) {
  EXPECT_FALSE(check("void f(const int a[4]) { a[0] = 1; }").ok());
}

TEST(Typecheck, CallArity) {
  EXPECT_FALSE(check("int g(int x) { return x; } int f() { return g(); }").ok());
  EXPECT_FALSE(check("int g(int x) { return x; } int f() { return g(1, 2); }").ok());
}

TEST(Typecheck, ArrayArgumentSizeMustMatch) {
  EXPECT_FALSE(check(R"(
    int g(int a[8]) { return a[0]; }
    int f(int b[4]) { return g(b); }
  )").ok());
}

TEST(Typecheck, UndefinedCallee) {
  EXPECT_FALSE(check("int f() { return nothere(1); }").ok());
}

TEST(Typecheck, RecursionRejected) {
  const Status direct = check("int f(int n) { return f(n - 1); }");
  EXPECT_FALSE(direct.ok());
  const Status mutual = check(R"(
    int a(int n) { return b(n); }
    int b(int n) { return a(n); }
  )");
  EXPECT_FALSE(mutual.ok());
}

TEST(Typecheck, BreakOutsideLoop) {
  EXPECT_FALSE(check("void f() { break; }").ok());
  EXPECT_FALSE(check("void f() { continue; }").ok());
}

TEST(Typecheck, ReturnTypeRules) {
  EXPECT_FALSE(check("void f() { return 1; }").ok());
  EXPECT_FALSE(check("int f() { return; }").ok());
}

TEST(Typecheck, UsualArithmeticConversions) {
  // Narrow types promote to int32; mixed signedness at equal width -> unsigned.
  const Type i8 = Type::Int(8, true);
  const Type u32 = Type::Int(32, false);
  const Type i64 = Type::Int(64, true);
  EXPECT_EQ(arithmetic_result(i8, i8), Type::Int(32, true));
  EXPECT_EQ(arithmetic_result(i8, u32), Type::Int(32, false));
  EXPECT_EQ(arithmetic_result(u32, i64), Type::Int(64, true));
  EXPECT_EQ(arithmetic_result(Type::Bool(), Type::Bool()), Type::Int(32, true));
}

TEST(Typecheck, ExpressionTypesAnnotated) {
  auto program = parse("bool f(int a, int b) { return a < b; }");
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(typecheck(program.value()).ok());
  const auto& ret = static_cast<const ReturnStmt&>(
      *program.value().functions[0].body->body[0]);
  EXPECT_EQ(ret.value->type, Type::Bool());
}

}  // namespace
}  // namespace hermes::fe

// Multi-dimensional array tests appended as a separate suite.
namespace hermes::fe {
namespace {

TEST(MultiDim, ParserCapturesDims) {
  auto program = parse("int f(int m[4][8], int v[8]) { return m[1][2] + v[3]; }");
  ASSERT_TRUE(program.ok()) << program.status().to_string();
  const FuncDecl& fn = program.value().functions[0];
  EXPECT_EQ(fn.params[0].dims, (std::vector<std::size_t>{4, 8}));
  EXPECT_EQ(fn.params[0].array_size, 32u);
  EXPECT_EQ(fn.params[1].dims, (std::vector<std::size_t>{8}));
  EXPECT_TRUE(typecheck(program.value()).ok());
}

TEST(MultiDim, DimensionCountEnforced) {
  auto too_few = parse("int f(int m[4][8]) { return m[1]; }");
  ASSERT_TRUE(too_few.ok());
  EXPECT_FALSE(typecheck(too_few.value()).ok());

  auto too_many = parse("int f(int v[8]) { return v[1][2]; }");
  ASSERT_TRUE(too_many.ok());
  EXPECT_FALSE(typecheck(too_many.value()).ok());
}

TEST(MultiDim, ArgumentDimsMustMatch) {
  // Same flattened size (32) but different shape: rejected.
  auto program = parse(R"(
    int g(int m[4][8]) { return m[0][0]; }
    int f(int m[8][4]) { return g(m); }
  )");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(typecheck(program.value()).ok());
}

TEST(MultiDim, LocalDeclarations) {
  auto program = parse(R"(
    int f() {
      int grid[3][3];
      for (int i = 0; i < 3; i = i + 1) {
        for (int j = 0; j < 3; j = j + 1) {
          grid[i][j] = i * 10 + j;
        }
      }
      return grid[2][1];
    }
  )");
  ASSERT_TRUE(program.ok()) << program.status().to_string();
  EXPECT_TRUE(typecheck(program.value()).ok());
}

}  // namespace
}  // namespace hermes::fe
