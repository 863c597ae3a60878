#include <gtest/gtest.h>

#include "src/ir/parser.h"

namespace grapple {
namespace {

TEST(ParserTest, ParsesAllStatementForms) {
  ParseResult result = ParseProgram(R"(
    // comment
    method helper(obj g : FileWriter, int c) : obj FileWriter {
      int t
      t = c + 1
      event g close
      return g
    }
    method main() {
      obj f : FileWriter
      obj h : Holder
      obj g : FileWriter
      int x
      int y
      x = ?
      y = 5
      y = x - 2
      y = 3 * x
      f = new FileWriter
      h = new Holder
      h.stream = f
      g = h.stream
      if (x >= 0) {
        event f open
      } else {
        y = y + 1
      }
      while (y > 0) {
        y = y - 1
      }
      g = helper(f, y)
      call helper(g, x)
      return
    }
  )");
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.program.NumMethods(), 2u);
  const Method& helper = result.program.MethodAt(0);
  EXPECT_EQ(helper.num_params, 2u);
  EXPECT_TRUE(helper.returns_object);
  EXPECT_EQ(helper.return_type, "FileWriter");
  const Method& main = result.program.MethodAt(*result.program.FindMethod("main"));
  // x=?; y=5; y=x-2; y=3*x; f=new; h=new; store; load; if; while; call; call; return
  ASSERT_GE(main.body.size(), 12u);
  EXPECT_EQ(main.body[0].kind, StmtKind::kHavoc);
  EXPECT_EQ(main.body[1].kind, StmtKind::kConstInt);
  EXPECT_EQ(main.body[2].kind, StmtKind::kBinOp);
  EXPECT_EQ(main.body[2].bin_op, IrBinOp::kSub);
  EXPECT_EQ(main.body[3].bin_op, IrBinOp::kMul);
  EXPECT_EQ(main.body[4].kind, StmtKind::kAlloc);
  EXPECT_EQ(main.body[6].kind, StmtKind::kStore);
  EXPECT_EQ(main.body[6].field, "stream");
  EXPECT_EQ(main.body[7].kind, StmtKind::kLoad);
  EXPECT_EQ(main.body[8].kind, StmtKind::kIf);
  EXPECT_EQ(main.body[9].kind, StmtKind::kWhile);
  EXPECT_EQ(main.body[10].kind, StmtKind::kCall);
  EXPECT_EQ(main.body[10].dst, *main.FindLocal("g"));
  EXPECT_EQ(main.body[11].kind, StmtKind::kCall);
  EXPECT_EQ(main.body[11].dst, kNoLocal);
}

TEST(ParserTest, ReturnValueVsNextStatement) {
  // `return` directly followed by an assignment must not swallow the
  // identifier.
  ParseResult result = ParseProgram(R"(
    method m() {
      int x
      int y
      x = 1
      if (x > 0) {
        return
      }
      y = 2
      return y
    }
  )");
  ASSERT_TRUE(result.ok) << result.error;
  const Method& m = result.program.MethodAt(0);
  ASSERT_EQ(m.body.size(), 4u);
  EXPECT_EQ(m.body[1].then_block[0].kind, StmtKind::kReturn);
  EXPECT_EQ(m.body[1].then_block[0].src, kNoLocal);
  EXPECT_EQ(m.body[2].kind, StmtKind::kConstInt);
  EXPECT_EQ(m.body[3].src, *m.FindLocal("y"));
}

TEST(ParserTest, ObjectCopyVsIntCopy) {
  ParseResult result = ParseProgram(R"(
    method m() {
      obj a : T
      obj b : T
      int x
      int y
      a = new T
      b = a
      x = 3
      y = x
      return
    }
  )");
  ASSERT_TRUE(result.ok) << result.error;
  const Method& m = result.program.MethodAt(0);
  EXPECT_EQ(m.body[1].kind, StmtKind::kAssign);  // object copy
  EXPECT_EQ(m.body[3].kind, StmtKind::kBinOp);   // int copy lowered to +0
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  ParseResult result = ParseProgram("method m() {\n  int x\n  x = nope\n}\n");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("line 3"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find("nope"), std::string::npos) << result.error;
}

TEST(ParserTest, RejectsUnknownLocal) {
  ParseResult result = ParseProgram("method m() { event ghost close\n return }");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown local"), std::string::npos);
}

TEST(ParserTest, RejectsDuplicateLocal) {
  ParseResult result = ParseProgram("method m() { int x\n int x\n return }");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("duplicate"), std::string::npos);
}

// Well-formed syntax is not enough: ParseProgram also runs ValidateProgram,
// so a call with the wrong arity fails with the validation issue.
TEST(ParserTest, RejectsCallArityMismatch) {
  ParseResult result = ParseProgram(
      "method callee(obj t : T, int k) {\n  return\n}\n"
      "method main() {\n  obj t : T\n  t = new T\n  call callee(t)\n  return\n}\n");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("main:7: call to callee passes 1 args, expected 2"),
            std::string::npos)
      << result.error;
}

TEST(ParserTest, RejectsMissingBrace) {
  ParseResult result = ParseProgram("method m() { return ");
  EXPECT_FALSE(result.ok);
}

TEST(ParserTest, PrintParseRoundTrip) {
  const char* source = R"(
    method work(int n) {
      obj f : FileWriter
      int i
      i = n
      f = new FileWriter
      event f open
      while (i > 0) {
        event f write
        i = i - 1
      }
      if (i <= 0) {
        event f close
      }
      return
    }
  )";
  ParseResult first = ParseProgram(source);
  ASSERT_TRUE(first.ok) << first.error;
  std::string printed = first.program.ToString();
  ParseResult second = ParseProgram(printed);
  ASSERT_TRUE(second.ok) << second.error << "\nprinted:\n" << printed;
  EXPECT_EQ(printed, second.program.ToString());
}

TEST(ParserTest, NegativeNumbers) {
  ParseResult result = ParseProgram(R"(
    method m() {
      int x
      x = -5
      if (x < -1) {
        x = x + -3
      }
      return
    }
  )");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.program.MethodAt(0).body[0].const_value, -5);
}

}  // namespace
}  // namespace grapple
