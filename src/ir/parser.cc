#include "src/ir/parser.h"

#include <cctype>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "src/ir/validate.h"

namespace grapple {

namespace {

enum class TokKind { kIdent, kNumber, kPunct, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Token Next() {
    SkipSpaceAndComments();
    Token tok;
    tok.line = line_;
    if (pos_ >= text_.size()) {
      tok.kind = TokKind::kEnd;
      return tok;
    }
    char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_')) {
        ++pos_;
      }
      tok.kind = TokKind::kIdent;
      tok.text = text_.substr(start, pos_ - start);
      return tok;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && pos_ + 1 < text_.size() &&
         std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
      size_t start = pos_;
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      tok.kind = TokKind::kNumber;
      tok.text = text_.substr(start, pos_ - start);
      return tok;
    }
    // Multi-char comparison operators.
    static const char* kTwoChar[] = {"==", "!=", "<=", ">="};
    for (const char* op : kTwoChar) {
      if (text_.compare(pos_, 2, op) == 0) {
        tok.kind = TokKind::kPunct;
        tok.text = op;
        pos_ += 2;
        return tok;
      }
    }
    tok.kind = TokKind::kPunct;
    tok.text = std::string(1, c);
    ++pos_;
    return tok;
  }

 private:
  void SkipSpaceAndComments() {
    for (;;) {
      while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        if (text_[pos_] == '\n') {
          ++line_;
        }
        ++pos_;
      }
      if (pos_ + 1 < text_.size() && text_[pos_] == '/' && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') {
          ++pos_;
        }
        continue;
      }
      return;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  int line_ = 1;
};

class Parser {
 public:
  explicit Parser(const std::string& text) : lexer_(text) {
    cur_ = lexer_.Next();
    next_ = lexer_.Next();
  }

  ParseResult Run() {
    ParseResult result;
    while (ok_ && cur_.kind != TokKind::kEnd) {
      ParseMethod(&result.program);
    }
    result.ok = ok_;
    result.error = error_;
    return result;
  }

 private:
  void Advance() {
    cur_ = next_;
    next_ = lexer_.Next();
  }

  bool NextIsPunct(const std::string& text) const {
    return next_.kind == TokKind::kPunct && next_.text == text;
  }

  bool Fail(const std::string& message) { return FailAtLine(cur_.line, message, cur_.text); }

  bool FailAtLine(int line, const std::string& message, const std::string& context) {
    if (ok_) {
      ok_ = false;
      std::ostringstream out;
      out << "line " << line << ": " << message;
      if (!context.empty()) {
        out << " (at '" << context << "')";
      }
      error_ = out.str();
    }
    return false;
  }

  bool ExpectPunct(const std::string& text) {
    if (!ok_ || cur_.kind != TokKind::kPunct || cur_.text != text) {
      return Fail("expected '" + text + "'");
    }
    Advance();
    return true;
  }

  bool ExpectIdent(std::string* out) {
    if (!ok_ || cur_.kind != TokKind::kIdent) {
      return Fail("expected identifier");
    }
    *out = cur_.text;
    Advance();
    return true;
  }

  bool AtIdent(const std::string& text) const {
    return ok_ && cur_.kind == TokKind::kIdent && cur_.text == text;
  }
  bool AtPunct(const std::string& text) const {
    return ok_ && cur_.kind == TokKind::kPunct && cur_.text == text;
  }

  void ParseMethod(Program* program) {
    if (!AtIdent("method")) {
      Fail("expected 'method'");
      return;
    }
    Advance();
    std::string name;
    if (!ExpectIdent(&name)) {
      return;
    }
    method_ = Method();
    method_.name = name;
    if (!ExpectPunct("(")) {
      return;
    }
    if (!AtPunct(")")) {
      for (;;) {
        if (!ParseDecl(/*is_param=*/true)) {
          return;
        }
        if (AtPunct(",")) {
          Advance();
          continue;
        }
        break;
      }
    }
    if (!ExpectPunct(")")) {
      return;
    }
    method_.num_params = method_.locals.size();
    if (AtPunct(":")) {
      Advance();
      if (!AtIdent("obj")) {
        Fail("expected 'obj' return type");
        return;
      }
      Advance();
      std::string type;
      if (!ExpectIdent(&type)) {
        return;
      }
      method_.returns_object = true;
      method_.return_type = type;
    }
    std::vector<Stmt> body;
    if (!ParseBlock(&body)) {
      return;
    }
    method_.body = std::move(body);
    program->AddMethod(std::move(method_));
  }

  // Parses "{ item* }" into `block`.
  bool ParseBlock(std::vector<Stmt>* block) {
    if (!ExpectPunct("{")) {
      return false;
    }
    while (ok_ && !AtPunct("}")) {
      if (!ParseItem(block)) {
        return false;
      }
    }
    return ExpectPunct("}");
  }

  LocalId DeclareLocal(const std::string& name, bool is_object, const std::string& type) {
    for (size_t i = 0; i < method_.locals.size(); ++i) {
      if (method_.locals[i].name == name) {
        Fail("duplicate local '" + name + "'");
        return kNoLocal;
      }
    }
    method_.locals.push_back(Local{name, is_object, type});
    return static_cast<LocalId>(method_.locals.size() - 1);
  }

  // `line` is the identifier token's line (the cursor may have moved on).
  LocalId LookupLocal(const std::string& name, int line = -1) {
    auto id = method_.FindLocal(name);
    if (!id.has_value()) {
      FailAtLine(line >= 0 ? line : cur_.line, "unknown local '" + name + "'", name);
      return kNoLocal;
    }
    return *id;
  }

  bool ParseDecl(bool is_param) {
    if (AtIdent("int")) {
      Advance();
      std::string name;
      if (!ExpectIdent(&name)) {
        return false;
      }
      (void)is_param;
      return DeclareLocal(name, false, "") != kNoLocal;
    }
    if (AtIdent("obj")) {
      Advance();
      std::string name;
      if (!ExpectIdent(&name)) {
        return false;
      }
      if (!ExpectPunct(":")) {
        return false;
      }
      std::string type;
      if (!ExpectIdent(&type)) {
        return false;
      }
      return DeclareLocal(name, true, type) != kNoLocal;
    }
    return Fail("expected declaration");
  }

  bool ParseOperand(Operand* out) {
    if (cur_.kind == TokKind::kNumber) {
      *out = Operand::Const(std::strtoll(cur_.text.c_str(), nullptr, 10));
      Advance();
      return true;
    }
    if (cur_.kind == TokKind::kIdent) {
      LocalId id = LookupLocal(cur_.text);
      if (id == kNoLocal) {
        return false;
      }
      *out = Operand::Local(id);
      Advance();
      return true;
    }
    return Fail("expected operand");
  }

  bool ParseCond(CondExpr* out) {
    if (AtPunct("?")) {
      Advance();
      *out = CondExpr::Opaque();
      return true;
    }
    Operand lhs;
    if (!ParseOperand(&lhs)) {
      return false;
    }
    IrCmpOp op;
    if (AtPunct("==")) {
      op = IrCmpOp::kEq;
    } else if (AtPunct("!=")) {
      op = IrCmpOp::kNe;
    } else if (AtPunct("<=")) {
      op = IrCmpOp::kLe;
    } else if (AtPunct(">=")) {
      op = IrCmpOp::kGe;
    } else if (AtPunct("<")) {
      op = IrCmpOp::kLt;
    } else if (AtPunct(">")) {
      op = IrCmpOp::kGt;
    } else {
      return Fail("expected comparison operator");
    }
    Advance();
    Operand rhs;
    if (!ParseOperand(&rhs)) {
      return false;
    }
    *out = CondExpr::Compare(lhs, op, rhs);
    return true;
  }

  bool ParseCallArgs(std::vector<LocalId>* args) {
    if (!ExpectPunct("(")) {
      return false;
    }
    if (!AtPunct(")")) {
      for (;;) {
        std::string arg;
        if (!ExpectIdent(&arg)) {
          return false;
        }
        LocalId id = LookupLocal(arg);
        if (id == kNoLocal) {
          return false;
        }
        args->push_back(id);
        if (AtPunct(",")) {
          Advance();
          continue;
        }
        break;
      }
    }
    return ExpectPunct(")");
  }

  bool ParseItem(std::vector<Stmt>* block) {
    int line = cur_.line;
    if (AtIdent("int") || AtIdent("obj")) {
      return ParseDecl(/*is_param=*/false);
    }
    if (AtIdent("event")) {
      Advance();
      std::string recv;
      std::string event;
      if (!ExpectIdent(&recv) || !ExpectIdent(&event)) {
        return false;
      }
      LocalId id = LookupLocal(recv);
      if (id == kNoLocal) {
        return false;
      }
      Stmt s;
      s.kind = StmtKind::kEvent;
      s.src = id;
      s.event = event;
      s.source_line = line;
      block->push_back(std::move(s));
      return true;
    }
    if (AtIdent("return")) {
      Advance();
      Stmt s;
      s.kind = StmtKind::kReturn;
      s.source_line = line;
      // A following identifier is the return value unless it starts the next
      // statement (assignment or store).
      if (cur_.kind == TokKind::kIdent && !IsKeyword(cur_.text) && !NextIsPunct("=") &&
          !NextIsPunct(".") && !NextIsPunct("(")) {
        LocalId id = LookupLocal(cur_.text);
        if (id == kNoLocal) {
          return false;
        }
        s.src = id;
        Advance();
      }
      block->push_back(std::move(s));
      return true;
    }
    if (AtIdent("if")) {
      Advance();
      if (!ExpectPunct("(")) {
        return false;
      }
      Stmt s;
      s.kind = StmtKind::kIf;
      s.source_line = line;
      if (!ParseCond(&s.cond) || !ExpectPunct(")")) {
        return false;
      }
      if (!ParseBlock(&s.then_block)) {
        return false;
      }
      if (AtIdent("else")) {
        Advance();
        if (!ParseBlock(&s.else_block)) {
          return false;
        }
      }
      block->push_back(std::move(s));
      return true;
    }
    if (AtIdent("while")) {
      Advance();
      if (!ExpectPunct("(")) {
        return false;
      }
      Stmt s;
      s.kind = StmtKind::kWhile;
      s.source_line = line;
      if (!ParseCond(&s.cond) || !ExpectPunct(")")) {
        return false;
      }
      if (!ParseBlock(&s.then_block)) {
        return false;
      }
      block->push_back(std::move(s));
      return true;
    }
    if (AtIdent("call")) {
      Advance();
      std::string callee;
      if (!ExpectIdent(&callee)) {
        return false;
      }
      Stmt s;
      s.kind = StmtKind::kCall;
      s.callee = callee;
      s.source_line = line;
      if (!ParseCallArgs(&s.args)) {
        return false;
      }
      block->push_back(std::move(s));
      return true;
    }
    // Assignment-like statements start with an identifier.
    std::string first;
    if (!ExpectIdent(&first)) {
      return false;
    }
    LocalId target = LookupLocal(first);
    if (target == kNoLocal) {
      return false;
    }
    if (AtPunct(".")) {
      // store: base.field = src
      Advance();
      std::string field;
      if (!ExpectIdent(&field) || !ExpectPunct("=")) {
        return false;
      }
      std::string src;
      if (!ExpectIdent(&src)) {
        return false;
      }
      LocalId src_id = LookupLocal(src);
      if (src_id == kNoLocal) {
        return false;
      }
      Stmt s;
      s.kind = StmtKind::kStore;
      s.base = target;
      s.field = field;
      s.src = src_id;
      s.source_line = line;
      block->push_back(std::move(s));
      return true;
    }
    if (!ExpectPunct("=")) {
      return false;
    }
    return ParseRhs(target, line, block);
  }

  bool ParseRhs(LocalId dst, int line, std::vector<Stmt>* block) {
    Stmt s;
    s.dst = dst;
    s.source_line = line;
    if (AtIdent("new")) {
      Advance();
      std::string type;
      if (!ExpectIdent(&type)) {
        return false;
      }
      s.kind = StmtKind::kAlloc;
      s.type_name = type;
      block->push_back(std::move(s));
      return true;
    }
    if (AtPunct("?")) {
      Advance();
      s.kind = StmtKind::kHavoc;
      block->push_back(std::move(s));
      return true;
    }
    if (cur_.kind == TokKind::kNumber) {
      s.kind = StmtKind::kConstInt;
      s.const_value = std::strtoll(cur_.text.c_str(), nullptr, 10);
      Advance();
      // Allow "x = 3 + y" style binops starting with a number.
      if (AtPunct("+") || AtPunct("-") || AtPunct("*")) {
        Operand lhs = Operand::Const(s.const_value);
        return FinishBinOp(dst, line, lhs, block);
      }
      block->push_back(std::move(s));
      return true;
    }
    if (cur_.kind == TokKind::kIdent) {
      std::string name = cur_.text;
      int name_line = cur_.line;
      Advance();
      if (AtPunct("(")) {
        // call with result
        s.kind = StmtKind::kCall;
        s.callee = name;
        if (!ParseCallArgs(&s.args)) {
          return false;
        }
        block->push_back(std::move(s));
        return true;
      }
      LocalId src = LookupLocal(name, name_line);
      if (src == kNoLocal) {
        return false;
      }
      if (AtPunct(".")) {
        // load
        Advance();
        std::string field;
        if (!ExpectIdent(&field)) {
          return false;
        }
        s.kind = StmtKind::kLoad;
        s.base = src;
        s.field = field;
        block->push_back(std::move(s));
        return true;
      }
      if (AtPunct("+") || AtPunct("-") || AtPunct("*")) {
        return FinishBinOp(dst, line, Operand::Local(src), block);
      }
      // Plain copy. Object copies become kAssign; integer copies become a
      // kBinOp with +0 so symbolic execution sees them uniformly.
      if (method_.locals[src].is_object) {
        s.kind = StmtKind::kAssign;
        s.src = src;
      } else {
        s.kind = StmtKind::kBinOp;
        s.lhs = Operand::Local(src);
        s.bin_op = IrBinOp::kAdd;
        s.rhs = Operand::Const(0);
      }
      block->push_back(std::move(s));
      return true;
    }
    return Fail("expected right-hand side");
  }

  bool FinishBinOp(LocalId dst, int line, Operand lhs, std::vector<Stmt>* block) {
    IrBinOp op;
    if (AtPunct("+")) {
      op = IrBinOp::kAdd;
    } else if (AtPunct("-")) {
      op = IrBinOp::kSub;
    } else if (AtPunct("*")) {
      op = IrBinOp::kMul;
    } else {
      return Fail("expected binary operator");
    }
    Advance();
    Operand rhs;
    if (!ParseOperand(&rhs)) {
      return false;
    }
    Stmt s;
    s.kind = StmtKind::kBinOp;
    s.dst = dst;
    s.lhs = lhs;
    s.bin_op = op;
    s.rhs = rhs;
    s.source_line = line;
    block->push_back(std::move(s));
    return true;
  }

  static bool IsKeyword(const std::string& text) {
    return text == "method" || text == "int" || text == "obj" || text == "new" ||
           text == "event" || text == "return" || text == "if" || text == "else" ||
           text == "while" || text == "call";
  }

  Lexer lexer_;
  Token cur_;
  Token next_;
  Method method_;
  bool ok_ = true;
  std::string error_;
};

}  // namespace

ParseResult ParseProgram(const std::string& text) {
  Parser parser(text);
  ParseResult result = parser.Run();
  if (!result.ok) {
    return result;
  }
  // The grammar admits programs the frontend cannot analyze soundly (e.g. a
  // call with the wrong arity), so text input is validated here, once.
  for (const ValidationIssue& issue : ValidateProgram(result.program)) {
    result.ok = false;
    result.error += (result.error.empty() ? "" : "; ") + issue.ToString();
  }
  return result;
}

}  // namespace grapple
