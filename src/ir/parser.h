// Text format parser for the Grapple IR.
//
// Grammar (line comments start with "//"):
//
//   program  := method*
//   method   := "method" NAME "(" params? ")" [":" "obj" TYPE] "{" item* "}"
//   param    := "int" NAME | "obj" NAME ":" TYPE
//   item     := decl | stmt
//   decl     := "int" NAME | "obj" NAME ":" TYPE
//   stmt     := NAME "=" rhs
//            | NAME "." FIELD "=" NAME            // store
//            | "event" NAME EVENTNAME             // e.g. event out close
//            | "return" [NAME]
//            | "if" "(" cond ")" "{" item* "}" ["else" "{" item* "}"]
//            | "while" "(" cond ")" "{" item* "}"
//            | "call" NAME "(" args? ")"          // void call
//   rhs      := "new" TYPE
//            | "?"                                // havoc (unknown int)
//            | NUMBER
//            | NAME "." FIELD                     // load
//            | NAME "(" args? ")"                 // call with result
//            | operand (("+"|"-"|"*") operand)?   // binop / copy
//   cond     := "?" | operand CMP operand         // CMP in == != < <= > >=
//   operand  := NUMBER | NAME
//
// Example:
//   method main() {
//     obj out : FileWriter
//     int x
//     x = ?
//     if (x >= 0) { out = new FileWriter  event out open }
//     if (x > 0) { event out close }
//     return
//   }
#ifndef GRAPPLE_SRC_IR_PARSER_H_
#define GRAPPLE_SRC_IR_PARSER_H_

#include <string>

#include "src/ir/ir.h"

namespace grapple {

struct ParseResult {
  bool ok = false;
  std::string error;  // "line N: message", or ValidationIssue texts, when !ok
  Program program;
};

// Fails on syntax errors and on well-formedness issues (ir/validate.h).
ParseResult ParseProgram(const std::string& text);

}  // namespace grapple

#endif  // GRAPPLE_SRC_IR_PARSER_H_
