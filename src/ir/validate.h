// Structural validation of IR programs.
//
// ParseProgram runs this pass on every text input and rejects a program
// with issues; programs built through the builder API or generators can run
// it directly. Grapple's frontend assumes (and this pass checks) that:
//   * every local reference is in range and kind-correct (object vs int),
//   * loads/stores use object bases, events use object receivers,
//   * calls to in-program methods pass the right number of arguments with
//     matching kinds, and object-returning calls assign to object locals,
//   * return values match the method's declared return kind.
// External calls (unresolved names) are allowed — they model opaque APIs.
#ifndef GRAPPLE_SRC_IR_VALIDATE_H_
#define GRAPPLE_SRC_IR_VALIDATE_H_

#include <string>
#include <vector>

#include "src/ir/ir.h"

namespace grapple {

struct ValidationIssue {
  std::string method;
  int32_t line = -1;  // source line when available
  std::string message;

  std::string ToString() const;
};

// Returns every issue found (empty = valid).
std::vector<ValidationIssue> ValidateProgram(const Program& program);

}  // namespace grapple

#endif  // GRAPPLE_SRC_IR_VALIDATE_H_
