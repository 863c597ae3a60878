// Text format for FSM property specifications, so new checkers can be
// defined without recompiling (used by examples/analyze_file --fsm).
//
// Format (line-oriented; '#' starts a comment):
//
//   fsm io
//   types FileWriter FileReader
//   state Init accept initial
//   state Open
//   state Closed accept
//   event Init open Open          # from-state, event-name, to-state
//   event Open write Open
//   event Open close Closed
//
// The first `state` line is the initial state unless another carries
// `initial`; at most one may. At least one state must be `accept`.
// Undefined (state, event) pairs are erroneous, exactly as with the
// built-in checkers (checker.h completes the FSM with an error sink).
#ifndef GRAPPLE_SRC_CHECKER_FSM_PARSER_H_
#define GRAPPLE_SRC_CHECKER_FSM_PARSER_H_

#include <string>

#include "src/checker/fsm.h"

namespace grapple {

struct FsmParseResult {
  bool ok = false;
  std::string error;  // "line N: message" when !ok
  FsmSpec spec{Fsm("invalid"), {}};
};

FsmParseResult ParseFsmSpec(const std::string& text);

// Renders a spec back to the text format (round-trips through ParseFsmSpec).
std::string FsmSpecToString(const FsmSpec& spec);

}  // namespace grapple

#endif  // GRAPPLE_SRC_CHECKER_FSM_PARSER_H_
