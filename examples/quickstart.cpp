// Quickstart: parse a program, run the built-in checkers, print warnings.
//
//   $ ./quickstart
//
// The program below leaks a FileWriter on the path where `attempts` exceeds
// the retry budget — the kind of control-flow-dependent resource bug that
// needs path sensitivity to report precisely.
#include <cstdio>

#include "src/checker/builtin_checkers.h"
#include "src/core/grapple.h"
#include "src/ir/parser.h"

namespace {

constexpr char kProgram[] = R"(
  method sendAll(obj w : FileWriter, int n) {
    int i
    i = n
    while (i > 0) {
      event w write
      i = i - 1
    }
    return
  }

  method main() {
    obj log : FileWriter
    int attempts
    int budget
    attempts = ?
    budget = 3
    log = new FileWriter
    event log open
    call sendAll(log, budget)
    if (attempts <= budget) {
      event log close
    }
    return
  }
)";

}  // namespace

int main() {
  grapple::ParseResult parsed = grapple::ParseProgram(kProgram);
  if (!parsed.ok) {
    std::fprintf(stderr, "parse error: %s\n", parsed.error.c_str());
    return 1;
  }

  grapple::Grapple analyzer(std::move(parsed.program));
  grapple::GrappleResult result = analyzer.Check(grapple::AllBuiltinCheckers());

  std::printf("analyzed in %.3fs: %zu warning(s)\n", result.report.total_seconds,
              result.TotalReports());
  for (const auto& checker : result.checkers) {
    for (const auto& report : checker.reports) {
      std::printf("  %s\n", report.ToString().c_str());
    }
  }
  return 0;
}
