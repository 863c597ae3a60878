// A small command-line front door: analyze a program file with selected
// checkers.
//
//   $ ./analyze_file program.grap [io|lock|except|socket ...]
//                    [--fsm spec.fsm] [--stats] [--json] [--explain]
//                    [--work-dir dir]
//
// With no checker arguments, all four built-in checkers run; --fsm adds a
// property defined in the text format of src/checker/fsm_parser.h; --stats
// prints per-phase engine statistics; --explain ("grapple-explain" mode)
// renders each bug's decoded derivation witness — the step-by-step
// counterexample trace recovered from edge-induction provenance, annotated
// with FSM states, source lines, and the path constraint that makes the
// trace feasible. --work-dir puts the engines' work dirs in a persistent
// directory instead of a private temp dir. Each engine run removes its dir
// when it ends, unless GRAPPLE_CHECKPOINT=on: then partition spills and
// checkpoint manifests are kept, and a killed run rerun with the same
// arguments resumes (see DESIGN.md §11). The program input uses the IR text format
// (see src/ir/parser.h for the grammar); example files live in
// examples/testdata/.
//
// The GRAPPLE_* option knobs (see ApplyEnvOverrides in src/core/grapple.h)
// apply on top of the defaults and the flags, and the result is validated
// before any analysis runs. GRAPPLE_METRICS=<path> writes the run report
// (schema grapple.run_report.v1) there after the run.
//
// Post-mortem decoding lives in tools/: `grapple-flightrec --json` for a
// flight-recorder crash dump (DESIGN.md §12), `grapple-prof --collapsed`
// for a sampling-profiler ledger (DESIGN.md §13).
//
// Exit codes: 0 no warnings, 1 warnings, 2 usage/parse/option error, 3
// (--explain only) a witness could not be decoded (witness_unavailable
// degradation) or a checker run was degraded by an I/O failure.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/checker/builtin_checkers.h"
#include "src/checker/fsm_parser.h"
#include "src/checker/report_json.h"
#include "src/core/grapple.h"
#include "src/ir/parser.h"
#include "src/support/env.h"

namespace {

bool ReadFile(const char* path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <program.grap> [io|lock|except|socket ...] [--fsm spec.fsm] "
                 "[--stats] [--json] [--explain] [--work-dir dir]\n",
                 argv[0]);
    return 2;
  }
  std::string source;
  if (!ReadFile(argv[1], &source)) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 2;
  }

  grapple::ParseResult parsed = grapple::ParseProgram(source);
  if (!parsed.ok) {
    std::fprintf(stderr, "%s: %s\n", argv[1], parsed.error.c_str());
    return 2;
  }

  std::vector<grapple::FsmSpec> specs;
  bool print_stats = false;
  bool print_json = false;
  bool explain = false;
  std::string work_dir;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) {
      print_stats = true;
      continue;
    }
    if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
      continue;
    }
    if (std::strcmp(argv[i], "--json") == 0) {
      print_json = true;
      continue;
    }
    if (std::strcmp(argv[i], "--work-dir") == 0 && i + 1 < argc) {
      work_dir = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--fsm") == 0 && i + 1 < argc) {
      std::string fsm_text;
      if (!ReadFile(argv[++i], &fsm_text)) {
        std::fprintf(stderr, "cannot open FSM spec %s\n", argv[i]);
        return 2;
      }
      grapple::FsmParseResult fsm = grapple::ParseFsmSpec(fsm_text);
      if (!fsm.ok) {
        std::fprintf(stderr, "%s: %s\n", argv[i], fsm.error.c_str());
        return 2;
      }
      specs.push_back(std::move(fsm.spec));
      continue;
    }
    bool found = false;
    for (auto& spec : grapple::AllBuiltinCheckers()) {
      if (spec.fsm.name() == argv[i]) {
        specs.push_back(std::move(spec));
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "no such checker '%s'; choose from io lock except socket\n",
                   argv[i]);
      return 2;
    }
  }
  if (specs.empty()) {
    specs = grapple::AllBuiltinCheckers();
  }

  grapple::GrappleOptions options;
  options.work_dir = work_dir;
  grapple::ApplyEnvOverrides(&options);
  std::vector<std::string> option_errors = options.Validate();
  if (!option_errors.empty()) {
    for (const auto& error : option_errors) {
      std::fprintf(stderr, "invalid option: %s\n", error.c_str());
    }
    return 2;
  }

  // In --json mode stdout carries only the JSON document; chatter goes to
  // stderr so the output can be piped or archived directly.
  std::FILE* chatter = print_json ? stderr : stdout;
  std::fprintf(chatter, "analyzing %s (%zu methods, %zu statements)\n", argv[1],
               parsed.program.NumMethods(), parsed.program.TotalStatements());
  grapple::Grapple analyzer(std::move(parsed.program), options);
  grapple::GrappleResult result = analyzer.Check(specs);
  if (const char* metrics_path = grapple::EnvRaw("GRAPPLE_METRICS")) {
    if (!grapple::obs::WriteTextFile(metrics_path, result.report.ToJson())) {
      std::fprintf(stderr, "failed to write run report to %s\n", metrics_path);
    }
  }

  size_t total = 0;
  bool degraded = false;
  std::vector<grapple::BugReport> all_reports;
  for (const auto& checker : result.checkers) {
    if (checker.degraded) {
      degraded = true;
      std::fprintf(chatter, "checker %s degraded: %s\n", checker.checker.c_str(),
                   checker.degraded_reason.c_str());
    }
    for (const auto& report : checker.reports) {
      if (!report.witness_error.empty()) {
        degraded = true;
      }
      if (!print_json) {
        std::printf("%s\n", report.ToString().c_str());
        if (explain) {
          if (report.has_witness) {
            std::printf("%s\n", report.witness.ToString().c_str());
          } else if (!report.witness_error.empty()) {
            std::printf("  (%s)\n", report.witness_error.c_str());
          } else {
            std::printf("  (no witness: run with GRAPPLE_WITNESS=bugs or full)\n");
          }
        }
      }
      all_reports.push_back(report);
      ++total;
    }
  }
  if (print_json) {
    std::printf("%s\n", grapple::ReportsToJson(all_reports).c_str());
  }
  std::fprintf(chatter, "%zu warning(s) in %.3fs (alias pairs: %zu)\n", total,
               result.report.total_seconds, result.alias_pairs);
  if (print_stats) {
    std::fprintf(chatter, "\n-- alias phase --\n%s",
                 grapple::obs::RenderEngineSummary(result.report.phases.front().metrics).c_str());
    for (const auto& checker : result.checkers) {
      std::fprintf(chatter, "-- typestate: %s (%zu tracked objects) --\n%s",
                   checker.checker.c_str(), checker.tracked_objects,
                   grapple::obs::RenderEngineSummary(checker.phase.metrics).c_str());
    }
  }
  // Degradation (an undecodable witness, a checker isolated after an I/O
  // failure) is only an *error* when the caller asked for explanations —
  // plain report listings still carry every bug.
  if (explain && degraded) {
    return 3;
  }
  return total == 0 ? 0 : 1;
}
