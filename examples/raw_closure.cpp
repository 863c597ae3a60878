// Using the out-of-core engine standalone, Graspan-style: a grammar and an
// edge list from text files, dynamic transitive closure on disk, results to
// stdout. No program, no constraints — pure grammar-guided reachability.
//
//   $ ./raw_closure grammar.txt edges.txt [memory_budget_mb]
//
// Grammar file (one rule per line):
//   unary  <from> <result>         # result := from
//   binary <a> <b> <result>        # result := a b
//   mirror <label> <label2>        # adding u-label->v also adds v-label2->u
// Edge file: one "src dst label" triple per line (vertices are integers).
//
// Example (dataflow reachability, the paper's second grammar family):
//   grammar:  unary e n
//             binary n e n
//   edges:    0 1 e
//             1 2 e
//   output includes 0 2 n (and every other reachable pair).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/cfg/call_graph.h"
#include "src/graph/engine.h"
#include "src/ir/parser.h"
#include "src/obs/report.h"
#include "src/symexec/cfet_builder.h"

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s <grammar.txt> <edges.txt> [memory_budget_mb]\n", argv[0]);
    return 2;
  }

  grapple::Grammar grammar;
  {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 2;
    }
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      std::istringstream tokens(line);
      std::string kind;
      if (!(tokens >> kind) || kind[0] == '#') {
        continue;
      }
      std::string a, b, c;
      if (kind == "unary" && (tokens >> a >> b)) {
        grammar.AddUnary(grammar.Intern(a), grammar.Intern(b));
      } else if (kind == "binary" && (tokens >> a >> b >> c)) {
        grammar.AddBinary(grammar.Intern(a), grammar.Intern(b), grammar.Intern(c));
      } else if (kind == "mirror" && (tokens >> a >> b)) {
        grammar.SetMirror(grammar.Intern(a), grammar.Intern(b));
      } else {
        std::fprintf(stderr, "%s:%d: bad rule\n", argv[1], line_no);
        return 1;
      }
    }
  }

  // A trivial ICFET backs the (always-true) constraints.
  grapple::ParseResult stub = grapple::ParseProgram("method m() { return }");
  grapple::Program program = std::move(stub.program);
  grapple::CallGraph call_graph(program);
  grapple::Icfet icfet = grapple::BuildIcfet(program, call_graph);
  grapple::IntervalOracle oracle(&icfet);

  grapple::TempDir work("raw-closure");
  grapple::EngineOptions options;
  options.work_dir = work.path();
  if (argc > 3) {
    options.memory_budget_bytes = static_cast<uint64_t>(std::atoll(argv[3])) << 20;
  }
  grapple::GraphEngine engine(&grammar, &oracle, options);

  grapple::VertexId max_vertex = 0;
  {
    std::ifstream in(argv[2]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[2]);
      return 2;
    }
    unsigned long src = 0;
    unsigned long dst = 0;
    std::string label;
    while (in >> src >> dst >> label) {
      auto id = grammar.Find(label);
      if (!id.has_value()) {
        std::fprintf(stderr, "edge label '%s' not in grammar\n", label.c_str());
        return 1;
      }
      engine.AddBaseEdge(static_cast<grapple::VertexId>(src),
                         static_cast<grapple::VertexId>(dst), *id,
                         grapple::PathEncoding::Empty());
      max_vertex = std::max(max_vertex, static_cast<grapple::VertexId>(std::max(src, dst)));
    }
  }

  engine.Finalize(max_vertex + 1);
  engine.Run();
  engine.ForEachEdge([&](const grapple::EdgeRecord& edge) {
    std::printf("%u %u %s\n", edge.src, edge.dst, grammar.NameOf(edge.label).c_str());
  });
  std::fprintf(stderr, "%s", grapple::obs::RenderEngineSummary(engine.Metrics()).c_str());
  return 0;
}
