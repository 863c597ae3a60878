#include <gtest/gtest.h>

#include <set>

#include "src/checker/builtin_checkers.h"
#include "src/checker/checker.h"
#include "src/grammar/grammar.h"
#include "src/grammar/pointsto_grammar.h"
#include "src/grammar/typestate_grammar.h"

namespace grapple {
namespace {

TEST(GrammarTest, InternIsIdempotent) {
  Grammar grammar;
  Label a = grammar.Intern("a");
  Label b = grammar.Intern("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(grammar.Intern("a"), a);
  EXPECT_EQ(grammar.Find("a"), std::optional<Label>(a));
  EXPECT_FALSE(grammar.Find("zzz").has_value());
  EXPECT_EQ(grammar.NameOf(b), "b");
}

TEST(GrammarTest, RuleLookup) {
  Grammar grammar;
  Label e = grammar.Intern("e");
  Label p = grammar.Intern("p");
  grammar.AddUnary(e, p);
  grammar.AddBinary(p, e, p);
  EXPECT_EQ(grammar.UnaryResults(e), std::vector<Label>{p});
  EXPECT_TRUE(grammar.UnaryResults(p).empty());
  EXPECT_EQ(grammar.BinaryResults(p, e), std::vector<Label>{p});
  EXPECT_TRUE(grammar.BinaryResults(e, p).empty());
  EXPECT_TRUE(grammar.CanBeginBinary(p));
  EXPECT_FALSE(grammar.CanBeginBinary(e));
}

TEST(GrammarTest, MirrorsAreSymmetric) {
  Grammar grammar;
  Label fwd = grammar.Intern("f");
  Label bwd = grammar.Intern("fBar");
  Label self = grammar.Intern("alias");
  grammar.SetMirror(fwd, bwd);
  grammar.SetMirror(self, self);
  EXPECT_EQ(grammar.MirrorOf(fwd), bwd);
  EXPECT_EQ(grammar.MirrorOf(bwd), fwd);
  EXPECT_EQ(grammar.MirrorOf(self), self);
  EXPECT_EQ(grammar.MirrorOf(grammar.Intern("plain")), kNoLabel);
}

// The sparse partner lists hold exactly the label pairs that some binary
// rule accepts: a brute-force scan of BinaryResults over every pair of
// labels, for the points-to grammar and every builtin typestate grammar.
void ExpectPartnersMatchBruteForce(const Grammar& grammar) {
  size_t n = grammar.NumLabels();
  for (size_t first = 0; first < n; ++first) {
    std::vector<Label> after;
    for (size_t second = 0; second < n; ++second) {
      if (!grammar.BinaryResults(static_cast<Label>(first), static_cast<Label>(second)).empty()) {
        after.push_back(static_cast<Label>(second));
      }
    }
    EXPECT_EQ(grammar.SecondsAfter(static_cast<Label>(first)), after) << grammar.NameOf(first);
    EXPECT_EQ(grammar.CanBeginBinary(static_cast<Label>(first)), !after.empty());
  }
  for (size_t second = 0; second < n; ++second) {
    std::vector<Label> before;
    for (size_t first = 0; first < n; ++first) {
      if (!grammar.BinaryResults(static_cast<Label>(first), static_cast<Label>(second)).empty()) {
        before.push_back(static_cast<Label>(first));
      }
    }
    EXPECT_EQ(grammar.FirstsBefore(static_cast<Label>(second)), before) << grammar.NameOf(second);
  }
}

TEST(GrammarTest, PartnerListsMatchBruteForceScan) {
  Grammar pointsto;
  BuildPointsToGrammar(&pointsto, {"f", "g", "next", "val"});
  ExpectPartnersMatchBruteForce(pointsto);
  for (const FsmSpec& spec : AllBuiltinCheckers()) {
    Grammar typestate;
    BuildTypestateGrammar(&typestate, CompleteFsm(spec.fsm));
    ExpectPartnersMatchBruteForce(typestate);
  }
  // Rules added out of label order, and two heads for one body.
  Grammar grammar;
  Label a = grammar.Intern("a");
  Label b = grammar.Intern("b");
  Label c = grammar.Intern("c");
  grammar.AddBinary(a, c, b);
  grammar.AddBinary(a, b, c);
  grammar.AddBinary(a, c, a);
  EXPECT_EQ(grammar.BinaryResults(a, c), (std::vector<Label>{b, a}));
  EXPECT_EQ(grammar.SecondsAfter(a), (std::vector<Label>{b, c}));
  ExpectPartnersMatchBruteForce(grammar);
}

// A tiny in-memory closure to check the points-to grammar derivations
// independently of the disk engine.
struct TinyEdge {
  uint32_t src;
  uint32_t dst;
  Label label;
  bool operator<(const TinyEdge& other) const {
    return std::tie(src, dst, label) < std::tie(other.src, other.dst, other.label);
  }
};

std::set<TinyEdge> Closure(const Grammar& grammar, std::set<TinyEdge> edges) {
  // Expand mirrors/unary, then binary joins, to fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    std::set<TinyEdge> add;
    for (const auto& e : edges) {
      for (Label u : grammar.UnaryResults(e.label)) {
        add.insert({e.src, e.dst, u});
      }
      Label m = grammar.MirrorOf(e.label);
      if (m != kNoLabel) {
        add.insert({e.dst, e.src, m});
      }
      for (const auto& f : edges) {
        if (e.dst != f.src) {
          continue;
        }
        for (Label r : grammar.BinaryResults(e.label, f.label)) {
          add.insert({e.src, f.dst, r});
        }
      }
    }
    for (const auto& e : add) {
      if (edges.insert(e).second) {
        changed = true;
      }
    }
  }
  return edges;
}

TEST(PointsToGrammarTest, FlowsToThroughAssignChain) {
  Grammar grammar;
  PointsToLabels labels = BuildPointsToGrammar(&grammar, {});
  // o -new-> a -assign-> b -assign-> c
  auto closure = Closure(grammar, {{0, 1, labels.new_label},
                                   {1, 2, labels.assign},
                                   {2, 3, labels.assign}});
  EXPECT_TRUE(closure.count({0, 3, labels.flows_to}));
  EXPECT_TRUE(closure.count({3, 0, labels.flows_to_bar}));
  // a, b, c all alias each other.
  EXPECT_TRUE(closure.count({1, 3, labels.alias}));
  EXPECT_TRUE(closure.count({3, 1, labels.alias}));
}

TEST(PointsToGrammarTest, HeapFlowNeedsMatchingField) {
  Grammar grammar;
  PointsToLabels labels = BuildPointsToGrammar(&grammar, {"f", "g"});
  // o -new-> b ; o2 -new-> a ; a.f = b (b -store_f-> a) ; c = a (alias of a)
  // ; d = c.f (c -load_f-> d): o flows to d.
  auto closure = Closure(grammar, {{0, 1, labels.new_label},     // o -> b
                                   {5, 2, labels.new_label},     // o2 -> a
                                   {1, 2, labels.store[0]},      // a.f = b
                                   {2, 3, labels.assign},        // c = a
                                   {3, 4, labels.load[0]}});     // d = c.f
  EXPECT_TRUE(closure.count({0, 4, labels.flows_to}));
  // Through a mismatched field there is no flow.
  auto mismatched = Closure(grammar, {{0, 1, labels.new_label},
                                      {5, 2, labels.new_label},
                                      {1, 2, labels.store[0]},   // store f
                                      {2, 3, labels.assign},
                                      {3, 4, labels.load[1]}});  // load g
  EXPECT_FALSE(mismatched.count({0, 4, labels.flows_to}));
}

TEST(PointsToGrammarTest, NoAliasWithoutCommonObject) {
  Grammar grammar;
  PointsToLabels labels = BuildPointsToGrammar(&grammar, {});
  auto closure = Closure(grammar, {{0, 1, labels.new_label},   // o1 -> a
                                   {2, 3, labels.new_label}});  // o2 -> b
  EXPECT_FALSE(closure.count({1, 3, labels.alias}));
  EXPECT_FALSE(closure.count({3, 1, labels.alias}));
}

TEST(TypestateGrammarTest, TransitionRules) {
  Fsm fsm = CompleteFsm(MakeIoCheckerSpec().fsm);
  Grammar grammar;
  TypestateLabels labels = BuildTypestateGrammar(&grammar, fsm);
  ASSERT_EQ(labels.state.size(), fsm.NumStates());
  ASSERT_EQ(labels.event.size(), fsm.NumEvents());

  FsmEventId open = *fsm.FindEvent("open");
  FsmEventId close = *fsm.FindEvent("close");
  // state[Init] x event[open] -> state[Open].
  Label init = labels.state[fsm.initial()];
  auto results = grammar.BinaryResults(init, labels.event[open]);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(grammar.NameOf(results[0]), "state[Open]");
  // Undefined transition goes to the completed error sink.
  auto err = grammar.BinaryResults(init, labels.event[close]);
  ASSERT_EQ(err.size(), 1u);
  EXPECT_EQ(grammar.NameOf(err[0]), "state[ERROR]");
  // Flow preserves states...
  EXPECT_EQ(grammar.BinaryResults(init, labels.flow), std::vector<Label>{init});
  // ...but the error sink does not propagate over flow (reports stay pinned
  // at the offending event).
  EXPECT_TRUE(grammar.BinaryResults(labels.state[fsm.error_state()], labels.flow).empty());
}

TEST(TypestateGrammarTest, TypestateClosureOnTinyGraph) {
  Fsm fsm = CompleteFsm(MakeIoCheckerSpec().fsm);
  Grammar grammar;
  TypestateLabels labels = BuildTypestateGrammar(&grammar, fsm);
  FsmEventId open = *fsm.FindEvent("open");
  FsmEventId close = *fsm.FindEvent("close");
  // seed -state[Init]-> p0 -event[open]-> p1 -flow-> p2 -event[close]-> p3
  auto closure = Closure(grammar, {{100, 0, labels.state[fsm.initial()]},
                                   {0, 1, labels.event[open]},
                                   {1, 2, labels.flow},
                                   {2, 3, labels.event[close]}});
  auto find_state = [&](uint32_t dst) {
    std::vector<std::string> states;
    for (const auto& e : closure) {
      if (e.src == 100 && e.dst == dst) {
        states.push_back(grammar.NameOf(e.label));
      }
    }
    return states;
  };
  EXPECT_EQ(find_state(1), std::vector<std::string>{"state[Open]"});
  EXPECT_EQ(find_state(2), std::vector<std::string>{"state[Open]"});
  EXPECT_EQ(find_state(3), std::vector<std::string>{"state[Closed]"});
}

}  // namespace
}  // namespace grapple
