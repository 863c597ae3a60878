#include "src/smt/solver.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

namespace grapple {

namespace {

// Internal inequality: expr <= 0. Equalities and disequalities are tracked
// separately until lowered.
struct System {
  std::vector<LinearExpr> eqs;  // expr == 0
  std::vector<LinearExpr> les;  // expr <= 0
  std::vector<LinearExpr> nes;  // expr != 0
  bool saw_opaque = false;
};

// Integer floor division.
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) {
    --q;
  }
  return q;
}

// Divides an inequality expr <= 0 by the gcd of its term coefficients and
// floors the constant ("integer tightening"). Returns nullopt when the
// inequality is constant: caller must then check the constant directly.
LinearExpr TightenLe(const LinearExpr& expr) {
  int64_t g = expr.TermGcd();
  if (g <= 1) {
    return expr;
  }
  // sum(g*ti*vi) + c <= 0  <=>  sum(ti*vi) <= floor(-c/g)
  int64_t bound = FloorDiv(-expr.constant(), g);
  LinearExpr result = LinearExpr::Constant(-bound);
  for (const auto& [var, coeff] : expr.terms()) {
    result = result.Add(LinearExpr::Term(var, coeff / g));
  }
  return result;
}

constexpr int64_t kCoeffLimit = int64_t{1} << 40;

bool CoefficientsInRange(const LinearExpr& expr) {
  if (expr.constant() > kCoeffLimit || expr.constant() < -kCoeffLimit) {
    return false;
  }
  for (const auto& [var, coeff] : expr.terms()) {
    if (coeff > kCoeffLimit || coeff < -kCoeffLimit) {
      return false;
    }
  }
  return true;
}

class ConjunctionSolver {
 public:
  ConjunctionSolver(const SolverLimits& limits, SolverStats* stats)
      : limits_(limits), stats_(stats) {}

  SolveResult Solve(System system) {
    size_t splits_used = 0;
    return SolveRec(std::move(system), &splits_used);
  }

 private:
  SolveResult SolveRec(System system, size_t* splits_used) {
    // --- Phase 1: equality elimination. ---
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < system.eqs.size(); ++i) {
        LinearExpr eq = system.eqs[i];
        if (eq.IsConstant()) {
          if (eq.constant() != 0) {
            return SolveResult::kUnsat;
          }
          system.eqs.erase(system.eqs.begin() + static_cast<ptrdiff_t>(i));
          --i;
          changed = true;
          continue;
        }
        // Find a unit-coefficient variable to substitute away.
        VarId unit_var = kInvalidVar;
        int64_t unit_coeff = 0;
        for (const auto& [var, coeff] : eq.terms()) {
          if (coeff == 1 || coeff == -1) {
            unit_var = var;
            unit_coeff = coeff;
            break;
          }
        }
        if (unit_var == kInvalidVar) {
          // gcd divisibility check: sum(ci*vi) == -c solvable iff
          // gcd(ci) | c.
          int64_t g = eq.TermGcd();
          if (g > 1 && (eq.constant() % g) != 0) {
            return SolveResult::kUnsat;
          }
          continue;
        }
        // unit_coeff * unit_var + rest == 0  =>  unit_var = -rest/unit_coeff
        LinearExpr rest = eq.Substitute(unit_var, LinearExpr::Constant(0));
        LinearExpr replacement = rest.Scale(unit_coeff == 1 ? -1 : 1);
        system.eqs.erase(system.eqs.begin() + static_cast<ptrdiff_t>(i));
        SubstituteEverywhere(&system, unit_var, replacement);
        changed = true;
        break;  // restart scan; indices shifted
      }
    }
    // Any equalities we could not substitute become a pair of inequalities.
    for (const auto& eq : system.eqs) {
      system.les.push_back(eq);
      system.les.push_back(eq.Negate());
    }
    system.eqs.clear();

    // --- Phase 2: disequality case-splitting. ---
    for (size_t i = 0; i < system.nes.size(); ++i) {
      LinearExpr ne = system.nes[i];
      if (ne.IsConstant()) {
        if (ne.constant() == 0) {
          return SolveResult::kUnsat;
        }
        continue;  // trivially true
      }
      if (*splits_used >= limits_.max_ne_splits) {
        // Drop the disequality: over-approximates to SAT-side.
        system.saw_opaque = true;
        continue;
      }
      ++*splits_used;
      ++stats_->ne_splits;
      System less = system;
      less.nes.erase(less.nes.begin() + static_cast<ptrdiff_t>(i));
      less.les.push_back(ne.AddConstant(1));  // ne < 0
      System greater = std::move(system);
      greater.nes.erase(greater.nes.begin() + static_cast<ptrdiff_t>(i));
      greater.les.push_back(ne.Negate().AddConstant(1));  // ne > 0
      SolveResult a = SolveRec(std::move(less), splits_used);
      if (a == SolveResult::kSat) {
        return SolveResult::kSat;
      }
      SolveResult b = SolveRec(std::move(greater), splits_used);
      if (b == SolveResult::kSat) {
        return SolveResult::kSat;
      }
      if (a == SolveResult::kUnknown || b == SolveResult::kUnknown) {
        return SolveResult::kUnknown;
      }
      return SolveResult::kUnsat;
    }
    system.nes.clear();

    // --- Phase 3: Fourier-Motzkin on the <= system. ---
    return FourierMotzkin(std::move(system.les), system.saw_opaque);
  }

  static void SubstituteEverywhere(System* system, VarId var, const LinearExpr& replacement) {
    for (auto& e : system->eqs) {
      e = e.Substitute(var, replacement);
    }
    for (auto& e : system->les) {
      e = e.Substitute(var, replacement);
    }
    for (auto& e : system->nes) {
      e = e.Substitute(var, replacement);
    }
  }

  SolveResult FourierMotzkin(std::vector<LinearExpr> les, bool saw_opaque) {
    bool capped = saw_opaque;
    for (;;) {
      // Normalize: tighten, drop/flag constants, dedupe.
      std::vector<LinearExpr> live;
      live.reserve(les.size());
      for (auto& expr : les) {
        if (expr.IsConstant()) {
          if (expr.constant() > 0) {
            return SolveResult::kUnsat;
          }
          continue;
        }
        if (!CoefficientsInRange(expr)) {
          capped = true;
          continue;
        }
        live.push_back(TightenLe(expr));
      }
      std::sort(live.begin(), live.end(), [](const LinearExpr& a, const LinearExpr& b) {
        if (a.constant() != b.constant()) {
          return a.constant() < b.constant();
        }
        return a.terms() < b.terms();
      });
      live.erase(std::unique(live.begin(), live.end()), live.end());

      if (live.empty()) {
        return capped ? SolveResult::kUnknown : SolveResult::kSat;
      }
      if (live.size() > limits_.max_inequalities) {
        return SolveResult::kUnknown;
      }

      // Choose the elimination variable with the smallest uppers*lowers
      // product (classic FM heuristic).
      std::set<VarId> vars;
      for (const auto& expr : live) {
        for (const auto& [var, coeff] : expr.terms()) {
          vars.insert(var);
        }
      }
      if (vars.size() > limits_.max_variables) {
        return SolveResult::kUnknown;
      }
      VarId best_var = kInvalidVar;
      size_t best_cost = SIZE_MAX;
      size_t best_total = 0;
      for (VarId var : vars) {
        size_t uppers = 0;
        size_t lowers = 0;
        for (const auto& expr : live) {
          int64_t coeff = expr.CoefficientOf(var);
          if (coeff > 0) {
            ++uppers;
          } else if (coeff < 0) {
            ++lowers;
          }
        }
        size_t cost = uppers * lowers;
        if (cost < best_cost) {
          best_cost = cost;
          best_var = var;
          best_total = uppers + lowers;
        }
      }
      (void)best_total;
      ++stats_->fm_eliminations;

      // Eliminate best_var.
      std::vector<LinearExpr> uppers;  // coeff > 0
      std::vector<LinearExpr> lowers;  // coeff < 0
      std::vector<LinearExpr> rest;
      for (auto& expr : live) {
        int64_t coeff = expr.CoefficientOf(best_var);
        if (coeff > 0) {
          uppers.push_back(std::move(expr));
        } else if (coeff < 0) {
          lowers.push_back(std::move(expr));
        } else {
          rest.push_back(std::move(expr));
        }
      }
      if (uppers.empty() || lowers.empty()) {
        // best_var is unbounded on one side: every constraint mentioning it
        // can be satisfied by pushing the variable far enough.
        les = std::move(rest);
        continue;
      }
      if (uppers.size() * lowers.size() + rest.size() > limits_.max_inequalities) {
        return SolveResult::kUnknown;
      }
      for (const auto& u : uppers) {
        int64_t a = u.CoefficientOf(best_var);  // a > 0
        for (const auto& l : lowers) {
          int64_t b = -l.CoefficientOf(best_var);  // b > 0
          // b*u + a*l eliminates best_var.
          LinearExpr combined = u.Scale(b).Add(l.Scale(a));
          rest.push_back(std::move(combined));
        }
      }
      les = std::move(rest);
    }
  }

  const SolverLimits& limits_;
  SolverStats* stats_;
};

}  // namespace

const char* SolveResultName(SolveResult result) {
  switch (result) {
    case SolveResult::kSat:
      return "sat";
    case SolveResult::kUnsat:
      return "unsat";
    case SolveResult::kUnknown:
      return "unknown";
  }
  return "?";
}

SolveResult Solver::Solve(const Constraint& constraint) {
  ++stats_.solves;
  System system;
  for (const auto& atom : constraint.atoms()) {
    if (atom.opaque) {
      system.saw_opaque = true;
      continue;
    }
    auto trivial = atom.TrivialValue();
    if (trivial.has_value()) {
      if (!*trivial) {
        ++stats_.unsat;
        return SolveResult::kUnsat;
      }
      continue;
    }
    switch (atom.cmp) {
      case Cmp::kEq:
        system.eqs.push_back(atom.expr);
        break;
      case Cmp::kNe:
        system.nes.push_back(atom.expr);
        break;
      case Cmp::kLe:
        system.les.push_back(atom.expr);
        break;
      case Cmp::kLt:
        system.les.push_back(atom.expr.AddConstant(1));
        break;
      case Cmp::kGe:
        system.les.push_back(atom.expr.Negate());
        break;
      case Cmp::kGt:
        system.les.push_back(atom.expr.Negate().AddConstant(1));
        break;
    }
  }
  ConjunctionSolver solver(limits_, &stats_);
  SolveResult result = solver.Solve(std::move(system));
  switch (result) {
    case SolveResult::kSat:
      ++stats_.sat;
      break;
    case SolveResult::kUnsat:
      ++stats_.unsat;
      break;
    case SolveResult::kUnknown:
      ++stats_.unknown;
      break;
  }
  return result;
}

}  // namespace grapple
