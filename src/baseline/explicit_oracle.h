// The Table-5 baseline: constraints represented explicitly on every edge.
//
// The paper compares Grapple's interval encoding against a "systemized
// implementation that represents constraints as strings and embeds them
// directly in edges". The essence of that design point is that an edge's
// payload holds the *full formula of its path* — one entry per branch
// condition / parameter equation — so payloads grow with path length, while
// Grapple's interval encoding stays bounded (fusion keeps an
// intraprocedural fragment at one interval; case-3 cancellation drops
// completed callees).
//
// To keep the two configurations semantically identical (so Table 5
// isolates the representation variable and nothing else), this oracle
// stores the uncompacted, unfused condition sequence and evaluates it with
// the same frame-aware decoder Grapple uses: merging is raw concatenation
// (formula conjunction — no fusion, no cancellation), and every check
// decodes and solves the whole accumulated formula.
#ifndef GRAPPLE_SRC_BASELINE_EXPLICIT_ORACLE_H_
#define GRAPPLE_SRC_BASELINE_EXPLICIT_ORACLE_H_

#include <vector>

#include "src/graph/constraint_oracle.h"
#include "src/pathenc/path_encoding.h"
#include "src/symexec/cfet.h"

namespace grapple {

// Serialization helpers for explicit constraints (used by the traditional
// in-memory baseline to account for formula memory, and by tests).
void SerializeConstraint(const Constraint& constraint, std::vector<uint8_t>* out);
Constraint DeserializeConstraint(const uint8_t* data, size_t len);

class ExplicitOracle : public ConstraintOracle {
 public:
  struct Options : ConstraintOracle::Options {
    // Termination backstop: payloads beyond this many items weaken to an
    // opaque marker (far above anything the interval codec would keep).
    size_t max_items = 4096;
  };

  explicit ExplicitOracle(const Icfet* icfet);
  ExplicitOracle(const Icfet* icfet, Options options);

 private:
  SolveResult MergeBytes(Shard* shard, PayloadBytes a, PayloadBytes b,
                         std::vector<uint8_t>* out) override;

  size_t max_items_;
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_BASELINE_EXPLICIT_ORACLE_H_
