// Derivation-chain decoding: provenance DAG -> ordered witness steps.
//
// The engine's provenance log (src/obs/provenance.h) records, per unique
// edge, the two parents its join consumed. In Grapple's regular typestate
// grammar every state edge is induced left-recursively — the *left* parent
// is the previous state edge, the *right* parent the event/flow edge the
// step consumed — so walking left parents from a violating edge back to its
// base record linearizes the derivation into the execution order a human
// reads: allocation first, violation last.
//
// This layer is deliberately FSM-agnostic (it lives below the checker): it
// yields raw derivation steps with the per-step interval path encoding
// decoded to a Constraint (reusing PathDecoder) plus an SMT feasibility
// replay of the final path. The checker interprets the steps against the
// property FSM and the typestate vertex map to build the semantic Witness.
#ifndef GRAPPLE_SRC_PATHENC_WITNESS_DECODER_H_
#define GRAPPLE_SRC_PATHENC_WITNESS_DECODER_H_

#include <cstdint>
#include <vector>

#include "src/obs/provenance.h"
#include "src/pathenc/constraint_decoder.h"
#include "src/pathenc/path_encoding.h"
#include "src/smt/constraint.h"
#include "src/smt/solver.h"
#include "src/symexec/cfet.h"

namespace grapple {

// One derivation step, leaf-first program order.
struct DerivationStep {
  obs::ProvKind kind = obs::ProvKind::kBase;
  // The derived edge this step materialized.
  obs::ProvEdge edge;
  // The right parent the join consumed (event/flow edge); for kBase and
  // kRewrite steps it equals `edge`.
  obs::ProvEdge consumed;
  bool widened = false;
  // This step's derived-edge path encoding and its decoded constraint.
  PathEncoding encoding;
  Constraint constraint;
  // Per-step feasibility replay (Options.replay_steps, WitnessMode::kFull
  // territory); `replayed` distinguishes "not run" from a kUnknown verdict.
  bool replayed = false;
  SolveResult replay = SolveResult::kUnknown;
};

struct DerivationChain {
  // The walk reached a base record (a complete derivation).
  bool complete = false;
  // The walk stopped early: missing parent record or max_steps exceeded.
  bool truncated = false;
  std::vector<DerivationStep> steps;  // leaf (base edge) first
  // Constraint of the violating edge itself and the replayed SMT verdict
  // that established the path's feasibility.
  Constraint final_constraint;
  SolveResult final_replay = SolveResult::kUnknown;
  uint64_t decode_nanos = 0;

  bool empty() const { return steps.empty(); }
};

class WitnessDecoder {
 public:
  struct Options {
    // Backstop against a (content-hash-collision-induced) cycle or an
    // absurdly long chain; DAG construction order makes real chains finite.
    size_t max_steps = 1 << 16;
    // Re-solve every step's constraint, not just the final one.
    bool replay_steps = false;
    SolverLimits solver_limits;
  };

  // `icfet` and `reader` must outlive the decoder.
  WitnessDecoder(const Icfet* icfet, const obs::ProvenanceReader* reader);
  WitnessDecoder(const Icfet* icfet, const obs::ProvenanceReader* reader, Options options);

  // Decodes the derivation chain of the edge whose content hash is `hash`.
  // Returns an empty chain when the hash has no provenance record.
  DerivationChain Decode(uint64_t hash);

 private:
  const obs::ProvenanceReader* reader_;
  PathDecoder decoder_;
  Solver solver_;
  Options options_;
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_PATHENC_WITNESS_DECODER_H_
