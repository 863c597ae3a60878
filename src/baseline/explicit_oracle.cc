#include "src/baseline/explicit_oracle.h"

#include "src/support/byte_io.h"
#include "src/support/timer.h"

namespace grapple {

void SerializeConstraint(const Constraint& constraint, std::vector<uint8_t>* out) {
  PutVarint64(out, constraint.atoms().size());
  for (const auto& atom : constraint.atoms()) {
    uint8_t flags = static_cast<uint8_t>(atom.cmp) | (atom.opaque ? 0x80 : 0);
    out->push_back(flags);
    if (atom.opaque) {
      continue;
    }
    PutVarintSigned64(out, atom.expr.constant());
    PutVarint64(out, atom.expr.terms().size());
    for (const auto& [var, coeff] : atom.expr.terms()) {
      PutVarint64(out, var);
      PutVarintSigned64(out, coeff);
    }
  }
}

Constraint DeserializeConstraint(const uint8_t* data, size_t len) {
  Constraint constraint;
  ByteReader reader(data, len);
  uint64_t count = reader.GetVarint64();
  for (uint64_t i = 0; i < count && reader.ok(); ++i) {
    uint8_t flags = 0;
    if (!reader.GetRaw(&flags, 1)) {
      break;
    }
    if ((flags & 0x80) != 0) {
      constraint.And(Atom::Opaque());
      continue;
    }
    Atom atom;
    atom.cmp = static_cast<Cmp>(flags & 0x7F);
    LinearExpr expr = LinearExpr::Constant(reader.GetVarintSigned64());
    uint64_t terms = reader.GetVarint64();
    for (uint64_t t = 0; t < terms && reader.ok(); ++t) {
      VarId var = static_cast<VarId>(reader.GetVarint64());
      int64_t coeff = reader.GetVarintSigned64();
      expr = expr.Add(LinearExpr::Term(var, coeff));
    }
    atom.expr = std::move(expr);
    constraint.And(std::move(atom));
  }
  return constraint;
}

ExplicitOracle::ExplicitOracle(const Icfet* icfet) : ExplicitOracle(icfet, Options()) {}

ExplicitOracle::ExplicitOracle(const Icfet* icfet, Options options)
    : ConstraintOracle(icfet, options), max_items_(options.max_items) {}

SolveResult ExplicitOracle::MergeBytes(Shard* shard, PayloadBytes a, PayloadBytes b,
                                       std::vector<uint8_t>* out) {
  WallTimer merge_timer;
  // Plain byte-level concatenation of the two item sequences: adjust the
  // leading item count, keep everything else verbatim. No fusion, no
  // cancellation — the formula grows with path length.
  ByteReader ra(a.data, a.size);
  ByteReader rb(b.data, b.size);
  uint64_t count_a = ra.GetVarint64();
  uint64_t count_b = rb.GetVarint64();
  std::vector<uint8_t>& bytes = *out;
  if (count_a + count_b > max_items_) {
    // Backstop: keep the first formula, weaken the rest to `true`.
    ByteReader full_a(a.data, a.size);
    PathEncoding left = PathEncoding::Deserialize(&full_a);
    PathEncoding capped = PathEncoding::Append(left, PathEncoding::Opaque(), max_items_);
    capped.Serialize(&bytes);
  } else {
    PutVarint64(&bytes, count_a + count_b);
    bytes.insert(bytes.end(), a.data + ra.position(), a.data + a.size);
    bytes.insert(bytes.end(), b.data + rb.position(), b.data + b.size);
  }
  ByteReader reader(bytes.data(), bytes.size());
  PathEncoding full = PathEncoding::Deserialize(&reader);
  metrics_.AddNanos(c_lookup_ns_, merge_timer.ElapsedNanos());
  SolveResult verdict = Check(shard, full);
  if (verdict == SolveResult::kUnsat) {
    bytes.clear();
  }
  return verdict;
}

}  // namespace grapple
