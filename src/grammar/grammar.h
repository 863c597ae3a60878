// Normalized context-free grammars for grammar-guided reachability (§2.1).
//
// The engine checks one pair of consecutive edges at a time, so every rule is
// at most binary (the paper notes any CFG can be normalized this way, as in
// Chomsky normal form). A grammar also records "mirror" labels: when an edge
// u -L-> v is added and L has a mirror M, the engine materializes v -M-> u
// with the same payload (how reverse/bar edges such as flowsTo-bar stay in
// sync with their forward counterparts).
#ifndef GRAPPLE_SRC_GRAMMAR_GRAMMAR_H_
#define GRAPPLE_SRC_GRAMMAR_GRAMMAR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace grapple {

using Label = uint16_t;
inline constexpr Label kNoLabel = 0xFFFF;

class Grammar {
 public:
  // Registers (or returns the existing) label with this name.
  Label Intern(const std::string& name);
  std::optional<Label> Find(const std::string& name) const;
  const std::string& NameOf(Label label) const;
  size_t NumLabels() const { return names_.size(); }

  // result := single
  void AddUnary(Label single, Label result);
  // result := first second
  void AddBinary(Label first, Label second, Label result);
  // Adding u -label-> v also adds v -mirror-> u. Symmetric labels (alias)
  // may mirror themselves.
  void SetMirror(Label label, Label mirror);

  const std::vector<Label>& UnaryResults(Label single) const { return unary_[single]; }
  // Results of `first second`, empty when no rule has that body. A binary
  // search in `first`'s sparse rule list.
  const std::vector<Label>& BinaryResults(Label first, Label second) const;
  Label MirrorOf(Label label) const { return mirror_[label]; }

  // Sparse partner lists, ascending: the labels that can follow `first`
  // (resp. precede `second`) in some binary rule. The join loop visits only
  // adjacent edges carrying these labels.
  const std::vector<Label>& SecondsAfter(Label first) const { return seconds_after_[first]; }
  const std::vector<Label>& FirstsBefore(Label second) const { return firsts_before_[second]; }

  // True when `first` can start some binary rule — a cheap pre-filter for
  // the join loop.
  bool CanBeginBinary(Label first) const { return !seconds_after_[first].empty(); }

 private:
  struct Rule {
    Label second;
    std::vector<Label> results;
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, Label> by_name_;
  // All indexed by label.
  std::vector<std::vector<Label>> unary_;
  std::vector<std::vector<Rule>> binary_;  // by first, sorted by second
  std::vector<std::vector<Label>> seconds_after_;
  std::vector<std::vector<Label>> firsts_before_;
  std::vector<Label> mirror_;
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_GRAMMAR_GRAMMAR_H_
