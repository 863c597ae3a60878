#include "src/grammar/grammar.h"

#include <algorithm>

#include "src/support/logging.h"

namespace grapple {

Label Grammar::Intern(const std::string& name) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    return it->second;
  }
  Label label = static_cast<Label>(names_.size());
  GRAPPLE_CHECK_LT(names_.size(), size_t{kNoLabel}) << "label space exhausted";
  names_.push_back(name);
  by_name_.emplace(name, label);
  mirror_.push_back(kNoLabel);
  unary_.emplace_back();
  binary_.emplace_back();
  seconds_after_.emplace_back();
  firsts_before_.emplace_back();
  return label;
}

std::optional<Label> Grammar::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return std::nullopt;
  }
  return it->second;
}

const std::string& Grammar::NameOf(Label label) const {
  GRAPPLE_CHECK_LT(label, names_.size());
  return names_[label];
}

void Grammar::AddUnary(Label single, Label result) { unary_[single].push_back(result); }

namespace {

// Inserts `label` into the ascending list unless it is already there.
void InsertSorted(std::vector<Label>* labels, Label label) {
  auto it = std::lower_bound(labels->begin(), labels->end(), label);
  if (it == labels->end() || *it != label) {
    labels->insert(it, label);
  }
}

}  // namespace

void Grammar::AddBinary(Label first, Label second, Label result) {
  std::vector<Rule>& rules = binary_[first];
  auto it = std::lower_bound(rules.begin(), rules.end(), second,
                             [](const Rule& rule, Label l) { return rule.second < l; });
  if (it == rules.end() || it->second != second) {
    it = rules.insert(it, Rule{second, {}});
  }
  it->results.push_back(result);
  InsertSorted(&seconds_after_[first], second);
  InsertSorted(&firsts_before_[second], first);
}

void Grammar::SetMirror(Label label, Label mirror) {
  mirror_[label] = mirror;
  mirror_[mirror] = label;
}

const std::vector<Label>& Grammar::BinaryResults(Label first, Label second) const {
  static const std::vector<Label> kNone;
  const std::vector<Rule>& rules = binary_[first];
  auto it = std::lower_bound(rules.begin(), rules.end(), second,
                             [](const Rule& rule, Label l) { return rule.second < l; });
  return it == rules.end() || it->second != second ? kNone : it->results;
}

}  // namespace grapple
