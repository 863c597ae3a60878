#include "src/checker/fsm_parser.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <vector>

namespace grapple {

namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) {
    if (token[0] == '#') {
      break;
    }
    tokens.push_back(token);
  }
  return tokens;
}

}  // namespace

FsmParseResult ParseFsmSpec(const std::string& text) {
  FsmParseResult result;
  std::string name = "unnamed";
  std::vector<std::string> types;
  struct StateDecl {
    std::string name;
    bool accept = false;
    bool initial = false;
    int line;
  };
  std::vector<StateDecl> states;
  int initial = -1;  // index into states of the `initial` declaration
  struct TransitionDecl {
    std::string from;
    std::string event;
    std::string to;
    int line;
  };
  std::vector<TransitionDecl> transitions;

  std::istringstream stream(text);
  std::string line;
  int line_no = 0;
  auto fail = [&](const std::string& message) {
    result.ok = false;
    result.error = "line " + std::to_string(line_no) + ": " + message;
    return result;
  };
  while (std::getline(stream, line)) {
    ++line_no;
    std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) {
      continue;
    }
    const std::string& keyword = tokens[0];
    if (keyword == "fsm") {
      if (tokens.size() != 2) {
        return fail("expected: fsm <name>");
      }
      name = tokens[1];
    } else if (keyword == "types") {
      if (tokens.size() < 2) {
        return fail("expected: types <Type>...");
      }
      types.insert(types.end(), tokens.begin() + 1, tokens.end());
    } else if (keyword == "state") {
      if (tokens.size() < 2) {
        return fail("expected: state <Name> [accept] [initial]");
      }
      StateDecl decl;
      decl.name = tokens[1];
      decl.line = line_no;
      for (size_t i = 2; i < tokens.size(); ++i) {
        if (tokens[i] == "accept") {
          decl.accept = true;
        } else if (tokens[i] == "initial") {
          decl.initial = true;
        } else {
          return fail("unknown state attribute '" + tokens[i] + "'");
        }
      }
      for (const auto& existing : states) {
        if (existing.name == decl.name) {
          return fail("duplicate state '" + decl.name + "'");
        }
      }
      if (decl.initial) {
        if (initial >= 0) {
          return fail("second initial state '" + decl.name + "' (line " +
                      std::to_string(states[initial].line) + " declared '" +
                      states[initial].name + "')");
        }
        initial = static_cast<int>(states.size());
      }
      states.push_back(decl);
    } else if (keyword == "event") {
      if (tokens.size() != 4) {
        return fail("expected: event <FromState> <eventName> <ToState>");
      }
      transitions.push_back({tokens[1], tokens[2], tokens[3], line_no});
    } else {
      return fail("unknown keyword '" + keyword + "'");
    }
  }

  if (states.empty()) {
    line_no = 0;
    return fail("no states declared");
  }
  if (types.empty()) {
    line_no = 0;
    return fail("no tracked types declared");
  }

  Fsm fsm(name);
  std::unordered_map<std::string, FsmStateId> state_ids;
  for (const auto& decl : states) {
    state_ids[decl.name] = fsm.AddState(decl.name, decl.accept);
  }
  if (initial >= 0) {
    fsm.SetInitial(state_ids[states[initial].name]);
  }
  for (const auto& transition : transitions) {
    line_no = transition.line;
    auto from = state_ids.find(transition.from);
    if (from == state_ids.end()) {
      return fail("unknown state '" + transition.from + "'");
    }
    auto to = state_ids.find(transition.to);
    if (to == state_ids.end()) {
      return fail("unknown state '" + transition.to + "'");
    }
    FsmEventId event = fsm.AddEvent(transition.event);
    if (fsm.Next(from->second, event).has_value()) {
      return fail("duplicate transition for (" + transition.from + ", " + transition.event +
                  ")");
    }
    fsm.AddTransition(from->second, event, to->second);
  }
  if (std::none_of(states.begin(), states.end(),
                   [](const StateDecl& decl) { return decl.accept; })) {
    line_no = states.front().line;
    return fail("no accept state declared; at least one state needs 'accept'");
  }

  result.ok = true;
  result.spec = FsmSpec{std::move(fsm), std::move(types)};
  return result;
}

std::string FsmSpecToString(const FsmSpec& spec) {
  std::ostringstream out;
  const Fsm& fsm = spec.fsm;
  out << "fsm " << fsm.name() << "\n";
  out << "types";
  for (const auto& type : spec.tracked_types) {
    out << " " << type;
  }
  out << "\n";
  for (FsmStateId q = 0; q < fsm.NumStates(); ++q) {
    out << "state " << fsm.StateName(q);
    if (fsm.IsAccepting(q)) {
      out << " accept";
    }
    if (q == fsm.initial()) {
      out << " initial";
    }
    out << "\n";
  }
  // Canonical order (state id, then event *name*) so output is independent
  // of event-interning order and round-trips byte-identically.
  for (FsmStateId q = 0; q < fsm.NumStates(); ++q) {
    std::vector<std::pair<std::string, std::string>> rows;
    for (FsmEventId e = 0; e < fsm.NumEvents(); ++e) {
      auto next = fsm.Next(q, e);
      if (next.has_value()) {
        rows.emplace_back(fsm.EventName(e), fsm.StateName(*next));
      }
    }
    std::sort(rows.begin(), rows.end());
    for (const auto& [event, to] : rows) {
      out << "event " << fsm.StateName(q) << " " << event << " " << to << "\n";
    }
  }
  return out.str();
}

}  // namespace grapple
