// Test-only JSON reader: a small DOM parser the test binaries use to
// check what the observability layer writes (run reports, statusz pages,
// bug-report JSON). Nothing in the library parses JSON.
#ifndef GRAPPLE_TESTS_OBS_JSON_PARSE_H_
#define GRAPPLE_TESTS_OBS_JSON_PARSE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace grapple {
namespace obs {

// Parsed JSON value (DOM). Numbers are stored as double; integers up to
// 2^53 round-trip exactly, which covers every counter this system emits in
// practice (and the parser is for validation, not archival).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0;
  std::string string_value;
  std::vector<JsonValue> items;                // kArray
  std::map<std::string, JsonValue> members;    // kObject

  bool IsObject() const { return kind == Kind::kObject; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsNumber() const { return kind == Kind::kNumber; }
  bool IsString() const { return kind == Kind::kString; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  // Convenience: Find + numeric/string access with defaults.
  double NumberOr(const std::string& key, double default_value) const;
  std::string StringOr(const std::string& key, const std::string& default_value) const;
};

// Parses a complete JSON document. Returns nullopt and fills `error` (if
// non-null) on malformed input or trailing garbage.
std::optional<JsonValue> ParseJson(const std::string& text, std::string* error = nullptr);

}  // namespace obs
}  // namespace grapple

#endif  // GRAPPLE_TESTS_OBS_JSON_PARSE_H_
