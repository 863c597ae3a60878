// Minimal JSON infrastructure for the observability layer: a streaming
// writer (used by run reports, statusz pages, and bug-report JSON) and a
// small DOM parser (used by golden tests and report tooling to validate
// what we emit). No external dependencies.
#ifndef GRAPPLE_SRC_OBS_JSON_H_
#define GRAPPLE_SRC_OBS_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace grapple {
namespace obs {

// Escapes `text` for inclusion inside a JSON string literal (no quotes).
std::string JsonEscapeString(const std::string& text);

// Streaming JSON writer. Handles commas and nesting; the caller is
// responsible for pairing Begin*/End* and for calling Key() before every
// value inside an object.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(const std::string& key);
  JsonWriter& String(const std::string& value);
  JsonWriter& Int(int64_t value);
  JsonWriter& UInt(uint64_t value);
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();
  // Appends pre-rendered JSON verbatim (must be a complete value).
  JsonWriter& Raw(const std::string& json);

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void BeforeValue();

  std::string out_;
  // One entry per open container: true until the first element is written.
  std::vector<bool> first_;
  bool pending_key_ = false;
};

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

#endif  // GRAPPLE_SRC_OBS_JSON_H_
