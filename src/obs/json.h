// Minimal JSON writer for the observability layer: run reports, statusz
// pages, and bug-report JSON stream through it. No external dependencies.
// The tests read what it writes back with tests/obs/json_parse.h.
#ifndef GRAPPLE_SRC_OBS_JSON_H_
#define GRAPPLE_SRC_OBS_JSON_H_

#include <cstdint>
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

}  // namespace obs
}  // namespace grapple

#endif  // GRAPPLE_SRC_OBS_JSON_H_
