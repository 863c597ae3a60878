#include "src/support/env.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <thread>

namespace grapple {

const char* EnvRaw(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return nullptr;
  }
  return value;
}

std::string EnvString(const char* name, const std::string& default_value) {
  const char* value = EnvRaw(name);
  return value == nullptr ? default_value : std::string(value);
}

int64_t EnvInt64(const char* name, int64_t default_value) {
  const char* value = EnvRaw(name);
  if (value == nullptr) {
    return default_value;
  }
  char* end = nullptr;
  long long parsed = std::strtoll(value, &end, 10);
  if (end == value || (end != nullptr && *end != '\0')) {
    return default_value;
  }
  return static_cast<int64_t>(parsed);
}

bool EnvBool(const char* name, bool default_value) {
  const char* value = EnvRaw(name);
  if (value == nullptr) {
    return default_value;
  }
  std::string lowered;
  for (const char* p = value; *p != '\0'; ++p) {
    lowered.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
  }
  if (lowered == "1" || lowered == "true" || lowered == "yes" || lowered == "on") {
    return true;
  }
  if (lowered == "0" || lowered == "false" || lowered == "no" || lowered == "off") {
    return false;
  }
  return default_value;
}

size_t HardwareThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace grapple
