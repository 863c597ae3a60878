// Typed environment reads. The GRAPPLE_* variables that override
// GrappleOptions fields are applied in one place, ApplyEnvOverrides
// (core/grapple.h), called at the program's edges; library code takes
// options only. Knobs that no option carries (GRAPPLE_LOG_LEVEL,
// GRAPPLE_FAULTS, GRAPPLE_REPORT_DIR, the grappled service knobs) are read
// where they apply.
#ifndef GRAPPLE_SRC_SUPPORT_ENV_H_
#define GRAPPLE_SRC_SUPPORT_ENV_H_

#include <cstdint>
#include <string>

namespace grapple {

// Raw getenv; nullptr when unset. Empty values count as unset.
const char* EnvRaw(const char* name);

std::string EnvString(const char* name, const std::string& default_value = "");

// Parses a decimal integer; malformed or unset values yield the default.
int64_t EnvInt64(const char* name, int64_t default_value);

// Truthy: "1", "true", "yes", "on" (case-insensitive).
bool EnvBool(const char* name, bool default_value = false);

// std::thread::hardware_concurrency(), never less than 1.
size_t HardwareThreads();

}  // namespace grapple

#endif  // GRAPPLE_SRC_SUPPORT_ENV_H_
