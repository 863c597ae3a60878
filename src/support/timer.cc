#include "src/support/timer.h"

#include <cmath>
#include <cstdio>

namespace grapple {

std::string FormatDuration(double seconds) {
  if (seconds < 0.0) {
    seconds = 0.0;
  }
  int64_t total = static_cast<int64_t>(std::llround(seconds));
  int64_t hours = total / 3600;
  int64_t minutes = (total % 3600) / 60;
  int64_t secs = total % 60;
  char buf[64];
  if (hours > 0) {
    std::snprintf(buf, sizeof(buf), "%02ldh%02ldm%02lds", static_cast<long>(hours),
                  static_cast<long>(minutes), static_cast<long>(secs));
  } else if (minutes > 0) {
    std::snprintf(buf, sizeof(buf), "%ldm%02lds", static_cast<long>(minutes),
                  static_cast<long>(secs));
  } else if (total >= 1) {
    std::snprintf(buf, sizeof(buf), "%lds", static_cast<long>(secs));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fs", seconds);
  }
  return buf;
}

}  // namespace grapple
