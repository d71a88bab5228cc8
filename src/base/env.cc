#include "base/env.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "base/check.h"

namespace base {

uint64_t EnvPositiveInt(const char* name, uint64_t fallback, uint64_t max) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') {
    return fallback;
  }
  const char* end = env + std::strlen(env);
  uint64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(env, end, parsed);
  SIM_CHECK_MSG(ec == std::errc() && ptr == end && parsed > 0,
                "%s=\"%s\" is not a positive decimal integer", name, env);
  SIM_CHECK_MSG(parsed <= max, "%s=%llu is out of range (max %llu)", name,
                static_cast<unsigned long long>(parsed),
                static_cast<unsigned long long>(max));
  return parsed;
}

double EnvDouble(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') {
    return fallback;
  }
  const char* end = env + std::strlen(env);
  double parsed = 0.0;
  const auto [ptr, ec] = std::from_chars(env, end, parsed);
  SIM_CHECK_MSG(ec == std::errc() && ptr == end && std::isfinite(parsed),
                "%s=\"%s\" is not a decimal number", name, env);
  return parsed;
}

}  // namespace base
