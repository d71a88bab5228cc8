// Strict parsing of numeric GEMINI_* environment knobs.
//
// Every knob means its default when unset or set to the empty string.  Any
// other value must parse completely, or the run aborts with a SIM_CHECK
// that names the variable: `abc`, `2x` or ` 4` never fall back silently.
#ifndef SRC_BASE_ENV_H_
#define SRC_BASE_ENV_H_

#include <cstdint>
#include <limits>

namespace base {

// A whole positive decimal integer no larger than `max`.
uint64_t EnvPositiveInt(
    const char* name, uint64_t fallback,
    uint64_t max = std::numeric_limits<uint64_t>::max());

// A finite decimal number (fixed or scientific notation).
double EnvDouble(const char* name, double fallback);

}  // namespace base

#endif  // SRC_BASE_ENV_H_
