// FNV-1a over 64-bit words.  Components fold their full internal state
// into one, so a test can require two runs that must be observably
// identical to leave them in identical states.
#ifndef SRC_BASE_DIGEST_H_
#define SRC_BASE_DIGEST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace base {

class Digest {
 public:
  void Add(uint64_t v) { h_ = (h_ ^ v) * kPrime; }
  // Position-sensitive like Add in a loop, but over four independent
  // lanes, so long arrays do not serialize on the multiply.
  template <typename T>
  void AddAll(const std::vector<T>& values) {
    uint64_t lanes[4] = {h_, h_ ^ 1, h_ ^ 2, h_ ^ 3};
    for (size_t i = 0; i < values.size(); ++i) {
      uint64_t& lane = lanes[i & 3];
      lane = (lane ^ static_cast<uint64_t>(values[i])) * kPrime;
    }
    Add(values.size());
    for (const uint64_t lane : lanes) {
      Add(lane);
    }
  }
  uint64_t value() const { return h_; }

 private:
  static constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h_ = 1469598103934665603ull;
};

}  // namespace base

#endif  // SRC_BASE_DIGEST_H_
