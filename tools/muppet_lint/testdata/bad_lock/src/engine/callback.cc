// Fixture: inversion inside a lambda argument. Retrying() holds kHigh and
// passes a lambda that acquires kLow to WithRetry(), which calls its
// parameter before returning (30 -> 10: inverted).
#include "common/sync.h"

namespace muppet {

class Retrier {
 public:
  template <typename Attempt>
  void WithRetry(Attempt&& attempt) {
    attempt();
  }

  void Retrying() {
    MutexLock a(high_);
    WithRetry([&] { MutexLock b(low_); });
  }

 private:
  Mutex low_{LockLevel::kLow};
  Mutex high_{LockLevel::kHigh};
};

}  // namespace muppet
