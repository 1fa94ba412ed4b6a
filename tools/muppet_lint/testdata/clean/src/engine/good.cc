// Fixture: well-ordered acquisitions, no banned calls, no unguarded
// mutable state.
#include "common/sync.h"

namespace muppet {

class Ordered {
 public:
  void Both() {
    MutexLock a(low_);
    MutexLock b(mid_);
  }

  // Later() hands its callback on without calling it, so the lambda does
  // not run under mid_: no mid -> low edge.
  template <typename Fn>
  void Later(Fn&& fn) {
    Schedule(fn);
  }

  void Registers() {
    MutexLock b(mid_);
    Later([&] { MutexLock a(low_); });
  }

 private:
  Mutex low_{LockLevel::kLow};
  Mutex mid_{LockLevel::kMid};
};

}  // namespace muppet
