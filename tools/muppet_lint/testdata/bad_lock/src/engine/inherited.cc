// Fixture: inversion through an inherited method. Derived::Inverted()
// holds kHigh and calls TakeMid(), which only its base class defines and
// which acquires kMid (30 -> 20: inverted).
#include "common/sync.h"

namespace muppet {

class Base {
 protected:
  void TakeMid() { MutexLock b(mid_); }

 private:
  Mutex mid_{LockLevel::kMid};
};

class Derived : public Base {
 public:
  void Inverted() {
    MutexLock a(high_);
    TakeMid();
  }

 private:
  Mutex high_{LockLevel::kHigh};
};

}  // namespace muppet
