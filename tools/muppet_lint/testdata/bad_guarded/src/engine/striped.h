// Fixture: a lock-striped class. The nested `Stripe` owns its mutex but
// has no methods; the enclosing class writes `stripe_hits` through a
// reference with no MUPPET_GUARDED_BY (must be flagged). `stripe_total`
// is annotated and `stripe_limit` is written only by the enclosing
// constructor: neither may be flagged.
#ifndef FIXTURE_ENGINE_STRIPED_H_
#define FIXTURE_ENGINE_STRIPED_H_

#include "common/sync.h"

namespace muppet {

class StripedCounter {
 public:
  StripedCounter() {
    for (int i = 0; i < 2; ++i) stripes_[i].stripe_limit = 8;
  }

  void Tick(int key) {
    Stripe& stripe = stripes_[key % 2];
    MutexLock lock(stripe.mutex);
    stripe.stripe_hits++;
    stripe.stripe_total += 1;
  }

 private:
  struct Stripe {
    Mutex mutex{LockLevel::kLow};
    int stripe_hits = 0;
    int stripe_total MUPPET_GUARDED_BY(mutex) = 0;
    int stripe_limit = 0;
  };
  Stripe stripes_[2];
};

}  // namespace muppet

#endif  // FIXTURE_ENGINE_STRIPED_H_
