// Fixture: a top-level class that shares its name with the nested
// `StripedCounter::Stripe` (striped.h). Its own methods write
// `stripe_limit` (annotated) and `lone_writes` (not annotated, must be
// flagged); those writes must not be charged to the nested Stripe, whose
// `stripe_limit` is set only by its enclosing constructor.
#ifndef FIXTURE_ENGINE_STRIPE_H_
#define FIXTURE_ENGINE_STRIPE_H_

#include "common/sync.h"

namespace muppet {

class Stripe {
 public:
  void Raise();

 private:
  Mutex mutex_{LockLevel::kLow};
  int stripe_limit MUPPET_GUARDED_BY(mutex_) = 0;
  int lone_writes = 0;
};

}  // namespace muppet

#endif  // FIXTURE_ENGINE_STRIPE_H_
