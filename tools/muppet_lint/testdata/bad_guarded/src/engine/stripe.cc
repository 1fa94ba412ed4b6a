#include "engine/stripe.h"

namespace muppet {

void Stripe::Raise() {
  MutexLock lock(mutex_);
  stripe_limit = 9;
  lone_writes++;
}

}  // namespace muppet
