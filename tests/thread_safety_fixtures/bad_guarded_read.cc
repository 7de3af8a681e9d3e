// Reads a LOB_GUARDED_BY member without holding its mutex: GCC compiles
// this (annotations are no-ops), Clang -Wthread-safety must reject it.

#include "common/lock_order.h"
#include "common/thread_annotations.h"

namespace lob {

class BadGuardedRead {
 public:
  // BAD: no lock held, no LOB_REQUIRES — clang: "reading variable
  // 'total_' requires holding mutex 'mu_'".
  int total() const { return total_; }

 private:
  mutable Mutex mu_;
  int total_ LOB_GUARDED_BY(mu_) = 0;
};

int Use() {
  BadGuardedRead b;
  return b.total();
}

}  // namespace lob
