// Manual Lock() with a return path that never unlocks: Clang's capability
// analysis must reject the function for failing to release `mu_` (and for
// the inconsistent lock state across the early return).

#include "common/lock_order.h"
#include "common/thread_annotations.h"

namespace lob {

class BadMissingRelease {
 public:
  void Add(int v) LOB_EXCLUDES(mu_) {
    mu_.Lock();
    if (v < 0) return;  // BAD: still holding mu_
    total_ += v;
    mu_.Unlock();
  }

 private:
  Mutex mu_;
  int total_ LOB_GUARDED_BY(mu_) = 0;
};

void Use() {
  BadMissingRelease b;
  b.Add(-1);
}

}  // namespace lob
