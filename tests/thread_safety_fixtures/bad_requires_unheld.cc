// Calls an LOB_REQUIRES(mu_) method without holding the lock: Clang must
// reject the call site ("calling function ... requires holding mutex").

#include "common/lock_order.h"
#include "common/thread_annotations.h"

namespace lob {

class BadRequiresUnheld {
 public:
  void AddLocked(int v) LOB_REQUIRES(mu_) { total_ += v; }

  void Add(int v) {
    AddLocked(v);  // BAD: mu_ not held
  }

 private:
  Mutex mu_;
  int total_ LOB_GUARDED_BY(mu_) = 0;
};

void Use() {
  BadRequiresUnheld b;
  b.Add(1);
}

}  // namespace lob
