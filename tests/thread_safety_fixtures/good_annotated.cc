// Fully annotated locking: must compile warning-free under GCC and under
// clang++ -Wthread-safety -Werror=thread-safety. This is the reference
// shape every mutex-holding class in the tree follows.

#include "common/lock_order.h"
#include "common/thread_annotations.h"

namespace lob {

class Annotated {
 public:
  void Add(int v) LOB_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    total_ += v;
  }

  int total() const LOB_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return total_;
  }

  void AddLocked(int v) LOB_REQUIRES(mu_) { total_ += v; }

  void AddViaHelper(int v) LOB_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    AddLocked(v);
  }

 private:
  mutable Mutex mu_;
  int total_ LOB_GUARDED_BY(mu_) = 0;
};

int Use() {
  Annotated a;
  a.Add(1);
  a.AddViaHelper(2);
  return a.total();
}

}  // namespace lob
