// LOBLINT-FIXTURE-PATH: src/esm/good_sync.cc
//
// The sanctioned form: a leaf lob::Mutex with an RAII MutexLock. The
// acquisition is nesting-checked at run time and analyzable by Clang.

#include "common/lock_order.h"
#include "common/thread_annotations.h"

namespace lob {

class GoodCounter {
 public:
  int Next() LOB_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return ++count_;
  }

 private:
  Mutex mu_;
  int count_ LOB_GUARDED_BY(mu_) = 0;
};

}  // namespace lob
