// LOBLINT-FIXTURE-PATH: src/esm/good_guard.h
//
// The compliant shape: every mutable member is annotated with the lock
// that protects it, immutable and lock/condvar members are exempt, and the
// one genuinely confined member carries a justified suppression.

#ifndef LOB_TESTS_LINT_FIXTURES_GOOD_GUARDED_BY_H_
#define LOB_TESTS_LINT_FIXTURES_GOOD_GUARDED_BY_H_

#include <cstdint>
#include <vector>

#include "common/lock_order.h"
#include "common/thread_annotations.h"

namespace lob {

class GoodGuard {
 public:
  void Add(uint64_t v) LOB_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    values_.push_back(v);
    ++count_;
  }

 private:
  const uint32_t capacity_ = 16;  // immutable: exempt
  mutable Mutex mu_;
  CondVar cv_;
  std::vector<uint64_t> values_ LOB_GUARDED_BY(mu_);
  uint64_t count_ LOB_GUARDED_BY(mu_) = 0;
  // LOBLINT(guarded-by): owner-thread confined — written before any
  // worker starts and never mutated afterwards.
  uint64_t epoch_ = 0;
};

}  // namespace lob

#endif  // LOB_TESTS_LINT_FIXTURES_GOOD_GUARDED_BY_H_
