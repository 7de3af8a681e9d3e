// LOBLINT-FIXTURE-PATH: src/esm/bad_guard.h
//
// A mutable member sitting next to a mutex with no LOB_GUARDED_BY: either
// the lock protects it (annotate it) or something else does (say what,
// with a LOBLINT(guarded-by) suppression). Silent is not an option.

#ifndef LOB_TESTS_LINT_FIXTURES_BAD_GUARDED_BY_H_
#define LOB_TESTS_LINT_FIXTURES_BAD_GUARDED_BY_H_

#include <cstdint>

#include "common/lock_order.h"
#include "common/thread_annotations.h"

namespace lob {

class BadGuard {
 private:
  Mutex mu_;
  uint64_t hits_ = 0;  // BAD: shared mutable state, no LOB_GUARDED_BY
};

}  // namespace lob

#endif  // LOB_TESTS_LINT_FIXTURES_BAD_GUARDED_BY_H_
