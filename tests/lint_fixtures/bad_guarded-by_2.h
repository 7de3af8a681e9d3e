// LOBLINT-FIXTURE-PATH: src/exec/bad_queue.h
//
// A member whose type spells a function signature inside its template
// arguments is still a data member: the parentheses in
// std::function<void()> must not hide it from the guard check.

#ifndef LOB_TESTS_LINT_FIXTURES_BAD_GUARDED_BY_2_H_
#define LOB_TESTS_LINT_FIXTURES_BAD_GUARDED_BY_2_H_

#include <deque>
#include <functional>

#include "common/lock_order.h"

namespace lob {

class BadQueue {
 private:
  Mutex mu_;
  std::deque<std::function<void()>> queue_;  // BAD: no LOB_GUARDED_BY
};

}  // namespace lob

#endif  // LOB_TESTS_LINT_FIXTURES_BAD_GUARDED_BY_2_H_
