// LOBLINT-FIXTURE-PATH: tools/bad_sync_tool.cc
//
// Tools are in scope too: a condition_variable wait in a tool is exactly
// as invisible to the leaf-lock checker as one in the library.

#include <condition_variable>
#include <mutex>

namespace lob {

struct Waiter {
  std::mutex mu;                // BAD
  std::condition_variable cv;   // BAD: raw condvar, use lob::CondVar
  bool ready = false;
};

}  // namespace lob
