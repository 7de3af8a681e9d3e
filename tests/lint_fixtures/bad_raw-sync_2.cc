// LOBLINT-FIXTURE-PATH: tools/bad_sync_tool.cc
//
// Tools are in scope too: a condition_variable wait in a tool is exactly
// as much a lock as one in the library.

#include <condition_variable>
#include <mutex>

namespace lob {

struct Waiter {
  std::mutex mu;                // BAD
  std::condition_variable cv;   // BAD: raw condvar
  bool ready = false;
};

}  // namespace lob
