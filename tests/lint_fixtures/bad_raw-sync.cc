// LOBLINT-FIXTURE-PATH: src/esm/bad_sync.cc
//
// Raw std synchronization in library code: threads share only atomics, so
// a lock means state that should be confined to one thread (or be a
// std::atomic) is shared instead.

#include <mutex>

namespace lob {

int Counter() {
  static std::mutex mu;  // BAD: raw mutex
  static int count = 0;
  std::lock_guard<std::mutex> lock(mu);  // BAD: raw lock
  return ++count;
}

}  // namespace lob
