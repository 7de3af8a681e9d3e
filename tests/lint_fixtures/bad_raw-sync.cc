// LOBLINT-FIXTURE-PATH: src/esm/bad_sync.cc
//
// Raw std synchronization in library code: the acquisition bypasses the
// run-time leaf-lock check and is invisible to Clang -Wthread-safety. Lock through lob::Mutex / MutexLock instead.

#include <mutex>

namespace lob {

int Counter() {
  static std::mutex mu;  // BAD: raw mutex
  static int count = 0;
  std::lock_guard<std::mutex> lock(mu);  // BAD: raw lock
  return ++count;
}

}  // namespace lob
