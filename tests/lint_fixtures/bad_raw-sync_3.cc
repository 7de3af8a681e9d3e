// LOBLINT-FIXTURE-PATH: src/common/fake_sync.cc
//
// src/common/ is in scope like the rest of the library: no directory may
// hold a lock, because threads share only atomics.

#include <mutex>

namespace lob {

int Counter() {
  static std::mutex mu;  // BAD: raw mutex, even in src/common/
  static int count = 0;
  std::lock_guard<std::mutex> lock(mu);  // BAD: raw lock
  return ++count;
}

}  // namespace lob
