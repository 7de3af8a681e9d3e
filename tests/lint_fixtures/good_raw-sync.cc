// LOBLINT-FIXTURE-PATH: src/common/fake_sync.cc
//
// src/common/ is the one place raw primitives are allowed: it is where
// the leaf lob::Mutex wrappers themselves are implemented.

#include <mutex>

namespace lob {

int Counter() {
  static std::mutex mu;
  static int count = 0;
  std::lock_guard<std::mutex> lock(mu);
  return ++count;
}

}  // namespace lob
