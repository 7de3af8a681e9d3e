// LOBLINT-FIXTURE-PATH: src/esm/good_sync.cc
//
// The sanctioned form: state that threads must share is one std::atomic,
// never a lock.

#include <atomic>

namespace lob {

class GoodCounter {
 public:
  int Next() { return count_.fetch_add(1) + 1; }

 private:
  std::atomic<int> count_{0};
};

}  // namespace lob
