// LOBLINT-FIXTURE-PATH: src/esm/fake_fastpath.cc
// A manager bypassing the buffer pool and talking to SimDisk directly:
// the I/O is still metered globally but is no longer charged under the
// operation's OpScope label, silently breaking the conservation invariant
// sum(attributed) == global that obs_test enforces on all three engines.
#include "iomodel/sim_disk.h"

namespace lob {

Status FastBulkRead(SimDisk* disk, AreaId area, PageId first, uint32_t n,
                    PageRef* refs) {
  return disk->ReadRun(area, first, n, refs);
}

}  // namespace lob
