// LOBLINT-FIXTURE-PATH: src/esm/fake_copy.cc
// A manager copying a segment with direct run calls: the gather-write is
// as unattributed as the read, so both call sites must be flagged.
#include "iomodel/sim_disk.h"

namespace lob {

Status CopyRun(SimDisk* disk, AreaId area, PageId from, PageId to,
               uint32_t n, PageRef* refs, const char** srcs) {
  LOB_RETURN_IF_ERROR(disk->ReadRun(area, from, n, refs));
  for (uint32_t i = 0; i < n; ++i) srcs[i] = refs[i].data;
  return disk->WriteRun(area, to, n, srcs);
}

}  // namespace lob
