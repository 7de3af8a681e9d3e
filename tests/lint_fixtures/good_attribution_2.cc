// LOBLINT-FIXTURE-PATH: src/workload/fake_audit.cc
// A justified direct call: persistence/audit walks outside the metered
// path may suppress the rule with a reviewed reason.
#include "iomodel/sim_disk.h"

namespace lob {

Status SnapshotPage(SimDisk* disk, AreaId area, PageId page, PageRef* ref) {
  // LOBLINT(attribution): audit-only path, always wrapped in
  // StorageSystem::UnmeteredSection by the single caller, so no attributed
  // cost exists to conserve.
  return disk->ReadRun(area, page, 1, ref);
}

}  // namespace lob
