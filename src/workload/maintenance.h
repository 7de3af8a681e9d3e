// Object maintenance utilities built on the public byte-range API.
//
// CompactObject addresses the degradation the paper quantifies: after many
// inserts/deletes an EOS or ESM object's segments shrink toward the
// threshold / leaf size and read costs rise (Figures 9/10). Rewriting the
// object with large sequential appends restores the freshly-built layout -
// the same reorganization Starburst performs implicitly on every update,
// applied on demand. Works with every engine because it only uses the
// LargeObjectManager interface; the modeled I/O of the compaction itself
// is charged normally.

#ifndef LOB_WORKLOAD_MAINTENANCE_H_
#define LOB_WORKLOAD_MAINTENANCE_H_

#include <cstdint>

#include "common/config.h"
#include "core/large_object.h"
#include "core/storage_system.h"

namespace lob {

/// Rewrites the object into a freshly built layout by draining it through
/// `chunk_bytes`-sized appends (default: the 512 KB staging size the paper
/// uses for Starburst copies). The object id stays valid. Returns the
/// modeled I/O the compaction itself cost.
[[nodiscard]]
StatusOr<IoStats> CompactObject(StorageSystem* sys, LargeObjectManager* mgr,
                                ObjectId id,
                                uint64_t chunk_bytes = kCopyBufferBytes);

}  // namespace lob

#endif  // LOB_WORKLOAD_MAINTENANCE_H_
