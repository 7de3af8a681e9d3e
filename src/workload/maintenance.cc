#include "workload/maintenance.h"

#include <algorithm>
#include <string>

#include "common/logging.h"

namespace lob {

StatusOr<IoStats> CompactObject(StorageSystem* sys, LargeObjectManager* mgr,
                                ObjectId id, uint64_t chunk_bytes) {
  if (chunk_bytes == 0) return Status::InvalidArgument("zero chunk size");
  const IoStats before = sys->stats();
  auto size = mgr->Size(id);
  if (!size.ok()) return size.status();
  // Read the whole object (chunked, like the Starburst staging buffer),
  // truncate it, then append it back in large sequential chunks. Appends
  // rebuild the engine's ideal layout: full fixed leaves for ESM, doubling
  // extents for Starburst/EOS.
  std::string content;
  content.reserve(*size);
  std::string chunk;
  for (uint64_t at = 0; at < *size; at += chunk_bytes) {
    const uint64_t take = std::min(chunk_bytes, *size - at);
    LOB_RETURN_IF_ERROR(mgr->Read(id, at, take, &chunk));
    content += chunk;
  }
  LOB_RETURN_IF_ERROR(mgr->Delete(id, 0, *size));
  for (uint64_t at = 0; at < content.size(); at += chunk_bytes) {
    const uint64_t take = std::min(chunk_bytes, content.size() - at);
    LOB_RETURN_IF_ERROR(
        mgr->Append(id, std::string_view(content).substr(at, take)));
  }
  // Release the growth slack of the rebuilt last segment.
  LOB_RETURN_IF_ERROR(mgr->Trim(id));
  return IoStats::Delta(before, sys->stats());
}

}  // namespace lob
