// The VM-transfer strategy of a migration: how the address space moves
// (thesis §4.2.1, experiments E2 and E19). One enum for the manager that
// selects it and the xfer::Engine that executes it; the strategies
// themselves are described in migration/manager.h.
#pragma once

#include <string>

namespace sprite::mig {

enum class VmStrategy : int {
  kSpriteFlush = 0,  // flush dirty pages; the target demand-pages
  kWholeCopy,        // whole resident image while frozen
  kPreCopy,          // pre-copy rounds with the paper's fixed tuning
  kCopyOnRef,        // page tables only; the target pulls on reference
  kIterPreCopy,      // pre-copy rounds with convergence control
  kPostCopy,         // copy-on-reference plus a background push
  kContentAddr,      // content-id dedup against the target's cache
};
const char* strategy_name(VmStrategy s);
// Inverse of strategy_name, for bench/test flags. Returns false on an
// unknown name.
bool strategy_from_name(const std::string& name, VmStrategy* out);

}  // namespace sprite::mig
