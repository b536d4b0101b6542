// Parity primitives for the SCR-style peer redundancy tier (src/redundancy/).
//
// Config-only + pure helpers: safe to include from core/cloud.h. The
// stateful side (group formation, encode, rebuild) and the group width
// (Manager::kGroupSize) live in manager.h.
#pragma once

#include "common/buffer.h"

namespace blobcr::redundancy {

/// Deployment switch, wired through CloudConfig::redundancy.
struct RedundancyConfig {
  /// Master switch; off = PR-3 four-level restart hierarchy, byte-identical.
  bool enabled = false;
};

/// Bytewise XOR of two payloads, zero-padded to the longer one. Honesty
/// rule (same as reduce/): phantom content is unknowable, so any phantom
/// byte in either operand poisons the result to a phantom of the combined
/// length — sizes, placement and transfer costs still flow, only the
/// memxor is skipped.
common::Buffer xor_combine(const common::Buffer& a, const common::Buffer& b);

}  // namespace blobcr::redundancy
