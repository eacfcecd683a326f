/**
 * @file
 * Pipeline checkpoint container: a versioned image of one pipeline
 * instance's complete execution state.
 *
 * Layout (all integers little-endian; docs/ROBUSTNESS.md,
 * "Checkpointing & migration"):
 *
 *   u32  magic   'ZCK1' (0x314b435a)
 *   u32  version (kSnapshotVersion)
 *   u64  consumed  — input elements consumed when the snapshot was taken
 *   u64  emitted   — output elements emitted when it was taken
 *   blob frame image (the flat byte frame's stateSize() bytes,
 *        zexpr/frame.h)
 *   node state stream (ExecNode::snapshot over the whole tree)
 *
 * The frame image makes the container total even for state the node
 * walk cannot enumerate (frame cells written by compiled Action /
 * EvalInto closures inside fused regions); the node stream carries
 * everything that lives outside the frame (ring buffers, native kernel
 * state, fused register/state/channel spaces, loop counters).
 *
 * Restore order matters: reset(f) first (NativeNode factories re-read
 * binders, all children end up started), then the frame image (reset
 * clobbers LetVar cells), then the node stream (which re-creates native
 * kernels against the restored binders).
 */
#ifndef ZIRIA_ZEXEC_SNAPSHOT_H
#define ZIRIA_ZEXEC_SNAPSHOT_H

#include <cstdint>
#include <vector>

#include "support/state_io.h"
#include "zexec/node.h"

namespace ziria {

/** Bump when the container layout or any node's encoding changes. */
constexpr uint32_t kSnapshotVersion = 2;

/** 'ZCK1' — pipeline checkpoint magic. */
constexpr uint32_t kSnapshotMagic = 0x314b435a;

/** Counters recovered from a checkpoint header. */
struct SnapshotInfo
{
    uint64_t consumed = 0;
    uint64_t emitted = 0;
};

/**
 * Serialize the complete state of @p root + @p f.  Must be called at a
 * quiescent point: no advance()/supply() in flight.
 */
std::vector<uint8_t> takeSnapshot(const ExecNode& root, const Frame& f,
                                  uint64_t consumed, uint64_t emitted);

/**
 * Restore @p root + @p f from a takeSnapshot() image.  Throws
 * StateFormatError on bad magic, version skew, frame-size mismatch, or
 * a truncated stream.  On success the tree's future output is
 * bit-identical to the snapshotted instance's.
 */
SnapshotInfo restoreSnapshot(ExecNode& root, Frame& f,
                             const uint8_t* data, size_t size);

inline SnapshotInfo
restoreSnapshot(ExecNode& root, Frame& f, const std::vector<uint8_t>& v)
{
    return restoreSnapshot(root, f, v.data(), v.size());
}

} // namespace ziria

#endif // ZIRIA_ZEXEC_SNAPSHOT_H
