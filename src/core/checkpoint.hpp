// Checkpoint/restore of a running analysis (extension: the paper lists
// "fault tolerance in the cloud" as future work).
//
// A Checkpoint captures, per rank, everything the RC loop needs to resume:
// the rank's local topology view, its DV rows (distances + next hops +
// dirty flags — pending un-sent updates survive the restart), portal
// caches, and the loop cursors (step, schedule position, round-robin
// cursor). Checkpoints are taken at an RC step boundary after the local
// queues have drained, so the row and repair queues are empty by
// construction.
//
//   EngineConfig cfg;
//   cfg.checkpoint_at_step = 5;
//   AnytimeEngine engine(g, cfg);
//   RunResult first = engine.run(schedule);        // stops after step 5
//   // ... the cluster "crashes"; later:
//   AnytimeEngine resumed(first.checkpoint, cfg);
//   RunResult final = resumed.run(schedule);       // continues to quiescence
//
// With EngineConfig::checkpoint_every = k, every rank additionally snapshots
// its state each k RC steps into a PeriodicCheckpoints store; on a rank
// failure the supervisor rolls all ranks back to the newest step every rank
// holds and replays (docs/FAULTS.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace aacc {

/// Restore-time validation failure: world-size mismatch, malformed or
/// truncated blob, unknown version. Derives logic_error — a bad checkpoint
/// is a caller/storage bug, not a runtime condition to retry.
class CheckpointError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

struct Checkpoint {
  /// One opaque serialized state blob per rank.
  std::vector<std::vector<std::byte>> rank_blobs;
  /// RC step after which the checkpoint was taken.
  std::size_t step = 0;
  /// Index of the next unconsumed schedule batch.
  std::size_t next_batch = 0;
  /// World size the blobs were produced for.
  Rank num_ranks = 0;

  [[nodiscard]] bool valid() const {
    return num_ranks > 0 &&
           rank_blobs.size() == static_cast<std::size_t>(num_ranks);
  }

  /// Total serialized size (what a real system would write to stable
  /// storage).
  [[nodiscard]] std::size_t bytes() const {
    std::size_t total = 0;
    for (const auto& blob : rank_blobs) total += blob.size();
    return total;
  }
};

/// Checkpoint blob header (wire format v2): every blob opens with the
/// magic bytes and a version byte. See docs/PROTOCOL.md §"Wire format v2".
inline constexpr std::uint8_t kCkptMagic0 = 0xAA;
inline constexpr std::uint8_t kCkptMagic1 = 0xCC;
inline constexpr std::uint8_t kCkptVersion2 = 2;
inline constexpr std::size_t kCkptHeaderBytes = 3;

/// Checks one blob's magic/version header; `who` names the blob in the
/// message ("rank 2"). Deep truncation inside the blob is caught during restore (the bounds-checked
/// reader) and re-raised as CheckpointError with rank context by the
/// engine. Throws CheckpointError.
inline void validate_blob_header(std::span<const std::byte> blob,
                                 const std::string& who) {
  if (blob.empty()) {
    throw CheckpointError(who + " checkpoint blob is empty");
  }
  if (blob.size() < 2 ||
      std::to_integer<std::uint8_t>(blob[0]) != kCkptMagic0 ||
      std::to_integer<std::uint8_t>(blob[1]) != kCkptMagic1) {
    throw CheckpointError(who + " checkpoint blob has no v2 header");
  }
  if (blob.size() < kCkptHeaderBytes) {
    throw CheckpointError(who + " checkpoint blob truncated inside the header");
  }
  const auto version = std::to_integer<std::uint8_t>(blob[2]);
  if (version != kCkptVersion2) {
    throw CheckpointError(who + " checkpoint blob has unknown version " +
                          std::to_string(version));
  }
}

/// Structural validation before any blob is parsed: shape, world size, and
/// each blob's header. Throws CheckpointError.
inline void validate_checkpoint(const Checkpoint& ck, Rank world_size) {
  if (ck.num_ranks <= 0) {
    throw CheckpointError("checkpoint has no ranks (num_ranks = " +
                          std::to_string(ck.num_ranks) + ")");
  }
  if (ck.rank_blobs.size() != static_cast<std::size_t>(ck.num_ranks)) {
    throw CheckpointError(
        "checkpoint blob count (" + std::to_string(ck.rank_blobs.size()) +
        ") does not match its num_ranks (" + std::to_string(ck.num_ranks) + ")");
  }
  if (ck.num_ranks != world_size) {
    throw CheckpointError("checkpoint was taken with a different world size (" +
                          std::to_string(ck.num_ranks) + " vs " +
                          std::to_string(world_size) + ")");
  }
  for (std::size_t r = 0; r < ck.rank_blobs.size(); ++r) {
    validate_blob_header(ck.rank_blobs[r], "rank " + std::to_string(r));
  }
}

/// Driver-side store of periodic snapshots (EngineConfig::checkpoint_every).
/// Each rank writes only its own slot from its own thread, so no locking is
/// needed while a run is in flight; the supervisor reads after join. Keeps
/// the last two snapshots per rank: when a crash lands while some ranks
/// have already written step s and others have not, the newest step held by
/// *all* ranks is still available.
class PeriodicCheckpoints {
 public:
  explicit PeriodicCheckpoints(Rank num_ranks)
      : slots_(static_cast<std::size_t>(num_ranks)) {}

  void store(Rank rank, std::size_t step, std::vector<std::byte> blob) {
    auto& history = slots_[static_cast<std::size_t>(rank)];
    history.emplace_back(step, std::move(blob));
    if (history.size() > 2) history.pop_front();
  }

  /// The newest step for which every rank holds a snapshot, assembled into
  /// a Checkpoint (next_batch left at 0 — the supervisor fills it from the
  /// schedule). Empty when any rank has no snapshot yet.
  [[nodiscard]] std::optional<Checkpoint> latest_consistent() const {
    std::size_t step = static_cast<std::size_t>(-1);
    for (const auto& history : slots_) {
      if (history.empty()) return std::nullopt;
      step = std::min(step, history.back().first);
    }
    Checkpoint ck;
    ck.step = step;
    ck.num_ranks = static_cast<Rank>(slots_.size());
    ck.rank_blobs.reserve(slots_.size());
    for (const auto& history : slots_) {
      const auto* match = [&]() -> const std::vector<std::byte>* {
        for (const auto& [s, blob] : history) {
          if (s == step) return &blob;
        }
        return nullptr;
      }();
      if (match == nullptr) return std::nullopt;  // gap: no common step
      ck.rank_blobs.push_back(*match);
    }
    return ck;
  }

 private:
  std::vector<std::deque<std::pair<std::size_t, std::vector<std::byte>>>> slots_;
};

}  // namespace aacc
