// Flat, cache-friendly storage for recorded ensembles.
//
// One contiguous [frame][sample][particle] buffer replaces the former
// triple-nested vector-of-vector-of-vector: a frame is a stride of
// m·n Vec2, a sample within it a stride of n, so per-frame analysis walks
// a single linear block and the ensemble driver streams each sample's
// frames straight into its slots (no staging copy, no per-frame
// allocations). Views hand out spans, keeping the analyzer/alignment call
// sites pointer-free.
//
// Storage backing is selectable (StorageMode): the default keeps the block
// on the heap; `kMapped` backs it with a memory-mapped spill file created
// at full size upfront — the recording grid F·m·n is known before the
// first step — so paper-sized recordings (m = 500+, long stride) stop
// being RAM-bound: producers still write disjoint sample_slot spans
// concurrently, and flush_samples() pushes finished extents to disk and
// drops them from the resident set while the run continues. `kAuto` spills
// only when the projected payload crosses a threshold. The swap is purely
// a storage-layer concern: every accessor hands out the same spans/views
// either way, so the analyzer and alignment paths run unchanged on mapped
// recordings. Mapping failures (unwritable spill_dir, …) fall back to heap
// silently — see io::MappedBuffer.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "geom/frame_view.hpp"
#include "geom/vec2.hpp"
#include "io/mapped_buffer.hpp"

namespace sops::support {
class Executor;
}  // namespace sops::support

namespace sops::core {

/// Where a FrameStore keeps its position block.
enum class StorageMode {
  kHeap,    ///< std::vector backing (the default)
  kMapped,  ///< mmap'd spill file, created at full size upfront
  kAuto,    ///< kMapped once the projected bytes() crosses auto_spill_bytes
};

/// Backing selection for a FrameStore (config keys `frame_storage`,
/// `spill_dir`, `spill_threshold_mb` — see core/config_builder.hpp).
struct FrameStoreOptions {
  StorageMode mode = StorageMode::kHeap;
  /// Directory the spill file is created in (must exist; an unwritable or
  /// missing directory falls back to heap).
  std::string spill_dir = ".";
  /// kAuto spills once frames·samples·particles·sizeof(Vec2) is at least
  /// this many bytes. Default: 256 MiB.
  std::size_t auto_spill_bytes = std::size_t{256} << 20;
  /// Non-empty turns the store into a durable *shard*: the payload is
  /// backed by exactly this file (not a generated scratch name in
  /// spill_dir), kept — and MS_SYNC'd — on clean destruction instead of
  /// unlinked, and reopenable later. Unlike scratch spill, shard mode has
  /// no silent heap fallback: durability is the point, so any mapping
  /// failure throws sops::Error with the reason. `mode` is ignored (a
  /// shard is always mapped).
  std::string shard_path;
  /// With shard_path: reopen an existing shard file (size-validated
  /// against the F·m·n payload) instead of creating a fresh one. The
  /// existing bytes are the recording — resume reads completed samples
  /// straight from the file.
  bool open_existing = false;
};

/// Best-effort reclamation of spill files leaked by crashed runs: removes
/// `sops_frames_<pid>_*.spill` entries in `spill_dir` whose recorded pid is
/// no longer alive *and* whose mtime is older than a safety window (both
/// gates, so a just-created file of a racing process or a recycled pid is
/// never touched). Persist-mode shards use caller-chosen names and are
/// never matched. Invoked automatically when a store creates a scratch
/// spill; never throws, never reports — reclamation is housekeeping, not a
/// correctness step (O_EXCL + timestamped names already keep leaked files
/// from colliding with live ones).
void sweep_stale_spill_files(const std::string& spill_dir) noexcept;

/// Owning [frame][sample][particle] position block.
class FrameStore {
 public:
  FrameStore() = default;
  FrameStore(std::size_t frames, std::size_t samples, std::size_t particles);
  FrameStore(std::size_t frames, std::size_t samples, std::size_t particles,
             const FrameStoreOptions& options);

  FrameStore(FrameStore&&) noexcept = default;
  FrameStore& operator=(FrameStore&&) noexcept = default;
  FrameStore& operator=(const FrameStore&) = delete;

  /// A second handle on this store's position block — same shape, same
  /// bytes, no copy — that keeps the block (and a spill file behind it)
  /// alive after this store is moved or destroyed. Readers use it to keep
  /// finished samples readable past the recording's own lifetime (sopsd
  /// encodes each streamed sample from one); the recording's producers
  /// keep writing their slots through the original. A spill file is
  /// unlinked when its last handle goes.
  [[nodiscard]] FrameStore share() const { return FrameStore(*this); }

  [[nodiscard]] std::size_t frame_count() const noexcept { return frames_; }
  [[nodiscard]] std::size_t sample_count() const noexcept { return samples_; }
  [[nodiscard]] std::size_t particle_count() const noexcept {
    return particles_;
  }
  /// Number of frames (container-style alias of frame_count()).
  [[nodiscard]] std::size_t size() const noexcept { return frames_; }
  [[nodiscard]] bool empty() const noexcept { return frames_ == 0; }

  /// View of frame f: all m samples at one recorded step.
  [[nodiscard]] geom::FrameView operator[](std::size_t f) const noexcept {
    return {data_ + f * samples_ * particles_, samples_, particles_};
  }
  /// First / last frame. Throws PreconditionError on an empty store — a
  /// zero-frame recording has no frames to view, and the former noexcept
  /// accessors underflowed frames_ - 1 into a wild out-of-bounds view.
  [[nodiscard]] geom::FrameView front() const;
  [[nodiscard]] geom::FrameView back() const;

  /// Configuration of sample s at frame f.
  [[nodiscard]] std::span<const geom::Vec2> sample(std::size_t f,
                                                   std::size_t s) const noexcept {
    return {data_ + (f * samples_ + s) * particles_, particles_};
  }
  /// Writable slot for streaming producers. Distinct (f, s) slots are
  /// disjoint memory and may be filled concurrently (mapped or heap —
  /// the backing never changes the layout).
  [[nodiscard]] std::span<geom::Vec2> sample_slot(std::size_t f,
                                                  std::size_t s) noexcept {
    return {data_ + (f * samples_ + s) * particles_, particles_};
  }

  /// Size of the position payload in bytes (the per-frame footprint the
  /// perf bench reports is bytes() / frame_count()).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return frames_ * samples_ * particles_ * sizeof(geom::Vec2);
  }

  /// The backing actually in use: kHeap or kMapped, never kAuto (and kHeap
  /// when a requested mapping fell back).
  [[nodiscard]] StorageMode storage() const noexcept {
    return mapped() ? StorageMode::kMapped : StorageMode::kHeap;
  }
  /// Path of the spill file; empty when heap-backed.
  [[nodiscard]] const std::string& spill_path() const noexcept;
  /// Why a requested mapping fell back to heap; empty otherwise.
  [[nodiscard]] const std::string& spill_fallback_reason() const noexcept {
    return fallback_reason_;
  }
  /// First spill I/O failure seen by flush_samples/sync_samples (msync or
  /// madvise errno text), empty while everything succeeded. Spill flushes
  /// are asynchronous hints, so a failing spill device surfaces here — in
  /// the run report — instead of vanishing into ignored return values.
  [[nodiscard]] std::string flush_error() const;

  /// Pushes the extents of samples [begin, end) — across every frame — to
  /// the spill file and drops their pages from the resident set. Sample
  /// ranges are contiguous within each frame, so the per-frame extents are
  /// disjoint file ranges: concurrent flushes of disjoint sample ranges
  /// (one per ensemble chunk) are safe, exactly like concurrent
  /// sample_slot writes. When `executor` is non-null the per-frame msync
  /// calls are sharded over its width (the engine lends its step executor,
  /// keeping the flush off the sample fan-out). No-op on heap backing.
  void flush_samples(std::size_t begin, std::size_t end,
                     support::Executor* executor = nullptr);

  /// Durable variant of flush_samples(): blocks until the extents of
  /// samples [begin, end) are on disk (msync MS_SYNC per frame extent),
  /// then drops their pages. This is the barrier a shard run needs before
  /// flipping a sample's completion bit in the manifest. Returns false —
  /// with the reason in flush_error() — when any extent failed to sync;
  /// the caller must then *not* mark the sample complete. Returns true on
  /// heap backing (nothing to make durable — but shard stores are never
  /// heap-backed by construction).
  [[nodiscard]] bool sync_samples(std::size_t begin, std::size_t end,
                                  support::Executor* executor = nullptr);

  /// Hints the kernel that the store will now be read front to back — the
  /// analyzer's frame-by-frame pass over a finished recording. No-op on
  /// heap backing.
  void advise_sequential_reads() noexcept {
    if (mapped()) backing_->buffer.advise_sequential();
  }

 private:
  // The block data_ points into, with the first-failure slot its
  // concurrent flushes share. Held by every handle share() hands out, so
  // the block lives as long as its last reader.
  struct Backing {
    std::vector<geom::Vec2> heap;
    io::MappedBuffer buffer;  // engaged only when actually mapped
    std::mutex io_error_mutex;
    std::string io_error;  // guarded by io_error_mutex
  };

  FrameStore(const FrameStore&) = default;  // share()'s handle copy

  [[nodiscard]] bool mapped() const noexcept {
    return backing_ != nullptr && backing_->buffer.mapped();
  }
  template <typename FlushFrame>
  void for_each_frame_extent(support::Executor* executor, FlushFrame&& flush);
  void note_io_error(const char* operation);

  std::size_t frames_ = 0;
  std::size_t samples_ = 0;
  std::size_t particles_ = 0;
  geom::Vec2* data_ = nullptr;  // into *backing_; stable under move
  std::shared_ptr<Backing> backing_;
  std::string fallback_reason_;
};

}  // namespace sops::core
