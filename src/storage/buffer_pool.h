#ifndef KIMDB_STORAGE_BUFFER_POOL_H_
#define KIMDB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "util/result.h"
#include "util/status.h"

namespace kimdb {

/// Frame lifecycle (DESIGN.md §11): a frame is free, has a read or a
/// write-back in flight, or caches a page. All transitions happen under
/// the owning shard's mutex; the I/O itself does not.
///
///   kFree ──claim──▶ kIoRead ──read ok──▶ kResident
///     ▲                 │ read failed          │ victim chosen, dirty
///     └─────────────────┘                      ▼
///     ▲                              kIoWrite (still mapped)
///     │ write ok (unmap)                       │ write failed
///     └────────────────────────────────────────┴──▶ back to kResident
///
/// A checkpoint flush is not a state: the frame stays kResident (readers
/// may still pin it) but carries `flush_in_flight` while its snapshot is
/// being written off-lock. Eviction treats a flagged frame as mid-I/O,
/// so the mapping cannot change until the flush write lands.
enum class FrameState : uint8_t {
  kFree = 0,     // unmapped, claimable
  kIoRead,       // mapped, a fetcher's disk read is in flight
  kIoWrite,      // mapped, eviction write-back of the old page in flight
  kResident,     // mapped, data valid
};

/// A buffer-pool frame. `data` points at kPageSize bytes. `pin_count` and
/// `dirty` are atomics because Unpin/MarkDirty adjust them without taking
/// the shard mutex (the O(1) frame-handle fast path); every other field is
/// protected by the owning shard's mutex.
struct Frame {
  PageId page_id = kInvalidPageId;
  FrameState state = FrameState::kFree;
  std::atomic<int> pin_count{0};
  std::atomic<bool> dirty{false};
  bool referenced = false;   // clock bit
  bool prefetched = false;   // loaded by ReadAhead, not yet demanded
  /// A FlushPage/FlushAll snapshot of this frame is being written to disk
  /// off-lock. The frame stays pinnable, but it must not be evicted or
  /// remapped: evicting the (now clean) frame would let a re-fetch read
  /// the pre-flush image from disk, and an eviction write-back would race
  /// the flush write for ordering on the device.
  bool flush_in_flight = false;
  std::unique_ptr<char[]> data;
};

/// Stable handle to a pinned frame: shard number + frame index within the
/// shard. Unpin/MarkDirty through a FrameRef are O(1) array operations --
/// no mutex, no page-table hash lookup. A FrameRef is only meaningful
/// while its pin is held (PageGuard enforces this).
struct FrameRef {
  static constexpr uint32_t kInvalidShard = UINT32_MAX;
  uint32_t shard = kInvalidShard;
  uint32_t frame = 0;
  bool valid() const { return shard != kInvalidShard; }
};

/// Counters exposed so benchmarks can report physical behaviour
/// (experiment E8 measures clustering through miss/IO counts). This is a
/// plain snapshot struct; the pool keeps the live counters in atomics so
/// concurrent readers (scans on other threads, ExecContext deltas) never race
/// writers. `misses` counts demand misses only; pages staged by ReadAhead
/// appear in `readahead_issued` and `disk_reads` instead.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t readahead_issued = 0;  // pages staged by ReadAhead
  uint64_t readahead_hits = 0;    // demand fetches served by a staged page
  uint64_t shard_lock_waits = 0;  // contended shard-mutex acquisitions
};

/// Fixed-capacity page cache over a DiskManager, sharded for concurrency:
/// pages hash to one of N shards (N a power of two, default
/// min(16, 2*hardware_concurrency), clamped so each shard keeps a useful
/// number of frames), each owning its frame arena, page table and CLOCK
/// hand under its own mutex. All public methods are thread-safe.
///
/// Disk I/O never happens under a shard lock. On a miss the claimed frame
/// is published in kIoRead state and the lock dropped for the read;
/// concurrent fetchers of the same page wait on the shard condvar instead
/// of double-reading (a same-page miss storm costs exactly one disk
/// read). Eviction write-back of a dirty victim likewise runs off-lock in
/// kIoWrite state with the victim still mapped, so a concurrent fetch of
/// the victim page waits for the write instead of reading a stale image
/// from disk; a failed write restores the victim to resident+dirty, so no
/// frame is ever stranded half-claimed (the PR 2 invariant).
class BufferPool {
 public:
  /// `n_shards` == 0 picks the default; any other value is rounded down
  /// to a power of two (and clamped against `capacity`).
  BufferPool(DiskManager* disk, size_t capacity, size_t n_shards = 0);

  /// Stops and joins the readahead worker. The caller must have quiesced
  /// all other threads using the pool, as with any destruction.
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fetches and pins a page; `*ref` receives the frame handle the caller
  /// must pass to Unpin exactly once per fetch.
  Result<char*> FetchPage(PageId pid, FrameRef* ref);

  /// Allocates a new page on disk, pins a zeroed frame for it. The disk
  /// allocation happens before any shard lock is taken; if no frame can
  /// be claimed the allocated page id is abandoned (it reads back zeroed,
  /// which every chain walker treats as end-of-chain).
  Result<char*> NewPage(PageId* out_pid, FrameRef* ref);

  /// Drops a pin; `dirty` marks the frame as modified. O(1), lock-free.
  void Unpin(FrameRef ref, bool dirty);

  /// Marks a pinned frame modified without releasing the pin. O(1).
  void MarkDirty(FrameRef ref);

  /// Best-effort asynchronous prefetch: hands the given pages to the
  /// pool's background readahead worker, which stages them (unpinned,
  /// flagged prefetched) while the caller keeps working — the staging
  /// read overlaps the caller's compute instead of blocking it. Pages
  /// already resident or in flight are skipped; staging failures are
  /// dropped (the demand fetch will surface any real error). Returns the
  /// number of pages accepted for staging. A demand fetch racing the
  /// worker is safe: whoever claims the frame first reads, the other
  /// waits or hits.
  size_t ReadAhead(std::span<const PageId> pids);

  /// Blocks until the readahead worker's queue is empty and no stage is
  /// in flight. For tests and benchmarks that assert on counters.
  void DrainReadAhead();

  /// Writes a (cached) page back to disk; no-op if not cached or clean.
  /// The write happens outside the shard lock against a snapshot copy;
  /// the frame carries `flush_in_flight` for the duration, so it cannot
  /// be evicted or remapped until the snapshot is on disk (readers may
  /// still pin it). A failed write restores the dirty bit.
  Status FlushPage(PageId pid);

  /// Writes all dirty cached pages back and syncs the device. Dirty page
  /// images are snapshotted under each shard lock and written outside it,
  /// so a checkpoint does not stall concurrent readers of the shard; the
  /// snapshotted frames carry `flush_in_flight` until their writes land.
  /// On a failed write, every not-yet-written page of the batch gets its
  /// dirty bit restored, so an aborted checkpoint loses nothing.
  Status FlushAll();

  /// Consistent-enough snapshot of the counters. Safe to call while other
  /// threads fetch/flush pages (each counter is read atomically).
  BufferPoolStats stats() const {
    constexpr auto kRelaxed = std::memory_order_relaxed;
    BufferPoolStats out;
    out.hits = hits_.load(kRelaxed);
    out.misses = misses_.load(kRelaxed);
    out.evictions = evictions_.load(kRelaxed);
    out.disk_reads = disk_reads_.load(kRelaxed);
    out.disk_writes = disk_writes_.load(kRelaxed);
    out.readahead_issued = readahead_issued_.load(kRelaxed);
    out.readahead_hits = readahead_hits_.load(kRelaxed);
    out.shard_lock_waits = shard_lock_waits_.load(kRelaxed);
    return out;
  }
  void ResetStats() {
    constexpr auto kRelaxed = std::memory_order_relaxed;
    hits_.store(0, kRelaxed);
    misses_.store(0, kRelaxed);
    evictions_.store(0, kRelaxed);
    disk_reads_.store(0, kRelaxed);
    disk_writes_.store(0, kRelaxed);
    readahead_issued_.store(0, kRelaxed);
    readahead_hits_.store(0, kRelaxed);
    shard_lock_waits_.store(0, kRelaxed);
  }

  size_t capacity() const { return capacity_; }
  size_t shard_count() const { return shards_.size(); }
  DiskManager* disk() const { return disk_; }

  /// Readahead batch the scan layers should use against this pool: large
  /// enough to batch I/O, small enough that staging cannot evict the
  /// batch's own earlier pages out of a tiny pool.
  size_t readahead_window() const {
    size_t w = capacity_ / 4;
    if (w < 1) w = 1;
    return w > kMaxReadAheadWindow ? kMaxReadAheadWindow : w;
  }
  static constexpr size_t kMaxReadAheadWindow = 8;

  /// Wires the contended-shard-lock wait histogram (nanoseconds). Called
  /// once at Database::Open, before concurrent use; null detaches.
  void AttachMetrics(obs::Histogram* shard_wait_ns) {
    shard_wait_ns_ = shard_wait_ns;
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Fetchers wait here for in-flight reads/write-backs of their page.
    std::condition_variable io_cv;
    std::vector<Frame> frames;
    std::unordered_map<PageId, uint32_t> page_table;
    size_t clock_hand = 0;
  };

  size_t ShardOf(PageId pid) const {
    // Extent chains allocate roughly consecutive page ids; the low bits
    // round-robin them across shards, spreading a scan's locks.
    return static_cast<size_t>(pid) & shard_mask_;
  }

  /// Acquires the shard mutex, recording contended acquisitions in the
  /// attached wait histogram (uncontended acquisitions cost no clock read).
  std::unique_lock<std::mutex> LockShard(Shard& sh);

  /// Returns the index of a frame in kFree state (unmapped, unpinned),
  /// evicting a victim if needed. Requires `lock` held on entry; may
  /// release and reacquire it to write back a dirty victim (the victim
  /// stays mapped in kIoWrite so fetchers of its page wait). Returns
  /// ResourceExhausted only when every frame is pinned; frames with I/O
  /// in flight are waited for instead.
  Result<uint32_t> ClaimFrame(Shard& sh, std::unique_lock<std::mutex>& lock);

  /// Claims a frame, publishes `pid` in kIoRead state, reads the page off
  /// the lock and finalizes the frame. On success the frame is resident
  /// with pin_count == `pin` and `prefetched` set as given. Requires
  /// `lock` held; holds it again on return.
  Result<uint32_t> LoadPage(Shard& sh, std::unique_lock<std::mutex>& lock,
                            PageId pid, int pin, bool prefetched);

  /// Readahead worker body: stages one queued page (unpinned, flagged
  /// prefetched) unless it became resident meanwhile; errors are dropped.
  void StagePage(PageId pid);
  void ReadAheadWorker();

  /// Queue bound; beyond it ReadAhead drops the rest of the batch (the
  /// scan is outrunning the worker anyway, demand fetches take over).
  static constexpr size_t kMaxReadAheadQueue = 64;

  DiskManager* disk_;
  std::vector<Shard> shards_;
  size_t shard_mask_ = 0;
  size_t capacity_ = 0;
  obs::Histogram* shard_wait_ns_ = nullptr;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> disk_reads_{0};
  std::atomic<uint64_t> disk_writes_{0};
  std::atomic<uint64_t> readahead_issued_{0};
  std::atomic<uint64_t> readahead_hits_{0};
  std::atomic<uint64_t> shard_lock_waits_{0};

  // Background readahead worker. The queue has its own mutex, never held
  // together with a shard mutex (ReadAhead drops the shard lock before
  // enqueuing; the worker takes the shard lock only after popping).
  std::mutex ra_mu_;
  std::condition_variable ra_cv_;       // worker wakeup
  std::condition_variable ra_idle_cv_;  // DrainReadAhead waiters
  std::deque<PageId> ra_queue_;
  bool ra_stop_ = false;
  bool ra_staging_ = false;  // worker is mid-stage (off both mutexes)
  std::thread ra_thread_;
};

/// RAII pin guard: fetches on construction, unpins on destruction. The
/// guard carries the FrameRef, so release is an O(1) frame operation.
///
///   PageGuard g(bp, pid);
///   KIMDB_RETURN_IF_ERROR(g.status());
///   SlottedPage page(g.data());
///   ... g.MarkDirty();
class PageGuard {
 public:
  PageGuard(BufferPool* bp, PageId pid) : bp_(bp), pid_(pid) {
    Result<char*> r = bp->FetchPage(pid, &ref_);
    if (r.ok()) {
      data_ = *r;
    } else {
      status_ = r.status();
    }
  }

  /// Creates a new page (allocating from disk).
  static PageGuard NewPage(BufferPool* bp) {
    PageGuard g;
    g.bp_ = bp;
    Result<char*> r = bp->NewPage(&g.pid_, &g.ref_);
    if (r.ok()) {
      g.data_ = *r;
    } else {
      g.status_ = r.status();
    }
    return g;
  }

  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    Release();
    bp_ = other.bp_;
    pid_ = other.pid_;
    ref_ = other.ref_;
    data_ = other.data_;
    dirty_ = other.dirty_;
    status_ = std::move(other.status_);
    other.data_ = nullptr;
    return *this;
  }
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  ~PageGuard() { Release(); }

  const Status& status() const { return status_; }
  bool ok() const { return status_.ok(); }
  char* data() const { return data_; }
  PageId page_id() const { return pid_; }
  const FrameRef& frame_ref() const { return ref_; }
  void MarkDirty() { dirty_ = true; }

  void Release() {
    if (data_ != nullptr) {
      bp_->Unpin(ref_, dirty_);
      data_ = nullptr;
    }
  }

 private:
  PageGuard() = default;

  BufferPool* bp_ = nullptr;
  PageId pid_ = kInvalidPageId;
  FrameRef ref_;
  char* data_ = nullptr;
  bool dirty_ = false;
  Status status_;
};

}  // namespace kimdb

#endif  // KIMDB_STORAGE_BUFFER_POOL_H_
