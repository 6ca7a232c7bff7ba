#include "extmem/page_cache.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "obs/watchdog.hpp"

namespace gep {
namespace {

// Flight-recorder shorthand for page-traffic events ((file, page) packed
// into the payload). Compiles away at GEP_OBS=0.
inline void rec_page(obs::flightfmt::Ev e, int file, std::uint64_t page) {
  obs::flight::record(e, obs::flightfmt::pack_page(file, page));
}

// Process-wide mirrors: every PageCache instance publishes into the same
// registry counters (the bench reporter snapshots them by name).
struct PageCacheObs {
  obs::Counter hits = obs::counter("extmem.page_cache.hits");
  obs::Counter misses = obs::counter("extmem.page_cache.misses");
  obs::Counter evictions = obs::counter("extmem.page_cache.evictions");
  obs::Counter writebacks = obs::counter("extmem.page_cache.writebacks");
  obs::Counter writebacks_async =
      obs::counter("extmem.page_cache.writebacks_async");
  obs::Counter prefetch_issued = obs::counter("extmem.prefetch.issued");
  obs::Counter prefetch_completed = obs::counter("extmem.prefetch.completed");
  obs::Counter prefetch_hits = obs::counter("extmem.prefetch.hits");
  obs::Counter prefetch_redundant = obs::counter("extmem.prefetch.redundant");
  obs::Counter prefetch_dropped = obs::counter("extmem.prefetch.dropped");
  obs::Gauge queue_depth = obs::gauge("extmem.prefetch.queue_depth");
  // 1.0 while the async worker is degraded: the stat server's /healthz
  // reads this (it cannot reach PageCache instances from gep_obs).
  obs::Gauge degraded = obs::gauge("extmem.async.degraded");
  // Resident (valid-mapping) fraction of the cache's frames.
  obs::Gauge occupancy = obs::gauge("extmem.cache.occupancy");
  obs::Counter writeback_failures =
      obs::counter("robust.writeback_failures");
  obs::Counter prefetch_errors = obs::counter("robust.prefetch_errors");
  obs::Counter async_degraded = obs::counter("robust.async_degraded");
};
PageCacheObs& page_cache_obs() {
  static PageCacheObs o;
  return o;
}

// How long acquire() waits for another thread to unpin a frame before
// concluding the cache is over-committed and throwing.
constexpr auto kAllPinnedDeadline = std::chrono::milliseconds(250);

// Sleeps off the realized slice of a transfer's modeled latency. Must be
// called WITHOUT mu_ held — this is the latency prefetch overlaps.
void realize_latency(const DiskModel& model, double sim_seconds) {
  if (model.realize_fraction <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(
      sim_seconds * model.realize_fraction));
}

}  // namespace

PageCache::PageCache(std::uint64_t capacity_bytes, std::uint64_t page_bytes,
                     DiskModel model, RobustOptions robust)
    : page_bytes_(page_bytes),
      frame_count_(capacity_bytes / page_bytes),
      model_(model),
      robust_(robust) {
  assert(page_bytes_ > 0);
  if (frame_count_ == 0) frame_count_ = 1;
  pool_ = make_aligned<char>(frame_count_ * page_bytes_);
  frames_ = std::make_unique<Frame[]>(frame_count_);
  lru_pos_.resize(frame_count_);
  for (std::size_t f = 0; f < frame_count_; ++f) {
    lru_.push_back(f);  // cold frames at the back
    lru_pos_[f] = std::prev(lru_.end());
  }
  table_.reserve(frame_count_ * 2);
}

PageCache::~PageCache() {
  disable_async_io();
  try {
    flush();
  } catch (...) {
    // Destructors must not throw. The failure was already counted
    // (writeback_failures_); data in still-dirty frames is lost with
    // the anonymous backing file, exactly as on process death.
  }
}

int PageCache::register_file(std::uint64_t pages) {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(files_.size());
  std::unique_ptr<BlockStore> store =
      std::make_unique<BlockFile>(page_bytes_);
  FaultInjector* inj = nullptr;
  if (robust_.faults.enabled()) {
    FaultConfig cfg = robust_.faults;
    // Distinct per-file streams, deterministic in registration order.
    cfg.seed = cfg.seed * 0x9E3779B97F4A7C15ULL + static_cast<unsigned>(id);
    auto fi = std::make_unique<FaultInjector>(std::move(store), cfg);
    inj = fi.get();
    store = std::move(fi);
  }
  auto rs = std::make_unique<RobustStore>(
      std::move(store), robust_.retry, robust_.checksums,
      /*backoff_seed=*/0x9E3779B9ULL + static_cast<unsigned>(id));
  robust_views_.push_back(rs.get());
  injector_views_.push_back(inj);
  files_.push_back(std::move(rs));
  bounds_.push_back(pages < kMaxPages ? pages : kMaxPages);
  changed_.emplace_back();
  return id;
}

void PageCache::note_write(int file_id, std::uint64_t page) {
  ChangeSet& cs = changed_[static_cast<std::size_t>(file_id)];
  cs.total.insert(page);
  cs.since.insert(page);
}

FaultInjector* PageCache::fault_injector(int file_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_id < 0 ||
      static_cast<std::size_t>(file_id) >= injector_views_.size()) {
    return nullptr;
  }
  return injector_views_[static_cast<std::size_t>(file_id)];
}

void PageCache::check_key(int file_id, std::uint64_t page) const {
  if (file_id < 0 || static_cast<std::size_t>(file_id) >= files_.size()) {
    throw std::out_of_range("PageCache: unregistered file id");
  }
  if (page >= bounds_[static_cast<std::size_t>(file_id)]) {
    throw std::out_of_range("PageCache: page beyond the file's bound");
  }
}

PageCache::StatShard& PageCache::stat_cell() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned shard = next.fetch_add(1) % kStatShards;
  return stat_shards_[shard];
}

void PageCache::add_double(std::atomic<double>& a, double d) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

void PageCache::touch_lru(std::size_t frame) {
  lru_.splice(lru_.begin(), lru_, lru_pos_[frame]);
}

std::size_t PageCache::write_behind_candidate() const {
  // Only the LRU tail quarter: those frames are next in line for
  // eviction, so a background flush there replaces a foreground
  // write-back one-for-one instead of duplicating writes of hot pages.
  std::size_t budget = frame_count_ / 4 + 1;
  for (auto rit = lru_.rbegin(); rit != lru_.rend() && budget > 0; ++rit) {
    const Frame& fr = frames_[*rit];
    if (!fr.valid) continue;  // cold frames don't count against the budget
    --budget;
    if (fr.dirty && !fr.io_busy &&
        fr.pins.load(std::memory_order_acquire) == 0) {
      return *rit;
    }
  }
  return kNoFrame;
}

std::size_t PageCache::pick_victim(std::unique_lock<std::mutex>& lock,
                                   bool is_prefetch) {
  const auto deadline = std::chrono::steady_clock::now() + kAllPinnedDeadline;
  for (;;) {
    for (auto rit = lru_.rbegin(); rit != lru_.rend(); ++rit) {
      Frame& fr = frames_[*rit];
      if (!fr.io_busy && fr.pins.load(std::memory_order_acquire) == 0) {
        return *rit;
      }
    }
    // No evictable frame right now. The worker never blocks (a full
    // cache just drops the hint); foreground faults wait for an I/O
    // completion or an unpin, then rescan.
    if (is_prefetch) return kNoFrame;
    if (io_in_flight_ > 0) {
      io_cv_.wait(lock);
      continue;
    }
    evict_waiters_.fetch_add(1, std::memory_order_relaxed);
    const auto st = io_cv_.wait_for(lock, std::chrono::milliseconds(10));
    evict_waiters_.fetch_sub(1, std::memory_order_relaxed);
    (void)st;
    if (std::chrono::steady_clock::now() >= deadline && io_in_flight_ == 0) {
      throw std::runtime_error("PageCache: every frame is pinned");
    }
  }
}

// Returns the frame holding (file_id, page) with its contents resident,
// faulting it in if needed. mu_ is held on entry and exit but released
// around the disk transfers (the frame is marked io_busy meanwhile).
// Prefetch calls never block on concurrent I/O and may return kNoFrame.
std::size_t PageCache::resident_frame(std::unique_lock<std::mutex>& lock,
                                      int file_id, std::uint64_t page,
                                      bool for_write, bool is_prefetch) {
  check_key(file_id, page);
  StatShard& st = stat_cell();
  if (!is_prefetch) st.pins.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t key = make_key(file_id, page);
  for (;;) {
    auto it = table_.find(key);
    if (it == table_.end()) break;
    Frame& fr = frames_[it->second];
    if (fr.io_busy) {
      if (is_prefetch) {
        // Already being faulted (or its frame is mid-writeback): the
        // hint has done its job or cannot help; don't stall the worker.
        st.prefetch_redundant.fetch_add(1, std::memory_order_relaxed);
        page_cache_obs().prefetch_redundant.inc();
        return kNoFrame;
      }
      io_cv_.wait(lock);
      continue;  // re-lookup: the mapping may have changed
    }
    // Resident.
    if (is_prefetch) {
      st.prefetch_redundant.fetch_add(1, std::memory_order_relaxed);
      page_cache_obs().prefetch_redundant.inc();
      touch_lru(it->second);  // the hint says it's about to be used
      return it->second;
    }
    st.hits.fetch_add(1, std::memory_order_relaxed);
    page_cache_obs().hits.inc();
    if (fr.prefetched) {
      fr.prefetched = false;
      st.prefetch_hits.fetch_add(1, std::memory_order_relaxed);
      page_cache_obs().prefetch_hits.inc();
    }
    touch_lru(it->second);
    if (for_write) {
      fr.dirty = true;
      note_write(file_id, page);
    }
    return it->second;
  }
  // Fault: repurpose the least-recently-used unlocked frame.
  const std::size_t frame = pick_victim(lock, is_prefetch);
  if (frame == kNoFrame) {
    st.prefetch_dropped.fetch_add(1, std::memory_order_relaxed);
    page_cache_obs().prefetch_dropped.inc();
    return kNoFrame;
  }
  if (!is_prefetch) page_cache_obs().misses.inc();
  Frame& fr = frames_[frame];
  const bool old_valid = fr.valid;
  const bool old_dirty = fr.dirty;
  const std::uint64_t old_key = fr.key;
  fr.io_busy = true;
  ++io_in_flight_;
  // Publish the new mapping before dropping the lock so a concurrent
  // request for this page waits on io_busy instead of double-faulting.
  // The old mapping stays until the write-back below completes: anyone
  // wanting the old page waits, then re-faults against the fresh file
  // contents.
  table_[key] = frame;
  BlockStore* old_file =
      old_valid && old_dirty
          ? files_[static_cast<std::size_t>(key_file(old_key))].get()
          : nullptr;
  BlockStore* new_file = files_[static_cast<std::size_t>(file_id)].get();
  char* buf = pool_.get() + frame * page_bytes_;
  lock.unlock();
  double wait = 0;
  if (old_file != nullptr) {
    try {
      old_file->write_page(key_page(old_key), buf);
    } catch (...) {
      // Write-back of the victim failed: the frame still holds the old
      // page's bytes untouched, so keep the old mapping, keep it dirty,
      // and only withdraw the new mapping. Nothing is lost; the next
      // eviction attempt retries the write-back.
      lock.lock();
      table_.erase(key);
      fr.io_busy = false;
      --io_in_flight_;
      writeback_failures_.fetch_add(1, std::memory_order_relaxed);
      page_cache_obs().writeback_failures.inc();
      io_cv_.notify_all();
      throw;
    }
    st.page_outs.fetch_add(1, std::memory_order_relaxed);
    page_cache_obs().writebacks.inc();
    rec_page(obs::flightfmt::kPageOut, key_file(old_key), key_page(old_key));
    wait += model_.io_seconds(page_bytes_);
  }
  try {
    new_file->read_page(page, buf);
  } catch (...) {
    // Fault-in failed: the buffer may hold a torn read, so the frame is
    // unusable for either page. The old page (if any) was written back
    // above, so dropping both mappings loses nothing; the frame goes to
    // the LRU tail as the next victim.
    add_double(st.io_wait, wait);
    if (is_prefetch && wait > 0) add_double(st.io_wait_async, wait);
    lock.lock();
    table_.erase(key);
    if (old_valid) {
      table_.erase(old_key);
      st.evictions.fetch_add(1, std::memory_order_relaxed);
      page_cache_obs().evictions.inc();
      rec_page(obs::flightfmt::kEvict, key_file(old_key), key_page(old_key));
    }
    epoch_.fetch_add(1, std::memory_order_release);
    fr.valid = false;
    fr.dirty = false;
    fr.prefetched = false;
    fr.io_busy = false;
    --io_in_flight_;
    lru_.splice(lru_.end(), lru_, lru_pos_[frame]);
    page_cache_obs().occupancy.set(static_cast<double>(table_.size()) /
                                   static_cast<double>(frame_count_));
    io_cv_.notify_all();
    throw;
  }
  st.page_ins.fetch_add(1, std::memory_order_relaxed);
  rec_page(obs::flightfmt::kPageIn, file_id, page);
  wait += model_.io_seconds(page_bytes_);
  add_double(st.io_wait, wait);
  if (is_prefetch) add_double(st.io_wait_async, wait);
  realize_latency(model_, wait);
  lock.lock();
  if (old_valid) {
    table_.erase(old_key);
    st.evictions.fetch_add(1, std::memory_order_relaxed);
    page_cache_obs().evictions.inc();
    rec_page(obs::flightfmt::kEvict, key_file(old_key), key_page(old_key));
    epoch_.fetch_add(1, std::memory_order_release);
  }
  fr.key = key;
  fr.valid = true;
  fr.dirty = !is_prefetch && for_write;
  if (fr.dirty) note_write(file_id, page);
  fr.prefetched = is_prefetch;
  fr.io_busy = false;
  --io_in_flight_;
  touch_lru(frame);
  page_cache_obs().occupancy.set(static_cast<double>(table_.size()) /
                                 static_cast<double>(frame_count_));
  if (is_prefetch) {
    st.prefetch_completed.fetch_add(1, std::memory_order_relaxed);
    page_cache_obs().prefetch_completed.inc();
    rec_page(obs::flightfmt::kPrefetchDone, file_id, page);
  }
  io_cv_.notify_all();
  return frame;
}

void* PageCache::pin(int file_id, std::uint64_t page, bool for_write) {
  std::unique_lock<std::mutex> lock(mu_);
  const std::size_t frame =
      resident_frame(lock, file_id, page, for_write, /*is_prefetch=*/false);
  return pool_.get() + frame * page_bytes_;
}

PageCache::PagePin PageCache::acquire(int file_id, std::uint64_t page,
                                      bool for_write) {
  std::unique_lock<std::mutex> lock(mu_);
  const std::size_t frame =
      resident_frame(lock, file_id, page, for_write, /*is_prefetch=*/false);
  frames_[frame].pins.fetch_add(1, std::memory_order_acq_rel);
  return PagePin(this, frame, pool_.get() + frame * page_bytes_);
}

void PageCache::unpin_frame(std::size_t frame) {
  const int prev = frames_[frame].pins.fetch_sub(1, std::memory_order_acq_rel);
  assert(prev > 0);
  (void)prev;
  if (evict_waiters_.load(std::memory_order_relaxed) > 0) io_cv_.notify_all();
}

void PageCache::prefetch(int file_id, std::uint64_t page) {
  std::lock_guard<std::mutex> lock(mu_);
  check_key(file_id, page);
  StatShard& st = stat_cell();
  st.prefetch_issued.fetch_add(1, std::memory_order_relaxed);
  page_cache_obs().prefetch_issued.inc();
  if (!worker_running_ || degraded_.load(std::memory_order_acquire)) {
    st.prefetch_dropped.fetch_add(1, std::memory_order_relaxed);
    page_cache_obs().prefetch_dropped.inc();
    return;
  }
  if (table_.count(make_key(file_id, page)) != 0) {
    st.prefetch_redundant.fetch_add(1, std::memory_order_relaxed);
    page_cache_obs().prefetch_redundant.inc();
    return;
  }
  if (prefetch_q_.size() >= kMaxPrefetchQueue) {
    st.prefetch_dropped.fetch_add(1, std::memory_order_relaxed);
    page_cache_obs().prefetch_dropped.inc();
    return;
  }
  prefetch_q_.push_back({file_id, page});
  page_cache_obs().queue_depth.set(static_cast<double>(prefetch_q_.size()));
  rec_page(obs::flightfmt::kPrefetchIssue, file_id, page);
  work_cv_.notify_one();
}

void PageCache::note_worker_failure() {
  ++worker_failures_;
  if (worker_failures_ >= kWorkerDegradeThreshold &&
      !degraded_.load(std::memory_order_relaxed)) {
    degraded_.store(true, std::memory_order_release);
    page_cache_obs().async_degraded.inc();
    page_cache_obs().degraded.set(1.0);
  }
}

void PageCache::io_worker_loop() {
  const obs::WatchdogThreadSource watch("pc-asyncio");
  // Park/wake events only on transitions, as the pool workers record
  // them: an idle worker wakes every millisecond. A parked worker is
  // exempt from the stall watchdog's checks.
  bool parked = false;
  const auto set_parked = [&parked](bool p) {
    if (p == parked) return;
    parked = p;
    obs::flight::record(p ? obs::flightfmt::kTaskPark
                          : obs::flightfmt::kTaskWake);
  };
  std::unique_lock<std::mutex> lock(mu_);
  while (!worker_stop_) {
    if (!prefetch_q_.empty()) {
      set_parked(false);
      const PrefetchRequest req = prefetch_q_.front();
      prefetch_q_.pop_front();
      page_cache_obs().queue_depth.set(
          static_cast<double>(prefetch_q_.size()));
      if (degraded_.load(std::memory_order_acquire)) {
        // Degraded: drain the queue without touching the disk; the
        // foreground path does its own (retried, checksummed) I/O.
        StatShard& st = stat_cell();
        st.prefetch_dropped.fetch_add(1, std::memory_order_relaxed);
        page_cache_obs().prefetch_dropped.inc();
        continue;
      }
      try {
        resident_frame(lock, req.file_id, req.page, /*for_write=*/false,
                       /*is_prefetch=*/true);
        worker_failures_ = 0;
      } catch (...) {
        // A prefetch is only a hint: absorb the error (the foreground
        // pin will retry and surface it if it persists). resident_frame
        // already restored the frame invariants and reacquired mu_.
        prefetch_errors_.fetch_add(1, std::memory_order_relaxed);
        page_cache_obs().prefetch_errors.inc();
        StatShard& st = stat_cell();
        st.prefetch_dropped.fetch_add(1, std::memory_order_relaxed);
        page_cache_obs().prefetch_dropped.inc();
        note_worker_failure();
      }
      continue;
    }
    // Idle: flush one about-to-be-evicted dirty frame so the next fault
    // finds it clean (write-back overlapped with compute). Not once
    // degraded: like prefetches, write-backs are then the foreground's.
    const std::size_t f = degraded_.load(std::memory_order_acquire)
                              ? kNoFrame
                              : write_behind_candidate();
    if (f != kNoFrame) {
      set_parked(false);
      Frame& fr = frames_[f];
      fr.io_busy = true;
      ++io_in_flight_;
      const int fid = key_file(fr.key);
      BlockStore* file = files_[static_cast<std::size_t>(fid)].get();
      const std::uint64_t page = key_page(fr.key);
      char* buf = pool_.get() + f * page_bytes_;
      lock.unlock();
      bool wrote = true;
      try {
        file->write_page(page, buf);
      } catch (...) {
        wrote = false;
      }
      if (!wrote) {
        // The frame stays dirty; a later eviction or flush() retries the
        // write-back on the foreground path and reports it there.
        lock.lock();
        fr.io_busy = false;
        --io_in_flight_;
        writeback_failures_.fetch_add(1, std::memory_order_relaxed);
        page_cache_obs().writeback_failures.inc();
        note_worker_failure();
        io_cv_.notify_all();
        // Back off before the next attempt: a failing store fails it just
        // as fast, and looping straight back would hold mu_ almost
        // without a gap, starving the workers that need it to pin tiles.
        set_parked(true);
        work_cv_.wait_for(lock, std::chrono::milliseconds(1));
        continue;
      }
      const double wait = model_.io_seconds(page_bytes_);
      StatShard& st = stat_cell();
      st.page_outs.fetch_add(1, std::memory_order_relaxed);
      rec_page(obs::flightfmt::kPageOut, fid, page);
      st.writebacks_async.fetch_add(1, std::memory_order_relaxed);
      page_cache_obs().writebacks.inc();
      page_cache_obs().writebacks_async.inc();
      add_double(st.io_wait, wait);
      add_double(st.io_wait_async, wait);
      realize_latency(model_, wait);
      lock.lock();
      worker_failures_ = 0;
      fr.dirty = false;
      fr.io_busy = false;
      --io_in_flight_;
      io_cv_.notify_all();
      continue;
    }
    set_parked(true);
    work_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

void PageCache::enable_async_io() {
  std::lock_guard<std::mutex> lock(mu_);
  if (worker_running_) return;
  worker_running_ = true;
  worker_stop_ = false;
  worker_failures_ = 0;
  degraded_.store(false, std::memory_order_release);
  page_cache_obs().degraded.set(0.0);
  io_worker_ = std::thread([this] { io_worker_loop(); });
}

void PageCache::disable_async_io() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!worker_running_) return;
    worker_stop_ = true;
  }
  work_cv_.notify_all();
  io_worker_.join();
  std::lock_guard<std::mutex> lock(mu_);
  worker_running_ = false;
  prefetch_q_.clear();
  page_cache_obs().queue_depth.set(0.0);
}

bool PageCache::async_io_enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return worker_running_;
}

std::size_t PageCache::prefetch_queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return prefetch_q_.size();
}

void PageCache::flush() {
  std::unique_lock<std::mutex> lock(mu_);
  StatShard& st = stat_cell();
  for (std::size_t f = 0; f < frame_count_; ++f) {
    while (frames_[f].io_busy) io_cv_.wait(lock);
    Frame& fr = frames_[f];
    if (fr.valid && fr.dirty) {
      try {
        files_[static_cast<std::size_t>(key_file(fr.key))]->write_page(
            key_page(fr.key), pool_.get() + f * page_bytes_);
      } catch (...) {
        // The frame stays dirty (data preserved); the caller decides
        // whether to retry flush() or abandon the file.
        writeback_failures_.fetch_add(1, std::memory_order_relaxed);
        page_cache_obs().writeback_failures.inc();
        throw;
      }
      st.page_outs.fetch_add(1, std::memory_order_relaxed);
      page_cache_obs().writebacks.inc();
      rec_page(obs::flightfmt::kPageOut, key_file(fr.key), key_page(fr.key));
      add_double(st.io_wait, model_.io_seconds(page_bytes_));
      fr.dirty = false;
    }
  }
  // Everything written back; now make it durable. Waiting out any
  // worker-initiated I/O first keeps the sync ordered after every write
  // the stores have been handed.
  while (io_in_flight_ > 0) io_cv_.wait(lock);
  for (auto& f : files_) f->sync();
}

void PageCache::sync_files() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& f : files_) f->sync();
}

std::vector<std::uint64_t> PageCache::changed_pages(int file_id,
                                                    bool since_mark) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_id < 0 ||
      static_cast<std::size_t>(file_id) >= changed_.size()) {
    throw std::out_of_range("PageCache: unregistered file id");
  }
  const ChangeSet& cs = changed_[static_cast<std::size_t>(file_id)];
  const auto& src = since_mark ? cs.since : cs.total;
  std::vector<std::uint64_t> out(src.begin(), src.end());
  std::sort(out.begin(), out.end());
  return out;
}

void PageCache::clear_changed_mark(int file_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_id < 0 ||
      static_cast<std::size_t>(file_id) >= changed_.size()) {
    throw std::out_of_range("PageCache: unregistered file id");
  }
  changed_[static_cast<std::size_t>(file_id)].since.clear();
}

void PageCache::read_page_snapshot(int file_id, std::uint64_t page,
                                   void* buf) {
  std::unique_lock<std::mutex> lock(mu_);
  check_key(file_id, page);
  const std::uint64_t key = make_key(file_id, page);
  for (;;) {
    auto it = table_.find(key);
    if (it == table_.end()) break;
    Frame& fr = frames_[it->second];
    if (fr.io_busy) {
      io_cv_.wait(lock);
      continue;  // re-lookup: the mapping may have changed
    }
    if (fr.valid) {
      std::memcpy(buf, pool_.get() + it->second * page_bytes_, page_bytes_);
      return;
    }
    break;
  }
  // Not resident: read the store directly. mu_ stays held — checkpoints
  // run quiesced and are rare, so blocking the cache briefly is cheaper
  // than an io_busy dance for a page nobody is racing us for.
  files_[static_cast<std::size_t>(file_id)]->read_page(page, buf);
}

void PageCache::install_page(int file_id, std::uint64_t page,
                             const void* buf) {
  std::unique_lock<std::mutex> lock(mu_);
  check_key(file_id, page);
  // Through the full stack: RobustStore recomputes the page's checksum,
  // so replayed pages validate on every later read.
  files_[static_cast<std::size_t>(file_id)]->write_page(page, buf);
  note_write(file_id, page);
  const std::uint64_t key = make_key(file_id, page);
  for (;;) {
    auto it = table_.find(key);
    if (it == table_.end()) return;
    Frame& fr = frames_[it->second];
    if (fr.io_busy) {
      io_cv_.wait(lock);
      continue;  // re-lookup: the mapping may have changed
    }
    if (fr.valid) {
      std::memcpy(pool_.get() + it->second * page_bytes_, buf, page_bytes_);
      fr.dirty = false;  // frame now matches the store
    }
    return;
  }
}

PageCacheStats PageCache::stats() const {
  PageCacheStats s;
  for (const StatShard& c : stat_shards_) {
    s.pins += c.pins.load(std::memory_order_relaxed);
    s.hits += c.hits.load(std::memory_order_relaxed);
    s.page_ins += c.page_ins.load(std::memory_order_relaxed);
    s.page_outs += c.page_outs.load(std::memory_order_relaxed);
    s.evictions += c.evictions.load(std::memory_order_relaxed);
    s.prefetch_issued += c.prefetch_issued.load(std::memory_order_relaxed);
    s.prefetch_completed +=
        c.prefetch_completed.load(std::memory_order_relaxed);
    s.prefetch_redundant +=
        c.prefetch_redundant.load(std::memory_order_relaxed);
    s.prefetch_hits += c.prefetch_hits.load(std::memory_order_relaxed);
    s.prefetch_dropped += c.prefetch_dropped.load(std::memory_order_relaxed);
    s.writebacks_async += c.writebacks_async.load(std::memory_order_relaxed);
    s.io_wait_seconds += c.io_wait.load(std::memory_order_relaxed);
    s.io_wait_async_seconds += c.io_wait_async.load(std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const RobustStore* rs : robust_views_) {
      const RobustStoreStats r = rs->stats();
      s.io_retries += r.retries;
      s.crc_failures += r.crc_failures;
      s.io_hard_failures += r.hard_failures;
    }
  }
  s.writeback_failures = writeback_failures_.load(std::memory_order_relaxed);
  s.prefetch_errors = prefetch_errors_.load(std::memory_order_relaxed);
  s.async_degraded = degraded_.load(std::memory_order_acquire) ? 1 : 0;
  return s;
}

void PageCache::reset_stats() {
  for (StatShard& c : stat_shards_) {
    c.pins.store(0, std::memory_order_relaxed);
    c.hits.store(0, std::memory_order_relaxed);
    c.page_ins.store(0, std::memory_order_relaxed);
    c.page_outs.store(0, std::memory_order_relaxed);
    c.evictions.store(0, std::memory_order_relaxed);
    c.prefetch_issued.store(0, std::memory_order_relaxed);
    c.prefetch_completed.store(0, std::memory_order_relaxed);
    c.prefetch_redundant.store(0, std::memory_order_relaxed);
    c.prefetch_hits.store(0, std::memory_order_relaxed);
    c.prefetch_dropped.store(0, std::memory_order_relaxed);
    c.writebacks_async.store(0, std::memory_order_relaxed);
    c.io_wait.store(0.0, std::memory_order_relaxed);
    c.io_wait_async.store(0.0, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (RobustStore* rs : robust_views_) rs->reset_stats();
  }
  writeback_failures_.store(0, std::memory_order_relaxed);
  prefetch_errors_.store(0, std::memory_order_relaxed);
}

}  // namespace gep
