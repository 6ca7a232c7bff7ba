#include "extmem/checkpoint.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "util/crc32c.hpp"

namespace gep {
namespace {

struct CkptObs {
  obs::Counter count = obs::counter("ckpt.count");
  obs::Counter skipped = obs::counter("ckpt.skipped");
  obs::Counter failed = obs::counter("ckpt.failed");
  obs::Counter bytes = obs::counter("ckpt.bytes");
  obs::Counter pages = obs::counter("ckpt.pages");
};
CkptObs& ckpt_obs() {
  static CkptObs o;
  return o;
}

struct FdCloser {
  int fd = -1;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
  void close_now() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

// Sequential reader with a running CRC32C over every byte consumed —
// the footer validates the whole stream against it. Short reads are
// truncation: a crash mid-checkpoint can only leave a .tmp behind, so a
// short *renamed* snapshot means real corruption.
struct FileReader {
  int fd;
  const std::string& path;
  std::uint32_t crc = 0;

  void read_exact(void* p, std::size_t nbytes, const char* what) {
    std::size_t got = 0;
    while (got < nbytes) {
      const ssize_t r =
          ::read(fd, static_cast<char*>(p) + got, nbytes - got);
      if (r < 0) {
        if (errno == EINTR) continue;
        throw CheckpointError(path + ": read failed (" + what +
                              "): " + std::strerror(errno));
      }
      if (r == 0) {
        throw CheckpointError(path + ": truncated snapshot (" + what + ")");
      }
      got += static_cast<std::size_t>(r);
    }
    crc = crc32c(p, nbytes, crc);
  }
};

struct FileWriter {
  int fd;
  const std::string& path;
  std::uint32_t crc = 0;
  std::uint64_t bytes = 0;

  void write(const void* p, std::size_t nbytes) {
    std::size_t put = 0;
    while (put < nbytes) {
      const ssize_t w =
          ::write(fd, static_cast<const char*>(p) + put, nbytes - put);
      if (w < 0) {
        if (errno == EINTR) continue;
        throw CheckpointError(path +
                              ": write failed: " + std::strerror(errno));
      }
      put += static_cast<std::size_t>(w);
    }
    crc = crc32c(p, nbytes, crc);
    bytes += nbytes;
  }
};

// SIGUSR2 latch: handler-side store, coordinator-side exchange.
std::atomic<bool> g_ckpt_signal{false};

void on_sigusr2(int) { g_ckpt_signal.store(true, std::memory_order_relaxed); }

}  // namespace

std::string snapshot_filename(std::uint64_t job_id, std::uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "ckpt_%016" PRIx64 "_%06" PRIu64 ".gepckpt",
                job_id, seq);
  return buf;
}

void install_checkpoint_signal_handler() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_sigusr2;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGUSR2, &sa, nullptr);
}

bool checkpoint_signal_pending() {
  return g_ckpt_signal.exchange(false, std::memory_order_relaxed);
}

double ckpt_interval_from_env(double fallback) {
  const char* v = std::getenv("GEP_CKPT_INTERVAL_SEC");
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const double s = std::strtod(v, &end);
  return (end != v && s > 0) ? s : fallback;
}

SnapshotInfo read_snapshot(const std::string& path, const ExtentSink& sink) {
  FdCloser f{::open(path.c_str(), O_RDONLY)};
  if (f.fd < 0) {
    throw CheckpointError(path + ": cannot open snapshot: " +
                          std::strerror(errno));
  }
  FileReader r{f.fd, path};
  SnapshotInfo info;
  info.path = path;

  r.read_exact(&info.header, sizeof info.header, "header");
  const ckptfmt::FileHeader& h = info.header;
  if (std::memcmp(h.magic, ckptfmt::kMagic, sizeof h.magic) != 0) {
    throw CheckpointError(path + ": not a GEPCKPT1 snapshot");
  }
  if (h.version != ckptfmt::kVersion) {
    throw CheckpointError(path + ": unsupported snapshot version " +
                          std::to_string(h.version));
  }
  {
    ckptfmt::FileHeader hc = h;
    hc.header_crc = 0;
    if (crc32c(&hc, sizeof hc) != h.header_crc) {
      throw CheckpointError(path + ": header checksum mismatch");
    }
  }
  // Bounds that keep a corrupt header from driving absurd allocations.
  if (h.n_mats == 0 || h.n_mats > 64 || h.page_bytes == 0 ||
      h.page_bytes > (std::uint64_t{1} << 30) ||
      h.task_count > (std::uint64_t{1} << 32)) {
    throw CheckpointError(path + ": implausible snapshot header");
  }

  info.mats.resize(h.n_mats);
  r.read_exact(info.mats.data(), h.n_mats * sizeof(ckptfmt::MatRecord),
               "matrix table");

  info.frontier.resize((h.task_count + 7) / 8);
  if (!info.frontier.empty()) {
    r.read_exact(info.frontier.data(), info.frontier.size(), "frontier");
  }

  std::vector<char> payload;
  info.extents.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(h.extent_count, 4096)));
  for (std::uint64_t e = 0; e < h.extent_count; ++e) {
    ckptfmt::ExtentRecord rec;
    r.read_exact(&rec, sizeof rec, "extent record");
    if (rec.count == 0 || rec.count > ckptfmt::kMaxExtentPages ||
        rec.mat >= h.n_mats) {
      throw CheckpointError(path + ": implausible extent record");
    }
    payload.resize(static_cast<std::size_t>(rec.count) * h.page_bytes);
    r.read_exact(payload.data(), payload.size(), "extent payload");
    if (crc32c(payload.data(), payload.size()) != rec.payload_crc) {
      throw CheckpointError(path + ": extent payload checksum mismatch (mat " +
                            std::to_string(rec.mat) + ", pages " +
                            std::to_string(rec.start_page) + "+" +
                            std::to_string(rec.count) + ")");
    }
    info.extents.push_back(rec);
    if (sink) sink(rec, payload.data());
  }

  const std::uint32_t body_crc = r.crc;
  ckptfmt::Footer foot;
  r.read_exact(&foot, sizeof foot, "footer");
  if (std::memcmp(foot.magic, ckptfmt::kEndMagic, sizeof foot.magic) != 0) {
    throw CheckpointError(path + ": footer magic missing (truncated?)");
  }
  if (foot.file_crc != body_crc) {
    throw CheckpointError(path + ": whole-file checksum mismatch");
  }
  info.file_crc = foot.file_crc;
  return info;
}

std::vector<SnapshotInfo> load_chain(const std::string& dir,
                                     std::uint64_t job_id) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return {};  // no directory yet: no chain
    char pfx[32];
    std::snprintf(pfx, sizeof pfx, "ckpt_%016" PRIx64 "_", job_id);
    const std::string prefix = pfx;
    const std::string suffix = ".gepckpt";
    for (struct dirent* e = ::readdir(d); e != nullptr; e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() <= prefix.size() + suffix.size()) continue;
      if (name.compare(0, prefix.size(), prefix) != 0) continue;
      if (name.compare(name.size() - suffix.size(), suffix.size(),
                       suffix) != 0) {
        continue;
      }
      const std::string digits = name.substr(
          prefix.size(), name.size() - prefix.size() - suffix.size());
      char* end = nullptr;
      const std::uint64_t seq = std::strtoull(digits.c_str(), &end, 10);
      if (end == digits.c_str() || *end != '\0') continue;
      found.emplace_back(seq, name);
    }
    ::closedir(d);
  }
  if (found.empty()) return {};
  std::sort(found.begin(), found.end());

  std::vector<SnapshotInfo> chain;
  chain.reserve(found.size());
  for (std::size_t i = 0; i < found.size(); ++i) {
    if (found[i].first != i) {
      throw CheckpointError(dir + ": broken snapshot chain for job — " +
                            "missing sequence " + std::to_string(i) +
                            " (found " + std::to_string(found[i].first) +
                            ")");
    }
    SnapshotInfo s = read_snapshot(dir + "/" + found[i].second, nullptr);
    if (s.header.seq != i) {
      throw CheckpointError(s.path + ": filename/header sequence mismatch");
    }
    if (s.header.job_id != job_id) {
      throw CheckpointError(s.path + ": job id mismatch");
    }
    if (i == 0) {
      if (s.header.parent_crc != 0) {
        throw CheckpointError(s.path +
                              ": base snapshot carries a parent checksum");
      }
    } else {
      const SnapshotInfo& prev = chain.back();
      if (s.header.parent_crc != prev.file_crc) {
        throw CheckpointError(
            s.path + ": incremental chain broken — parent checksum does not "
                     "match snapshot " + std::to_string(i - 1));
      }
      const ckptfmt::FileHeader& a = chain.front().header;
      const ckptfmt::FileHeader& b = s.header;
      if (a.algo != b.algo || a.n != b.n || a.base != b.base ||
          a.options_hash != b.options_hash || a.n_mats != b.n_mats ||
          a.elem_bytes != b.elem_bytes || a.page_bytes != b.page_bytes ||
          a.task_count != b.task_count) {
        throw CheckpointError(s.path +
                              ": fingerprint differs from the chain base");
      }
    }
    chain.push_back(std::move(s));
  }
  return chain;
}

CheckpointCoordinator::CheckpointCoordinator(PageCache& cache,
                                             CheckpointOptions opts)
    : cache_(&cache), opts_(std::move(opts)) {
  if (opts_.interval_sec <= 0) {
    opts_.interval_sec = ckpt_interval_from_env(0.0);
  }
}

void CheckpointCoordinator::add_matrix(int file_id, std::uint64_t rows,
                                       std::uint64_t cols,
                                       std::uint64_t tile_side,
                                       std::uint64_t elem_bytes,
                                       std::uint64_t pages) {
  std::lock_guard<std::mutex> lk(mu_);
  if (bound_) {
    throw CheckpointError("checkpoint: add_matrix() after bind()");
  }
  if (elem_bytes_ == 0) {
    elem_bytes_ = static_cast<std::uint32_t>(elem_bytes);
  } else if (elem_bytes_ != elem_bytes) {
    throw CheckpointError("checkpoint: mixed element sizes in one job");
  }
  mats_.push_back(MatrixInfo{file_id, rows, cols, tile_side, pages});
}

void CheckpointCoordinator::bind(DagProblem algo, index_t n, index_t base,
                                 bool lu_guarded, int task_count) {
  std::lock_guard<std::mutex> lk(mu_);
  const index_t bs = std::min(base, n);
  if (bound_) {
    if (algo_ != algo || n_ != n || base_ != bs ||
        lu_guarded_ != lu_guarded) {
      throw CheckpointError(
          "checkpoint: coordinator already bound to a different job");
    }
    return;
  }
  if (mats_.empty()) {
    throw CheckpointError("checkpoint: bind() before add_matrix()");
  }
  task_count_ = static_cast<std::uint64_t>(task_count);
  word_count_ = static_cast<std::size_t>((task_count_ + 63) / 64);
  words_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      std::max<std::size_t>(word_count_, 1));
  for (std::size_t w = 0; w < word_count_; ++w) {
    words_[w].store(0, std::memory_order_relaxed);
  }
  algo_ = algo;
  n_ = n;
  base_ = bs;
  lu_guarded_ = lu_guarded;
  bound_ = true;
}

std::uint64_t CheckpointCoordinator::fingerprint_hash() const {
  // Everything that must match for a snapshot to be replayable: the
  // problem, its shape, the leaf grid, element/page geometry and the
  // matrix set. Deliberately NOT the worker count — any topological
  // execution of the same DAG is bit-identical, so a snapshot cut on a
  // pool of workers legally resumes with no pool (and vice versa).
  std::vector<std::uint64_t> buf;
  buf.push_back(static_cast<std::uint64_t>(algo_));
  buf.push_back(static_cast<std::uint64_t>(n_));
  buf.push_back(static_cast<std::uint64_t>(base_));
  buf.push_back(elem_bytes_);
  buf.push_back(cache_->page_bytes());
  buf.push_back(lu_guarded_ ? 1 : 0);
  buf.push_back(mats_.size());
  for (const MatrixInfo& m : mats_) {
    buf.push_back(m.rows);
    buf.push_back(m.cols);
    buf.push_back(m.tile_side);
    buf.push_back(m.pages);
  }
  return crc32c(buf.data(), buf.size() * sizeof(std::uint64_t));
}

void CheckpointCoordinator::verify_compat(const SnapshotInfo& s) const {
  const ckptfmt::FileHeader& h = s.header;
  auto fail = [&s](const char* what) {
    throw CheckpointError(s.path +
                          ": snapshot incompatible with this job: " + what);
  };
  if (h.algo != static_cast<std::uint32_t>(algo_)) fail("algorithm");
  if (h.n != static_cast<std::uint64_t>(n_)) fail("problem size");
  if (h.base != static_cast<std::uint64_t>(base_)) fail("base size");
  if (h.options_hash != fingerprint_hash()) fail("options hash");
  if (h.n_mats != mats_.size()) fail("matrix count");
  if (h.elem_bytes != elem_bytes_) fail("element size");
  if (h.page_bytes != cache_->page_bytes()) fail("page size");
  if (h.task_count != task_count_) fail("task count");
  for (std::size_t i = 0; i < mats_.size(); ++i) {
    const ckptfmt::MatRecord& r = s.mats[i];
    const MatrixInfo& m = mats_[i];
    if (r.rows != m.rows || r.cols != m.cols ||
        r.tile_side != m.tile_side || r.pages != m.pages) {
      fail("matrix shape");
    }
  }
}

bool CheckpointCoordinator::resume() {
  std::lock_guard<std::mutex> lk(mu_);
  if (!bound_) throw CheckpointError("checkpoint: resume() before bind()");
  // Pass 1 validates the whole chain (load_chain reads every file end to
  // end); pass 2 below installs pages. Nothing touches the matrices
  // unless the entire chain checked out.
  std::vector<SnapshotInfo> chain = load_chain(opts_.dir, opts_.job_id);
  if (chain.empty()) return false;
  verify_compat(chain.front());

  const std::uint64_t pb = cache_->page_bytes();
  for (const SnapshotInfo& s : chain) {
    read_snapshot(s.path, [this, pb](const ckptfmt::ExtentRecord& rec,
                                     const char* payload) {
      const int fid = mats_[rec.mat].file_id;
      for (std::uint32_t j = 0; j < rec.count; ++j) {
        cache_->install_page(fid, rec.start_page + j,
                             payload + static_cast<std::size_t>(j) * pb);
      }
    });
  }

  // The frontier is cumulative: the newest snapshot names every leaf
  // completed across the whole chain.
  const SnapshotInfo& last = chain.back();
  std::uint64_t done = 0;
  for (std::uint64_t id = 0; id < task_count_; ++id) {
    if ((last.frontier[id >> 3] >> (id & 7)) & 1) {
      words_[id >> 6].fetch_or(std::uint64_t{1} << (id & 63),
                               std::memory_order_relaxed);
      ++done;
    }
  }
  if (done != last.header.done_count) {
    throw CheckpointError(last.path +
                          ": frontier bit count disagrees with header");
  }
  done_count_.store(done, std::memory_order_release);
  last_done_count_ = done;
  // The resumed job APPENDS to the chain it was loaded from.
  seq_ = last.header.seq + 1;
  parent_crc_ = last.file_crc;
  stats_.last_seq = seq_;
  // install_page marked every replayed page; the next incremental must
  // only carry pages the resumed run writes itself.
  for (const MatrixInfo& m : mats_) cache_->clear_changed_mark(m.file_id);
  leaves_since_ = 0;
  deadline_armed_ = false;
  return true;
}

bool CheckpointCoordinator::is_done(int id) const {
  if (words_ == nullptr || id < 0 ||
      static_cast<std::uint64_t>(id) >= task_count_) {
    return false;
  }
  return (words_[static_cast<std::size_t>(id) >> 6].load(
              std::memory_order_acquire) >>
          (id & 63)) &
         1;
}

void CheckpointCoordinator::leaf_enter() {
  std::unique_lock<std::mutex> lk(mu_);
  if (pending_) {
    // The gate is closed while a snapshot drains and writes. Park (a
    // legitimate wait, exempt from the stall watchdog; one park/wake
    // pair, not one event per 50 ms wake) and stay cancellable —
    // leaf_enter runs BEFORE the runtime's cancel bracket, so throwing
    // here needs no leaf_cancel().
    obs::flight::record(obs::flightfmt::kTaskPark);
    while (pending_) {
      if (obs::flight::stop_requested()) throw obs::JobCancelled();
      cv_.wait_for(lk, std::chrono::milliseconds(50));
    }
    obs::flight::record(obs::flightfmt::kTaskWake);
  }
  ++inflight_;
}

void CheckpointCoordinator::leaf_exit(int id) {
  if (words_ != nullptr && id >= 0 &&
      static_cast<std::uint64_t>(id) < task_count_) {
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    const std::uint64_t prev =
        words_[static_cast<std::size_t>(id) >> 6].fetch_or(
            bit, std::memory_order_release);
    if ((prev & bit) == 0) {
      done_count_.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  std::unique_lock<std::mutex> lk(mu_);
  --inflight_;
  ++leaves_since_;
  if (requested_) {
    requested_ = false;
    pending_ = true;
  }
  if (checkpoint_signal_pending()) pending_ = true;
  if (opts_.every_n_leaves > 0 && leaves_since_ >= opts_.every_n_leaves) {
    pending_ = true;
  }
  if (opts_.interval_sec > 0) {
    if (!deadline_armed_) {
      arm_deadline();
    } else if (std::chrono::steady_clock::now() >= deadline_) {
      pending_ = true;
    }
  }
  if (pending_ && inflight_ == 0) {
    // Last leaf out cuts the snapshot, under mu_ — every other worker
    // is parked in leaf_enter until the gate reopens.
    try {
      cut_snapshot();
    } catch (...) {
      pending_ = false;
      cv_.notify_all();
      throw;  // job-fatal; the previous snapshot chain stays valid
    }
    pending_ = false;
    cv_.notify_all();
  }
}

void CheckpointCoordinator::leaf_cancel() noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  --inflight_;
  // A pending cut whose last in-flight leaf cancelled cannot run here
  // (the job is unwinding); reopen the gate so enter-waiters can poll
  // their stop flag and unwind too. checkpoint_now() after the unwind
  // is the cancellation-path snapshot.
  if (inflight_ == 0 && pending_) pending_ = false;
  cv_.notify_all();
}

void CheckpointCoordinator::leaf_abort() noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  --inflight_;
  // The leaf died mid-kernel: its block mixes old and new element
  // values, a state no frontier can name. Snapshots are permanently
  // off; the existing chain (pre-abort) remains the resume point.
  dirty_abort_ = true;
  if (inflight_ == 0 && pending_) pending_ = false;
  cv_.notify_all();
}

void CheckpointCoordinator::request_checkpoint() {
  std::lock_guard<std::mutex> lk(mu_);
  requested_ = true;
}

bool CheckpointCoordinator::checkpoint_now() {
  std::unique_lock<std::mutex> lk(mu_);
  while (inflight_ > 0) cv_.wait_for(lk, std::chrono::milliseconds(50));
  return cut_snapshot() == CutResult::Written;
}

void CheckpointCoordinator::arm_deadline() {
  if (opts_.interval_sec > 0) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(opts_.interval_sec));
    deadline_armed_ = true;
  }
}

CheckpointCoordinator::CutResult CheckpointCoordinator::cut_snapshot() {
  if (!bound_) {
    throw CheckpointError("checkpoint: cut before bind()");
  }
  if (dirty_abort_) {
    ++stats_.skipped;
    ckpt_obs().skipped.inc();
    obs::flight::record(obs::flightfmt::kCkptSkipped, 2);
    return CutResult::SkippedAborted;
  }
  const auto t0 = std::chrono::steady_clock::now();
  // Quiesced: no leaf holds pins; write back every dirty frame and make
  // the stores durable (flush ends with per-store sync: data first,
  // then each RobustStore's CRC sidecar).
  cache_->flush();
  const bool incremental = seq_ > 0;
  std::vector<std::vector<std::uint64_t>> per_mat;
  per_mat.reserve(mats_.size());
  bool any_pages = false;
  for (const MatrixInfo& m : mats_) {
    per_mat.push_back(cache_->changed_pages(m.file_id, incremental));
    any_pages = any_pages || !per_mat.back().empty();
  }
  const std::uint64_t done = done_count_.load(std::memory_order_acquire);
  if (incremental && !any_pages && done == last_done_count_) {
    ++stats_.skipped;
    ckpt_obs().skipped.inc();
    obs::flight::record(obs::flightfmt::kCkptSkipped, 1);
    leaves_since_ = 0;
    arm_deadline();
    return CutResult::SkippedUnchanged;
  }

  obs::flight::record(obs::flightfmt::kCkptBegin, seq_);
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
  try {
    write_snapshot_file(opts_.dir, seq_, per_mat, done, &bytes, &crc);
  } catch (...) {
    ++stats_.failed;
    ckpt_obs().failed.inc();
    throw;
  }
  // Only after the rename is durable does the incremental epoch roll
  // over — a failed write leaves the change marks intact for the next
  // attempt.
  for (const MatrixInfo& m : mats_) cache_->clear_changed_mark(m.file_id);
  last_done_count_ = done;
  parent_crc_ = crc;
  obs::flight::record(obs::flightfmt::kCkptEnd, seq_);
  ++seq_;
  leaves_since_ = 0;
  arm_deadline();

  std::uint64_t npages = 0;
  for (const auto& v : per_mat) npages += v.size();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ++stats_.count;
  stats_.bytes += bytes;
  stats_.pages += npages;
  stats_.wall_seconds += wall;
  stats_.last_seq = seq_;
  ckpt_obs().count.inc();
  ckpt_obs().bytes.inc(bytes);
  ckpt_obs().pages.inc(npages);
  return CutResult::Written;
}

void CheckpointCoordinator::write_snapshot_file(
    const std::string& dir, std::uint64_t seq,
    const std::vector<std::vector<std::uint64_t>>& pages_per_mat,
    std::uint64_t done, std::uint64_t* bytes_out,
    std::uint32_t* crc_out) const {
  // Coalesce each matrix's sorted page list into consecutive runs of at
  // most kMaxExtentPages.
  struct Run {
    std::uint32_t mat;
    std::uint64_t start;
    std::uint32_t count;
  };
  std::vector<Run> runs;
  for (std::size_t mi = 0; mi < pages_per_mat.size(); ++mi) {
    const std::vector<std::uint64_t>& pages = pages_per_mat[mi];
    for (std::size_t i = 0; i < pages.size();) {
      std::size_t j = i + 1;
      while (j < pages.size() && pages[j] == pages[j - 1] + 1 &&
             j - i < ckptfmt::kMaxExtentPages) {
        ++j;
      }
      runs.push_back(Run{static_cast<std::uint32_t>(mi), pages[i],
                         static_cast<std::uint32_t>(j - i)});
      i = j;
    }
  }

  const std::string final_path =
      dir + "/" + snapshot_filename(opts_.job_id, seq);
  const std::string tmp_path = final_path + ".tmp";
  FdCloser f{::open(tmp_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644)};
  if (f.fd < 0) {
    throw CheckpointError(tmp_path + ": cannot create snapshot: " +
                          std::strerror(errno));
  }
  FileWriter w{f.fd, tmp_path};

  ckptfmt::FileHeader h{};
  std::memcpy(h.magic, ckptfmt::kMagic, sizeof h.magic);
  h.version = ckptfmt::kVersion;
  h.algo = static_cast<std::uint32_t>(algo_);
  h.job_id = opts_.job_id;
  h.options_hash = fingerprint_hash();
  h.n = static_cast<std::uint64_t>(n_);
  h.base = static_cast<std::uint64_t>(base_);
  h.n_mats = static_cast<std::uint32_t>(mats_.size());
  h.elem_bytes = elem_bytes_;
  h.page_bytes = cache_->page_bytes();
  h.seq = seq;
  h.parent_crc = parent_crc_;
  h.task_count = task_count_;
  h.done_count = done;
  h.extent_count = runs.size();
  h.header_crc = 0;
  h.header_crc = crc32c(&h, sizeof h);
  w.write(&h, sizeof h);

  for (const MatrixInfo& m : mats_) {
    ckptfmt::MatRecord r{m.rows, m.cols, m.tile_side, m.pages};
    w.write(&r, sizeof r);
  }

  std::vector<std::uint8_t> fb((task_count_ + 7) / 8, 0);
  for (std::uint64_t id = 0; id < task_count_; ++id) {
    if ((words_[id >> 6].load(std::memory_order_acquire) >> (id & 63)) & 1) {
      fb[id >> 3] |= static_cast<std::uint8_t>(1u << (id & 7));
    }
  }
  if (!fb.empty()) w.write(fb.data(), fb.size());

  const std::uint64_t pb = cache_->page_bytes();
  std::vector<char> payload;
  for (const Run& run : runs) {
    payload.resize(static_cast<std::size_t>(run.count) * pb);
    for (std::uint32_t j = 0; j < run.count; ++j) {
      cache_->read_page_snapshot(mats_[run.mat].file_id, run.start + j,
                                 payload.data() +
                                     static_cast<std::size_t>(j) * pb);
    }
    ckptfmt::ExtentRecord rec;
    rec.mat = run.mat;
    rec.count = run.count;
    rec.start_page = run.start;
    rec.payload_crc = crc32c(payload.data(), payload.size());
    rec.reserved = 0;
    w.write(&rec, sizeof rec);
    w.write(payload.data(), payload.size());
  }

  ckptfmt::Footer foot{};
  std::memcpy(foot.magic, ckptfmt::kEndMagic, sizeof foot.magic);
  foot.file_crc = w.crc;
  w.write(&foot, sizeof foot);

  // fsync-before-rename: the snapshot's bytes reach the device before
  // its name does, so the renamed file is never partial; the directory
  // fsync makes the name itself durable.
  while (::fsync(f.fd) != 0) {
    if (errno == EINTR) continue;
    throw CheckpointError(tmp_path + ": fsync failed: " +
                          std::strerror(errno));
  }
  f.close_now();
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    throw CheckpointError(final_path + ": rename failed: " +
                          std::strerror(errno));
  }
  {
    FdCloser d{::open(dir.c_str(), O_RDONLY)};
    if (d.fd >= 0) ::fsync(d.fd);
  }
  *bytes_out = w.bytes;
  *crc_out = foot.file_crc;
}

CheckpointStats CheckpointCoordinator::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace gep
