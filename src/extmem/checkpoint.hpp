// Checkpoint/restart for long-running out-of-core I-GEP jobs
// (ROADMAP item 5(b); docs/ROBUSTNESS.md "Checkpoint/restart").
//
// A snapshot pairs the matrix state (every OocMatrix page written since
// the previous snapshot, as checksummed extents) with the execution
// frontier (the set of completed base-case leaves, as a bitmap over the
// typed task graph's emission-order ids). Emission order is the
// sequential execution order and every quiesced completed-set is a
// dependence DOWNSET of the DAG, so "replay the pages, skip the done
// leaves, run the rest in any topological order" reproduces the
// uninterrupted run bit for bit — at any worker count: a snapshot cut
// on a pool resumes with no pool, and vice versa.
//
// Stream format GEPCKPT1 (host-endian, one file per snapshot):
//   FileHeader        magic "GEPCKPT1", schema version, job id, matrix
//                     fingerprint (algo, n, base, matrix shapes, element
//                     and page sizes), options hash, sequence number,
//                     parent checksum (chains incrementals), header CRC
//   MatRecord[n_mats] rows/cols/tile_side/pages per matrix
//   frontier bitmap   (task_count + 7) / 8 bytes, bit = leaf id done
//   Extent*           {mat, count, start_page, payload CRC32C} followed
//                     by count raw pages (consecutive, <= 64 per extent)
//   Footer            magic "GEPCKEND" + CRC32C of all preceding bytes
// Snapshots are written to "<name>.tmp", fsynced, renamed into place,
// and the directory fsynced — a crash mid-checkpoint leaves the
// previous snapshot chain valid. Snapshot seq 0 is a full image (the
// cache tracks every page ever written, and matrix load() writes every
// page, so no separate input copy is needed); seq >= 1 hold only pages
// changed since the previous cut, linked by parent_crc and validated as
// a chain on load. Truncation, bit flips and broken links surface as
// CheckpointError — never a silent resume from bad state.
//
// Quiesce protocol: the coordinator implements TaskCheckpointHook.
// leaf_enter() blocks new leaves while a snapshot is pending; once the
// in-flight count drains to zero the snapshot is cut under the
// coordinator lock (flush + store sync, then the stream write), and the
// gate reopens. Leaves that unwind via JobCancelled before touching
// their blocks are clean cancels; any other mid-kernel exception marks
// the job dirty and permanently blocks further snapshots (the matrix
// holds a half-applied leaf that no frontier can describe).
//
// Triggers: every_n_leaves, a wall-clock interval (GEP_CKPT_INTERVAL_SEC
// or CheckpointOptions::interval_sec), request_checkpoint() (thread-
// safe), SIGUSR2 (install_checkpoint_signal_handler), and explicit
// checkpoint_now() from a quiesced caller (e.g. the JobCancelled catch
// of a SIGTERM'd bench: checkpoint, then exit 130).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "extmem/page_cache.hpp"
#include "matrix/matrix.hpp"
#include "parallel/task_graph.hpp"

namespace gep {

// A snapshot file (or chain) that cannot be trusted: truncated, failed
// a checksum, wrong schema/fingerprint, or a broken incremental chain.
// Resume MUST fail rather than continue from it.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error(what) {}
};

namespace ckptfmt {

inline constexpr char kMagic[8] = {'G', 'E', 'P', 'C', 'K', 'P', 'T', '1'};
inline constexpr char kEndMagic[8] = {'G', 'E', 'P', 'C', 'K', 'E', 'N', 'D'};
inline constexpr std::uint32_t kVersion = 1;
// Extents are capped so payload CRCs cover bounded buffers.
inline constexpr std::uint64_t kMaxExtentPages = 64;

struct FileHeader {
  char magic[8];
  std::uint32_t version = 0;
  std::uint32_t algo = 0;  // DagProblem
  std::uint64_t job_id = 0;
  std::uint64_t options_hash = 0;
  std::uint64_t n = 0;
  std::uint64_t base = 0;
  std::uint32_t n_mats = 0;
  std::uint32_t elem_bytes = 0;
  std::uint64_t page_bytes = 0;
  std::uint64_t seq = 0;
  std::uint32_t parent_crc = 0;  // footer CRC of seq-1; 0 for seq 0
  std::uint32_t header_crc = 0;  // CRC32C of this struct, field zeroed
  std::uint64_t task_count = 0;
  std::uint64_t done_count = 0;
  std::uint64_t extent_count = 0;
  std::uint64_t reserved = 0;
};

struct MatRecord {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t tile_side = 0;  // 0 = row-major OocMatrix
  std::uint64_t pages = 0;
};

struct ExtentRecord {
  std::uint32_t mat = 0;         // index into the MatRecord table
  std::uint32_t count = 0;       // pages in this extent
  std::uint64_t start_page = 0;  // first page id
  std::uint32_t payload_crc = 0; // CRC32C of the count raw pages
  std::uint32_t reserved = 0;
};

struct Footer {
  char magic[8];
  std::uint32_t file_crc = 0;  // CRC32C of every byte before the footer
  std::uint32_t reserved = 0;
};

}  // namespace ckptfmt

// A fully validated snapshot file: header, matrix table, frontier
// bitmap, extent table (payloads are streamed to the read_snapshot
// sink, not retained), and the footer checksum that chains the next
// incremental.
struct SnapshotInfo {
  ckptfmt::FileHeader header;
  std::vector<ckptfmt::MatRecord> mats;
  std::vector<std::uint8_t> frontier;  // (task_count + 7) / 8 bytes
  std::vector<ckptfmt::ExtentRecord> extents;
  std::uint32_t file_crc = 0;
  std::string path;
};

// Reads and validates one snapshot end to end (header CRC, every extent
// payload CRC, footer magic + whole-file CRC), throwing CheckpointError
// on any mismatch or truncation. `sink`, when non-null, receives each
// extent's record and raw payload in file order.
using ExtentSink =
    std::function<void(const ckptfmt::ExtentRecord&, const char* payload)>;
SnapshotInfo read_snapshot(const std::string& path, const ExtentSink& sink);

// Scans `dir` for the job's snapshots, orders them by sequence number
// and validates the full chain: contiguous seq 0..k, consistent
// fingerprints, each file's parent_crc equal to its predecessor's
// footer CRC, every file individually validated by read_snapshot.
// Returns the ordered chain ([] when the job has no snapshots yet);
// throws CheckpointError on a gap or any validation failure.
std::vector<SnapshotInfo> load_chain(const std::string& dir,
                                     std::uint64_t job_id);

// Snapshot filename for (job, seq): "ckpt_<job:016x>_<seq:06>.gepckpt".
std::string snapshot_filename(std::uint64_t job_id, std::uint64_t seq);

// SIGUSR2 -> checkpoint-and-continue: the handler sets a flag the
// coordinator consumes at the next leaf retirement. Idempotent install.
void install_checkpoint_signal_handler();
bool checkpoint_signal_pending();  // consumes the flag

// $GEP_CKPT_INTERVAL_SEC (seconds, fractional ok; <= 0 disables).
double ckpt_interval_from_env(double fallback = 0.0);

struct CheckpointOptions {
  std::string dir;           // where snapshots live (must exist)
  std::uint64_t job_id = 1;  // names the chain; stable across restarts
  // Periodic triggers; 0 disables. Both may be combined with explicit
  // request_checkpoint() / SIGUSR2 / checkpoint_now().
  std::uint64_t every_n_leaves = 0;
  double interval_sec = 0.0;
};

struct CheckpointStats {
  std::uint64_t count = 0;    // snapshots written
  std::uint64_t skipped = 0;  // triggers with nothing new (or aborted)
  std::uint64_t failed = 0;   // write attempts that threw
  std::uint64_t bytes = 0;    // snapshot file bytes written
  std::uint64_t pages = 0;    // matrix pages captured
  double wall_seconds = 0;    // time spent cutting snapshots
  std::uint64_t last_seq = 0; // seq of the most recent snapshot + 1
};

// Orchestrates quiesce + snapshot + resume for one job: one PageCache,
// one or more OocMatrix files, one typed task graph. Thread-safe; the
// DAG runtime's workers all call it (via TaskRuntimeOptions::ckpt).
class CheckpointCoordinator final : public TaskCheckpointHook {
 public:
  CheckpointCoordinator(PageCache& cache, CheckpointOptions opts);

  // Declares a matrix participating in the job, in a FIXED order that
  // becomes the snapshot's mat indices. Call before bind()/resume().
  void add_matrix(int file_id, std::uint64_t rows, std::uint64_t cols,
                  std::uint64_t tile_side, std::uint64_t elem_bytes,
                  std::uint64_t pages);

  // Binds the job's execution fingerprint and sizes the frontier to the
  // typed task graph (emission-order ids). Idempotent for equal
  // arguments — the OOC drivers re-bind on entry — and throws on a
  // mismatch (the coordinator serves exactly one job). `task_count` is
  // the size of that graph, which the caller has built.
  void bind(DagProblem algo, index_t n, index_t base, bool lu_guarded,
            int task_count);

  // Loads and applies the job's snapshot chain: verifies compatibility
  // with the bound fingerprint, replays every page extent through the
  // cache, and seeds the frontier from the newest snapshot. Later
  // snapshots APPEND to the chain (seq continues, parent_crc links).
  // Returns false when no chain exists (caller runs from scratch);
  // throws CheckpointError on corruption — never a partial resume: no
  // page is installed unless the whole chain validated.
  bool resume();

  // Asks for a snapshot at the next consistent point (thread-safe,
  // returns immediately).
  void request_checkpoint();

  // Cuts a snapshot right now. Caller must be quiesced (no leaf between
  // leaf_enter and leaf_exit — e.g. after run_task_graph returned or a
  // JobCancelled unwound). Returns true if a snapshot was written,
  // false if skipped (nothing changed, or an aborted leaf poisoned the
  // state); throws on I/O failure (the previous chain stays valid).
  bool checkpoint_now();

  // TaskCheckpointHook (called by the runtimes; see task_graph.hpp).
  bool is_done(int id) const override;
  void leaf_enter() override;
  void leaf_exit(int id) override;
  void leaf_cancel() noexcept override;
  void leaf_abort() noexcept override;

  CheckpointStats stats() const;
  std::uint64_t done_leaves() const {
    return done_count_.load(std::memory_order_acquire);
  }
  std::uint64_t task_count() const { return task_count_; }
  const CheckpointOptions& options() const { return opts_; }

 private:
  struct MatrixInfo {
    int file_id;
    std::uint64_t rows, cols, tile_side, pages;
  };
  enum class CutResult { Written, SkippedUnchanged, SkippedAborted };

  std::uint64_t fingerprint_hash() const;  // options_hash field
  void verify_compat(const SnapshotInfo& s) const;
  CutResult cut_snapshot();  // mu_ held; quiesced
  void write_snapshot_file(const std::string& dir, std::uint64_t seq,
                           const std::vector<std::vector<std::uint64_t>>&
                               pages_per_mat,
                           std::uint64_t done,
                           std::uint64_t* bytes_out,
                           std::uint32_t* crc_out) const;
  void arm_deadline();  // mu_ held

  PageCache* cache_;
  CheckpointOptions opts_;

  std::vector<MatrixInfo> mats_;
  std::uint32_t elem_bytes_ = 0;

  bool bound_ = false;
  DagProblem algo_ = DagProblem::FloydWarshall;
  index_t n_ = 0, base_ = 0;
  bool lu_guarded_ = false;
  std::uint64_t task_count_ = 0;

  // Frontier: one bit per task, set at leaf_exit. Lock-free so markers
  // never contend with the quiesce mutex.
  std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
  std::size_t word_count_ = 0;
  std::atomic<std::uint64_t> done_count_{0};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  int inflight_ = 0;        // leaves between leaf_enter and leaf_exit
  bool pending_ = false;    // snapshot requested; gate closed
  bool requested_ = false;  // request_checkpoint() latch
  bool dirty_abort_ = false;  // a leaf died mid-kernel; no more snapshots
  std::uint64_t seq_ = 0;          // next snapshot's sequence number
  std::uint32_t parent_crc_ = 0;   // footer CRC of seq_ - 1
  std::uint64_t last_done_count_ = 0;
  std::uint64_t leaves_since_ = 0;
  std::chrono::steady_clock::time_point deadline_{};
  bool deadline_armed_ = false;
  CheckpointStats stats_;
};

}  // namespace gep
