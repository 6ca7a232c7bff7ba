// Checkpoint/restart matrix: crash-consistent snapshots of OocMatrix +
// execution frontier, kill-and-resume verification, corruption
// rejection, and the quiesce/trigger protocol.
//
// Every suite name starts with "Ckpt" so CI can run the whole matrix
// with `ctest -R 'Ckpt'`. The kill knob (FaultConfig::kill_after_writes)
// is deterministic, so these tests hold for any GEP_FAULT_SEED.
#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "extmem/checkpoint.hpp"
#include "extmem/fault_injector.hpp"
#include "extmem/ooc_matrix.hpp"
#include "extmem/ooc_typed.hpp"
#include "extmem/robust_store.hpp"
#include "parallel/work_stealing.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

constexpr std::uint64_t kJob = 0xC0FFEE01;

struct TempDir {
  std::string path;
  TempDir() {
    char buf[] = "/tmp/gep_ckpt_test_XXXXXX";
    const char* p = ::mkdtemp(buf);
    path = (p != nullptr) ? p : "/tmp";
  }
  ~TempDir() {
    DIR* d = ::opendir(path.c_str());
    if (d != nullptr) {
      for (struct dirent* e = ::readdir(d); e != nullptr; e = ::readdir(d)) {
        const std::string n = e->d_name;
        if (n != "." && n != "..") ::unlink((path + "/" + n).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(path.c_str());
  }
};

Matrix<double> fw_init(index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) m(i, j) = g.uniform(1.0, 9.0);
    m(i, i) = 0;
  }
  return m;
}

Matrix<double> lu_init(index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) m(i, j) = g.uniform(-1.0, 1.0);
    m(i, i) += static_cast<double>(n) + 2.0;
  }
  return m;
}

bool bit_identical(const Matrix<double>& a, const Matrix<double>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.rows()) *
                         static_cast<std::size_t>(a.cols()) *
                         sizeof(double)) == 0;
}

enum class Algo { FW, LU, MM };

const char* algo_str(Algo a) {
  return a == Algo::FW ? "fw" : a == Algo::LU ? "lu" : "mm";
}

// One out-of-core job: cache + matrices in the fixed registration order
// the snapshot format captures (MM: C, A, B).
struct Job {
  Algo algo;
  index_t n, bs;
  PageCache cache;
  std::vector<std::unique_ptr<OocTiledMatrix<double>>> mats;

  Job(Algo a, index_t n_, index_t bs_, std::uint64_t frames,
      RobustOptions robust = {})
      : algo(a),
        n(n_),
        bs(bs_),
        cache(frames * bs_ * bs_ * sizeof(double),
              bs_ * bs_ * sizeof(double), {}, robust) {
    const int nm = (algo == Algo::MM) ? 3 : 1;
    for (int i = 0; i < nm; ++i) {
      mats.push_back(std::make_unique<OocTiledMatrix<double>>(cache, n, n,
                                                              bs));
    }
  }

  DagProblem problem() const {
    return algo == Algo::FW   ? DagProblem::FloydWarshall
           : algo == Algo::LU ? DagProblem::LU
                              : DagProblem::MatMul;
  }

  void load_input() {
    if (algo == Algo::FW) {
      mats[0]->load(fw_init(n, 7));
    } else if (algo == Algo::LU) {
      mats[0]->load(lu_init(n, 8));
    } else {
      mats[0]->load(Matrix<double>(n, n, 0.0));
      mats[1]->load(lu_init(n, 9));
      mats[2]->load(lu_init(n, 10));
    }
  }

  void register_with(CheckpointCoordinator& ck) const {
    for (const auto& m : mats) {
      ck.add_matrix(m->file_id(), static_cast<std::uint64_t>(m->rows()),
                    static_cast<std::uint64_t>(m->cols()),
                    static_cast<std::uint64_t>(m->tile_side()),
                    sizeof(double), m->file_pages());
    }
  }

  // workers <= 1: no pool (the sequential out-of-core I-GEP).
  void run(CheckpointCoordinator* ck, int workers, bool async) {
    if (async) cache.enable_async_io();
    struct AsyncOff {
      PageCache* c;
      bool on;
      ~AsyncOff() {
        if (on) c->disable_async_io();
      }
    } guard{&cache, async};
    std::unique_ptr<WorkStealingPool> pool;
    if (workers > 1) pool = std::make_unique<WorkStealingPool>(workers);
    OocDagOptions o;
    o.prefetch = async;
    o.ckpt = ck;
    switch (algo) {
      case Algo::FW:
        ooc_igep_floyd_warshall_dag(*mats[0], pool.get(), o);
        break;
      case Algo::LU: ooc_igep_lu_dag(*mats[0], pool.get(), o); break;
      case Algo::MM:
        ooc_igep_matmul_dag(*mats[0], *mats[1], *mats[2], pool.get(), o);
        break;
    }
  }

  Matrix<double> result() const { return mats[0]->to_matrix(); }

  bool any_killed() const {
    for (const auto& m : mats) {
      FaultInjector* inj = cache.fault_injector(m->file_id());
      if (inj != nullptr && inj->killed()) return true;
    }
    return false;
  }
};

RobustOptions install_only() {
  RobustOptions r;
  r.faults.install = true;
  r.retry.backoff_us = 0;
  return r;
}

RobustOptions kill_after(std::uint64_t writes) {
  RobustOptions r;
  r.faults.kill_after_writes = writes;
  r.retry.backoff_us = 0;
  return r;
}

CheckpointOptions ckpt_opts(const std::string& dir,
                            std::uint64_t every_n = 4) {
  CheckpointOptions o;
  o.dir = dir;
  o.job_id = kJob;
  o.every_n_leaves = every_n;
  return o;
}

// ---- Kill-and-resume matrix ----
//
// Per cell: (1) uncheckpointed reference; (2) checkpointed calibration
// run that also proves checkpointing itself preserves bit-identity and
// measures the job's write count W; (3) crash run killed after
// frac * W writes; (4) resume into FRESH matrices (seq-0 snapshots are
// self-contained, so nothing is reloaded) and bit-compare against the
// reference. A kill before the first snapshot leaves no chain; the
// resume leg then rebuilds from the input, which is the documented
// fallback path. Legs (1)-(3) run on `workers`, the resume leg on
// `resume_workers` (default: the same): the fingerprint leaves the
// worker count out, so a cut taken on a pool resumes without one. The
// job is n x n in bs-wide tiles.
void kill_resume_case(Algo algo, int workers, bool async, double frac,
                      std::uint64_t frames, int resume_workers = -1,
                      index_t n = 32, index_t bs = 8) {
  if (resume_workers < 0) resume_workers = workers;
  SCOPED_TRACE(std::string(algo_str(algo)) + " workers " +
               std::to_string(workers) + " -> " +
               std::to_string(resume_workers) +
               (async ? " async" : " sync") + " frac " +
               std::to_string(frac) + " n " + std::to_string(n));

  Matrix<double> ref;
  {
    Job job(algo, n, bs, frames);
    job.load_input();
    job.run(nullptr, workers, async);
    ref = job.result();
  }

  std::uint64_t w0 = 0;
  {
    TempDir cal;
    Job job(algo, n, bs, frames, install_only());
    CheckpointCoordinator ck(job.cache, ckpt_opts(cal.path));
    job.register_with(ck);
    job.load_input();
    job.run(&ck, workers, async);
    EXPECT_GE(ck.stats().count, 2u) << "periodic trigger never fired";
    EXPECT_TRUE(bit_identical(ref, job.result()))
        << "checkpointing must not perturb the computation";
    FaultInjector* inj = job.cache.fault_injector(job.mats[0]->file_id());
    ASSERT_NE(inj, nullptr);
    w0 = inj->stats().writes_seen;
  }
  ASSERT_GT(w0, 4u);
  const std::uint64_t kill_at =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     static_cast<double>(w0) * frac));

  TempDir dir;
  bool died = false;
  {
    Job job(algo, n, bs, frames, kill_after(kill_at));
    CheckpointCoordinator ck(job.cache, ckpt_opts(dir.path));
    job.register_with(ck);
    try {
      job.load_input();
      job.run(&ck, workers, async);
    } catch (const std::exception&) {
      died = true;
    }
    EXPECT_TRUE(job.any_killed()) << "kill knob never fired (W=" << w0
                                  << ", kill_at=" << kill_at << ")";
  }
  EXPECT_TRUE(died) << "a dead store must fail the job";

  {
    Job job(algo, n, bs, frames);
    CheckpointCoordinator ck(job.cache, ckpt_opts(dir.path));
    job.register_with(ck);
    ck.bind(job.problem(), n, bs, false,
            build_typed_task_graph(job.problem(), n, bs).size());
    const bool resumed = ck.resume();
    if (!resumed) job.load_input();  // killed before the first snapshot
    const std::uint64_t pre = ck.done_leaves();
    if (resumed) {
      EXPECT_GT(pre + 1, 0u);  // frontier may legally be empty at seq 0
    }
    job.run(&ck, resume_workers, async);
    EXPECT_EQ(ck.done_leaves(), ck.task_count());
    EXPECT_TRUE(bit_identical(ref, job.result()))
        << "resumed result must be bit-identical (resumed=" << resumed
        << ", pre=" << pre << ")";
  }
}

// The *ForkJoin* cells run the out-of-core driver with no pool: the
// sequential I-GEP, whose leaves and page order are the ones the
// sequential fork-join recursion had. The *Dag* cells run it on 2
// workers.
TEST(CkptKillResume, FwForkJoinSyncEarly) {
  kill_resume_case(Algo::FW, 0, false, 0.25, 8);
}
TEST(CkptKillResume, FwForkJoinSyncMid) {
  kill_resume_case(Algo::FW, 0, false, 0.5, 8);
}
TEST(CkptKillResume, FwForkJoinSyncLate) {
  kill_resume_case(Algo::FW, 0, false, 0.75, 8);
}
TEST(CkptKillResume, LuForkJoinSyncEarly) {
  kill_resume_case(Algo::LU, 0, false, 0.25, 8);
}
TEST(CkptKillResume, LuForkJoinSyncMid) {
  kill_resume_case(Algo::LU, 0, false, 0.5, 8);
}
TEST(CkptKillResume, LuForkJoinSyncLate) {
  kill_resume_case(Algo::LU, 0, false, 0.75, 8);
}
TEST(CkptKillResume, MmForkJoinSyncEarly) {
  kill_resume_case(Algo::MM, 0, false, 0.25, 16);
}
TEST(CkptKillResume, MmForkJoinSyncMid) {
  kill_resume_case(Algo::MM, 0, false, 0.5, 16);
}
TEST(CkptKillResume, MmForkJoinSyncLate) {
  kill_resume_case(Algo::MM, 0, false, 0.75, 16);
}
TEST(CkptKillResume, FwForkJoinAsyncMid) {
  kill_resume_case(Algo::FW, 0, true, 0.5, 12);
}
TEST(CkptKillResume, FwDagAsyncMid) {
  kill_resume_case(Algo::FW, 2, true, 0.4, 28);
}
TEST(CkptKillResume, LuDagSyncEarly) {
  kill_resume_case(Algo::LU, 2, false, 0.25, 28);
}
TEST(CkptKillResume, LuDagAsyncMid) {
  kill_resume_case(Algo::LU, 2, true, 0.4, 28);
}
TEST(CkptKillResume, MmDagAsyncMid) {
  kill_resume_case(Algo::MM, 2, true, 0.4, 32);
}
// A chain cut on 4 workers resumes with no pool.
TEST(CkptKillResume, FwDagCutResumesWithoutPool) {
  kill_resume_case(Algo::FW, 4, false, 0.5, 28, /*resume_workers=*/0);
}
// n != 2^q: partial edge tiles, clipped leaves.
TEST(CkptKillResume, FwDagCutResumesAtNonPow2N) {
  kill_resume_case(Algo::FW, 2, false, 0.5, 12, /*resume_workers=*/-1,
                   /*n=*/200, /*bs=*/64);
}

// ---- Snapshot format validation ----

// Builds a complete checkpointed FW run in `dir` and returns the chain's
// file paths (>= 2 snapshots: periodic cuts plus a final full-frontier
// cut from checkpoint_now()).
std::vector<std::string> make_chain(const std::string& dir) {
  Job job(Algo::FW, 32, 8, 8);
  CheckpointCoordinator ck(job.cache, ckpt_opts(dir));
  job.register_with(ck);
  job.load_input();
  job.run(&ck, 0, false);
  ck.checkpoint_now();
  std::vector<std::string> paths;
  for (const SnapshotInfo& s : load_chain(dir, kJob)) paths.push_back(s.path);
  return paths;
}

TEST(CkptFormat, ChainValidatesAndChainsParentChecksums) {
  TempDir dir;
  const auto paths = make_chain(dir.path);
  ASSERT_GE(paths.size(), 2u);
  const auto chain = load_chain(dir.path, kJob);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(chain[i].header.seq, i);
    EXPECT_EQ(chain[i].header.parent_crc,
              i == 0 ? 0u : chain[i - 1].file_crc);
    EXPECT_EQ(chain[i].path,
              dir.path + "/" + snapshot_filename(kJob, i));
  }
  // The newest frontier names every leaf (checkpoint_now after the run).
  EXPECT_EQ(chain.back().header.done_count, chain.back().header.task_count);
  // Incrementals carry strictly less than the full base image.
  std::uint64_t base_pages = 0, incr_pages = 0;
  for (const auto& e : chain.front().extents) base_pages += e.count;
  for (const auto& e : chain.back().extents) incr_pages += e.count;
  EXPECT_GT(base_pages, 0u);
  EXPECT_LT(incr_pages, base_pages);
}

TEST(CkptFormat, TruncatedSnapshotRejected) {
  TempDir dir;
  const auto paths = make_chain(dir.path);
  ASSERT_GE(paths.size(), 2u);
  ASSERT_EQ(::truncate(paths.back().c_str(), 64), 0);
  EXPECT_THROW(read_snapshot(paths.back(), nullptr), CheckpointError);
  EXPECT_THROW(load_chain(dir.path, kJob), CheckpointError);
}

TEST(CkptFormat, BitFlippedPayloadRejected) {
  TempDir dir;
  const auto paths = make_chain(dir.path);
  FILE* f = std::fopen(paths.front().c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  ASSERT_GT(size, 512);
  std::fseek(f, size / 2, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, size / 2, SEEK_SET);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
  EXPECT_THROW(read_snapshot(paths.front(), nullptr), CheckpointError);
  EXPECT_THROW(load_chain(dir.path, kJob), CheckpointError);
}

TEST(CkptFormat, MissingBaseSnapshotBreaksChain) {
  TempDir dir;
  const auto paths = make_chain(dir.path);
  ASSERT_GE(paths.size(), 2u);
  ASSERT_EQ(::unlink(paths.front().c_str()), 0);
  EXPECT_THROW(load_chain(dir.path, kJob), CheckpointError);
}

TEST(CkptFormat, ForeignJobHasNoChain) {
  TempDir dir;
  make_chain(dir.path);
  EXPECT_TRUE(load_chain(dir.path, kJob + 1).empty());
  EXPECT_TRUE(load_chain(dir.path + "/nonexistent", kJob).empty());
}

// ---- Resume semantics ----

TEST(CkptResume, CorruptChainNeverPartiallyResumes) {
  TempDir dir;
  const auto paths = make_chain(dir.path);
  ASSERT_EQ(::truncate(paths.back().c_str(), 64), 0);
  Job job(Algo::FW, 32, 8, 8);
  CheckpointCoordinator ck(job.cache, ckpt_opts(dir.path));
  job.register_with(ck);
  ck.bind(DagProblem::FloydWarshall, 32, 8, false,
          build_typed_task_graph(DagProblem::FloydWarshall, 32, 8).size());
  EXPECT_THROW(ck.resume(), CheckpointError);
  // Pass-1 validation failed, so pass 2 never ran: no page was installed
  // and the frontier is untouched.
  EXPECT_EQ(ck.done_leaves(), 0u);
  EXPECT_EQ(job.cache.stats().page_ins, 0u);
}

TEST(CkptResume, IncompatibleFingerprintRejected) {
  TempDir dir;
  make_chain(dir.path);  // FW, n=32, bs=8
  Job job(Algo::LU, 32, 8, 8);
  CheckpointCoordinator ck(job.cache, ckpt_opts(dir.path));
  job.register_with(ck);
  ck.bind(DagProblem::LU, 32, 8, false,
          build_typed_task_graph(DagProblem::LU, 32, 8).size());
  EXPECT_THROW(ck.resume(), CheckpointError);
}

TEST(CkptResume, ResumeBeforeBindRejected) {
  TempDir dir;
  Job job(Algo::FW, 32, 8, 8);
  CheckpointCoordinator ck(job.cache, ckpt_opts(dir.path));
  job.register_with(ck);
  EXPECT_THROW(ck.resume(), CheckpointError);
}

TEST(CkptResume, CompletedJobReplaysFromSnapshotsAlone) {
  const index_t n = 32, bs = 8;
  TempDir dir;
  Matrix<double> ref;
  {
    Job job(Algo::FW, n, bs, 8);
    // Explicit-only triggers: the single checkpoint_now below is the
    // whole chain (a periodic cut on the final leaf would make it a
    // correctly-skipped no-op instead).
    CheckpointCoordinator ck(job.cache, ckpt_opts(dir.path, 0));
    job.register_with(ck);
    job.load_input();
    job.run(&ck, 0, false);
    ASSERT_TRUE(ck.checkpoint_now());
    ref = job.result();
  }
  // Fresh cache, fresh EMPTY matrices: the chain alone must rebuild the
  // final matrix, and the full frontier must skip every leaf.
  Job job(Algo::FW, n, bs, 8);
  CheckpointCoordinator ck(job.cache, ckpt_opts(dir.path));
  job.register_with(ck);
  ck.bind(DagProblem::FloydWarshall, n, bs, false,
          build_typed_task_graph(DagProblem::FloydWarshall, n, bs).size());
  ASSERT_TRUE(ck.resume());
  EXPECT_EQ(ck.done_leaves(), ck.task_count());
  const std::uint64_t pins_before = job.cache.stats().pins;
  job.run(&ck, 0, false);
  EXPECT_EQ(job.cache.stats().pins, pins_before)
      << "a fully-done frontier must not execute (or pin) anything";
  EXPECT_TRUE(bit_identical(ref, job.result()));
}

TEST(CkptResume, ResumedJobAppendsToChain) {
  const index_t n = 32, bs = 8;
  TempDir dir;
  {
    Job job(Algo::FW, n, bs, 8, kill_after(40));
    CheckpointCoordinator ck(job.cache, ckpt_opts(dir.path));
    job.register_with(ck);
    try {
      job.load_input();
      job.run(&ck, 0, false);
    } catch (const std::exception&) {
    }
  }
  const std::size_t before = load_chain(dir.path, kJob).size();
  ASSERT_GT(before, 0u) << "kill landed before the first snapshot";
  {
    Job job(Algo::FW, n, bs, 8);
    CheckpointCoordinator ck(job.cache, ckpt_opts(dir.path));
    job.register_with(ck);
    ck.bind(DagProblem::FloydWarshall, n, bs, false,
            build_typed_task_graph(DagProblem::FloydWarshall, n, bs).size());
    ASSERT_TRUE(ck.resume());
    job.run(&ck, 0, false);
    ck.checkpoint_now();
  }
  // load_chain itself validates seq contiguity and parent_crc links, so
  // a longer valid chain proves the resumed run appended correctly.
  EXPECT_GT(load_chain(dir.path, kJob).size(), before);
}

// ---- Triggers and quiesce protocol ----

TEST(CkptTrigger, ExplicitRequestAndSkipWhenUnchanged) {
  const index_t n = 32, bs = 8;
  TempDir dir;
  Job job(Algo::FW, n, bs, 8);
  CheckpointCoordinator ck(job.cache, ckpt_opts(dir.path, /*every_n=*/0));
  job.register_with(ck);
  job.load_input();
  ck.request_checkpoint();  // consumed at the first leaf retirement
  job.run(&ck, 0, false);
  EXPECT_EQ(ck.stats().count, 1u);
  EXPECT_TRUE(ck.checkpoint_now());   // pages changed since the request
  EXPECT_FALSE(ck.checkpoint_now());  // nothing new: skipped, not written
  const CheckpointStats s = ck.stats();
  EXPECT_EQ(s.count, 2u);
  EXPECT_GE(s.skipped, 1u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GT(s.bytes, 0u);
  EXPECT_GT(s.pages, 0u);
}

TEST(CkptTrigger, IntervalFromEnv) {
  ::setenv("GEP_CKPT_INTERVAL_SEC", "0.75", 1);
  EXPECT_DOUBLE_EQ(ckpt_interval_from_env(), 0.75);
  {
    PageCache cache(8 * 512, 512);
    CheckpointCoordinator ck(cache, CheckpointOptions{"/tmp", 1, 0, 0.0});
    EXPECT_DOUBLE_EQ(ck.options().interval_sec, 0.75);
  }
  ::setenv("GEP_CKPT_INTERVAL_SEC", "bogus", 1);
  EXPECT_DOUBLE_EQ(ckpt_interval_from_env(3.0), 3.0);
  ::unsetenv("GEP_CKPT_INTERVAL_SEC");
  EXPECT_DOUBLE_EQ(ckpt_interval_from_env(), 0.0);
}

TEST(CkptQuiesce, AbortedLeafPoisonsSnapshotsButKeepsChain) {
  const index_t n = 32, bs = 8;
  TempDir dir;
  Job job(Algo::FW, n, bs, 8);
  CheckpointCoordinator ck(job.cache, ckpt_opts(dir.path, 0));
  job.register_with(ck);
  ck.bind(DagProblem::FloydWarshall, n, bs, false,
          build_typed_task_graph(DagProblem::FloydWarshall, n, bs).size());
  job.load_input();
  ASSERT_TRUE(ck.checkpoint_now());  // seq 0 lands before the "crash"
  const std::size_t chain_before = load_chain(dir.path, kJob).size();
  // A leaf dies mid-kernel: the coordinator must refuse to snapshot the
  // half-applied state, while the pre-abort chain stays usable.
  ck.leaf_enter();
  ck.leaf_abort();
  EXPECT_FALSE(ck.checkpoint_now());
  EXPECT_GE(ck.stats().skipped, 1u);
  EXPECT_EQ(load_chain(dir.path, kJob).size(), chain_before);
}

// ---- Deterministic kill knob ----

TEST(CkptKill, CrashPointIsDeterministic) {
  const std::uint64_t kill_at = 20;
  auto run_once = [&] {
    Job job(Algo::FW, 32, 8, 8, kill_after(kill_at));
    bool died = false;
    try {
      job.load_input();
      job.run(nullptr, 0, false);
    } catch (const std::exception&) {
      died = true;
    }
    EXPECT_TRUE(died);
    return job.cache.fault_injector(job.mats[0]->file_id())->stats();
  };
  const FaultInjectorStats a = run_once();
  const FaultInjectorStats b = run_once();
  EXPECT_EQ(a.kills, 1u);
  EXPECT_EQ(b.kills, 1u);
  EXPECT_EQ(a.writes_seen, kill_at);
  EXPECT_EQ(b.writes_seen, kill_at);
}

TEST(CkptKill, DeadStoreRefusesEveryOperation) {
  FaultConfig cfg;
  cfg.kill_after_writes = 1;
  FaultInjector fi(std::make_unique<BlockFile>(256), cfg);
  std::vector<char> buf(256, 7);
  try {
    fi.write_page(0, buf.data());
    FAIL() << "the killing write must throw";
  } catch (const IoError& e) {
    EXPECT_FALSE(e.transient()) << "retry must not cure a crash";
  }
  EXPECT_TRUE(fi.killed());
  EXPECT_THROW(fi.write_page(1, buf.data()), IoError);
  EXPECT_THROW(fi.read_page(0, buf.data()), IoError);
  EXPECT_THROW(fi.sync(), IoError);
  // The killing write was torn: half the new bytes landed below.
  EXPECT_EQ(fi.stats().kills, 1u);
}

// ---- RobustStore sync ordering (data first, then sidecar) ----

class SyncFailsStore final : public BlockStore {
 public:
  explicit SyncFailsStore(std::uint64_t pb) : pb_(pb) {}
  void read_page(std::uint64_t, void* buf) override {
    std::memset(buf, 0, pb_);
  }
  void write_page(std::uint64_t, const void*) override {}
  void sync() override {
    ++sync_calls;
    throw IoError(IoError::Op::Write, 0, EIO, /*transient=*/false,
                  "injected sync failure");
  }
  std::uint64_t page_bytes() const override { return pb_; }
  int sync_calls = 0;

 private:
  std::uint64_t pb_;
};

TEST(CkptRobustStore, SidecarPersistsOnlyAfterDataSync) {
  RetryPolicy retry;
  retry.backoff_us = 0;
  // Inner sync fails: the CRC sidecar must NOT be persisted (a fresh
  // checksum over unsynced data is the ordering bug the data-first
  // contract forbids).
  {
    auto inner = std::make_unique<SyncFailsStore>(256);
    SyncFailsStore* raw = inner.get();
    RobustStore rs(std::move(inner), retry, /*checksums=*/true);
    std::vector<char> buf(256, 3);
    rs.write_page(0, buf.data());
    EXPECT_THROW(rs.sync(), IoError);
    EXPECT_EQ(raw->sync_calls, 1);
    EXPECT_EQ(rs.stats().sidecar_syncs, 0u);
  }
  // Healthy inner store: data sync first, then exactly one sidecar sync.
  {
    RobustStore rs(std::make_unique<BlockFile>(256), retry,
                   /*checksums=*/true);
    std::vector<char> buf(256, 4);
    rs.write_page(0, buf.data());
    rs.sync();
    EXPECT_EQ(rs.stats().sidecar_syncs, 1u);
  }
  // Checksums off: sync degrades to the inner sync alone.
  {
    RobustStore rs(std::make_unique<BlockFile>(256), retry,
                   /*checksums=*/false);
    std::vector<char> buf(256, 5);
    rs.write_page(0, buf.data());
    rs.sync();
    EXPECT_EQ(rs.stats().sidecar_syncs, 0u);
  }
}

}  // namespace
}  // namespace gep
