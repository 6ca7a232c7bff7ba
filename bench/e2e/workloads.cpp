#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>

#include "apps/apps.hpp"
#include "bench_common.hpp"
#include "extmem/ooc_typed.hpp"
#include "gep/numeric_guard.hpp"
#include "obs/io_model.hpp"
#include "obs/stat_server.hpp"
#include "parallel/task_graph.hpp"

namespace gep::e2e {
namespace {

constexpr index_t kBase = 64;
constexpr const char* kLeafLayer[] = {"simd.leaf.A", "simd.leaf.B",
                                      "simd.leaf.C", "simd.leaf.D"};

apps::RunOptions dag_options(int threads) {
  return {kBase, threads, apps::Runtime::Dag};
}

void copy_into(const Matrix<double>& from, Matrix<double>& to) {
  std::copy(from.data(), from.data() + from.size(), to.data());
}

// bench_common's random_dd_matrix and random_dist_matrix, written into an
// existing matrix. Setups after the first reuse its pages, so setup_s, the
// median setup, measures input generation and not the allocator's state:
// whether glibc maps fresh pages for a 32 MB matrix or reuses freed heap
// moved it by a factor of up to 8 between setups of one process.
void fill_dd(Matrix<double>& m, std::uint64_t seed) {
  SplitMix64 g(seed);
  const index_t n = m.rows();
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) m(i, j) = g.uniform(-1.0, 1.0);
    m(i, i) += static_cast<double>(n) + 2.0;
  }
}

void fill_dist(Matrix<double>& m, std::uint64_t seed) {
  SplitMix64 g(seed);
  const index_t n = m.rows();
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) m(i, j) = g.uniform(1.0, 100.0);
    m(i, i) = 0.0;
  }
}

// The DAG part of a solve as apps/ runs it (detail::with_dag_pool around
// an igep_*_dag driver), with spans around the pool, the graph build and
// the run. leaf(task, run_span) records its own spans under run_span.
template <class Leaf>
void traced_dag(Ledger& ledger, int parent, DagProblem prob, index_t n,
                int threads, Counts& counts, Leaf&& leaf,
                const TaskRuntimeOptions& ro = {}) {
  std::unique_ptr<WorkStealingPool> pool;
  const int workers = dag_workers(threads);
  {
    Scope s(&ledger, "parallel.pool", parent);
    obs::StatServer::start_from_env();
    if (workers > 1) pool = std::make_unique<WorkStealingPool>(workers);
  }
  TaskGraph g;
  {
    Scope s(&ledger, "parallel.graph_build", parent);
    g = build_typed_task_graph(prob, n, std::min(kBase, n));
  }
  {
    Scope run(&ledger, "parallel.run", parent);
    const int run_span = run.id();
    run_task_graph(g, pool.get(),
                   [&](const BlockTask& t) { leaf(t, run_span); }, ro);
  }
  {
    Scope s(&ledger, "parallel.pool", parent);
    pool.reset();
  }
  counts["parallel.workers"] = workers;
  counts["parallel.tasks"] = g.size();
  counts["parallel.edges"] = static_cast<double>(g.edge_count());
  counts["parallel.work_over_span"] = g.work() / g.span();
  // Two flops (multiply-add, or add-min) per update of the leaf's cost.
  for (int id = 0; id < g.size(); ++id) {
    const BlockTask& t = g.task(id);
    counts[std::string("flops.") + box_kind_char(t.kind)] += 2 * t.cost;
  }
}

// Times one leaf kernel call as a span under the run.
template <class Kernel>
void traced_leaf(Ledger& ledger, int run_span, BoxKind kind, Kernel&& kernel) {
  const double t0 = ledger.now();
  kernel();
  ledger.record(ledger.next_id(), run_span,
                kLeafLayer[static_cast<int>(kind)], t0, ledger.now());
}

// GEMM-bound D-kind leaves; n = 2000 is not a power of two, so every
// solve also pays the identity pad and the unpad copy.
class LuWorkload final : public Workload {
 public:
  explicit LuWorkload(int threads) : threads_(threads) {}

  std::string name() const override {
    return "lu_n2000_t" + std::to_string(threads_);
  }
  int threads() const override { return threads_; }
  double flops() const override { return bench::flops_lu(kN); }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    if (input_.size() == 0) {
      input_ = Matrix<double>(kN, kN);
      a_ = Matrix<double>(kN, kN);
    }
    fill_dd(input_, seed);
  }
  void prepare(Ledger*) override { copy_into(input_, a_); }
  void solve() override {
    apps::lu_decompose(a_, apps::Engine::IGep, dag_options(threads_));
  }

  // apps::lu_decompose: gemm scope, with_identity_padding, RowMajorStore,
  // with_dag_pool, igep_lu_dag.
  void solve_traced(Ledger& ledger, Counts& counts) override {
    Scope solve(&ledger, "solve");
    const apps::RunOptions opts = dag_options(threads_);
    simd::ScopedGemmOptions gemm_scope(opts.gemm);
    Matrix<double> p;
    {
      Scope s(&ledger, "layout.convert", solve.id());
      p = pad_to_pow2(a_, 0.0);
      for (index_t i = kN; i < p.rows(); ++i) p(i, i) = 1.0;
    }
    const index_t n = p.rows();
    const index_t bs = std::min(kBase, n);
    const RowMajorStore<double> st{p.data(), n, bs};
    {
      obs::WatchdogThreadSource wd_src("igep-lu-dag");
      traced_dag(ledger, solve.id(), DagProblem::LU, n, threads_, counts,
                 [&](const BlockTask& t, int run_span) {
                   double* x = st.tile(t.i0 / bs, t.j0 / bs);
                   const double* u = st.tile(t.i0 / bs, t.k0 / bs);
                   const double* v = st.tile(t.k0 / bs, t.j0 / bs);
                   const double* w = st.tile(t.k0 / bs, t.k0 / bs);
                   const bool di = t.kind == BoxKind::A || t.kind == BoxKind::B;
                   const bool dj = t.kind == BoxKind::A || t.kind == BoxKind::C;
                   traced_leaf(ledger, run_span, t.kind, [&] {
                     kernel_lu(x, u, v, w, t.m, n, n, n, n, di, dj);
                   });
                 });
    }
    Scope s(&ledger, "layout.convert", solve.id());
    a_ = unpad(p, kN, kN);
  }

  // 8 sampled rows, other ones after every solve, so that over a run the
  // checks reach most of the factors.
  bool check(bool perturb) override {
    // U(0,0) enters every row of L·U through L(i,0).
    if (perturb) a_(0, 0) += 1.0;
    return lu_residual_sample(input_, a_, 8, seed_ ^ ++checks_) <= 1e-12;
  }

 private:
  static constexpr index_t kN = 2000;
  int threads_;
  std::uint64_t seed_ = 0, checks_ = 0;
  Matrix<double> input_, a_;
};

// Min-plus leaves (no GEMM or Strassen path) behind the Z-Morton layout
// conversion; n is a power of two, so there is no pad.
class FwzWorkload final : public Workload {
 public:
  std::string name() const override { return "fwz_n2048_t4"; }
  int threads() const override { return kThreads; }
  double flops() const override { return bench::flops_fw(kN); }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    if (input_.size() == 0) {
      input_ = Matrix<double>(kN, kN);
      d_ = Matrix<double>(kN, kN);
    }
    fill_dist(input_, seed);
  }

  // In-core I-GEP on the row-major layout, which performs the same
  // updates in the same order and so must match bit for bit. It is
  // itself checked once: the rows of three seeded sources must match
  // dense O(n²) Dijkstra within 1e-12 relative.
  void reference() override {
    ref_ = input_;
    apps::floyd_warshall(ref_, apps::Engine::IGep, dag_options(kThreads));
    SplitMix64 rng(seed_);
    for (int r = 0; r < 3; ++r) {
      const index_t s = static_cast<index_t>(rng.below(kN));
      std::vector<double> dist(kN, std::numeric_limits<double>::infinity());
      std::vector<char> done(kN, 0);
      dist[s] = 0;
      for (index_t it = 0; it < kN; ++it) {
        index_t u = -1;
        for (index_t v = 0; v < kN; ++v)
          if (!done[v] && (u < 0 || dist[v] < dist[u])) u = v;
        done[u] = 1;
        for (index_t v = 0; v < kN; ++v)
          if (!done[v]) dist[v] = std::min(dist[v], dist[u] + input_(u, v));
      }
      for (index_t j = 0; j < kN; ++j) {
        const double want = dist[static_cast<std::size_t>(j)];
        if (std::fabs(ref_(s, j) - want) > 1e-12 * want)
          throw std::runtime_error("fwz reference disagrees with Dijkstra");
      }
    }
  }

  void prepare(Ledger*) override { copy_into(input_, d_); }
  void solve() override {
    apps::floyd_warshall(d_, apps::Engine::IGepZ, dag_options(kThreads));
  }

  // apps::floyd_warshall: ZBlocked load, with_dag_pool,
  // igep_floyd_warshall_dag over a ZStore, ZBlocked store.
  void solve_traced(Ledger& ledger, Counts& counts) override {
    Scope solve(&ledger, "solve");
    const index_t bs = std::min(kBase, kN);
    std::unique_ptr<ZBlocked<double>> z;
    {
      Scope s(&ledger, "layout.convert", solve.id());
      z = std::make_unique<ZBlocked<double>>(kN, bs);
      z->load(d_);
    }
    const ZStore<double> st{z.get()};
    {
      obs::WatchdogThreadSource wd_src("igep-fw-dag");
      traced_dag(ledger, solve.id(), DagProblem::FloydWarshall, kN, kThreads,
                 counts, [&](const BlockTask& t, int run_span) {
                   double* x = st.tile(t.i0 / bs, t.j0 / bs);
                   const double* u = st.tile(t.i0 / bs, t.k0 / bs);
                   const double* v = st.tile(t.k0 / bs, t.j0 / bs);
                   traced_leaf(ledger, run_span, t.kind, [&] {
                     kernel_fw(x, u, v, t.m, bs, bs, bs);
                   });
                 });
    }
    Scope s(&ledger, "layout.convert", solve.id());
    z->store(d_);
    z.reset();
  }

  bool check(bool perturb) override {
    if (perturb) d_(0, 1) += 1.0;
    return std::memcmp(d_.data(), ref_.data(), d_.size() * sizeof(double)) ==
           0;
  }

 private:
  static constexpr index_t kN = 2048;
  static constexpr int kThreads = 4;
  std::uint64_t seed_ = 0;
  Matrix<double> input_, d_, ref_;
};

// Out-of-core FW: a quarter of the matrix fits the page cache, so most
// of a solve is page transfers and the waits the prefetcher cannot hide.
class FwOocWorkload final : public Workload {
 public:
  std::string name() const override { return "fw_ooc_n1024_t4"; }
  int threads() const override { return kThreads; }
  double flops() const override { return bench::flops_fw(kN); }

  void setup(std::uint64_t seed) override {
    m_.reset();
    cache_.reset();
    if (input_.size() == 0) input_ = Matrix<double>(kN, kN);
    fill_dist(input_, seed);
    DiskModel disk;
    disk.realize_fraction = kRealize;
    cache_ = std::make_unique<PageCache>(kMem, kPage, disk);
    m_ = std::make_unique<OocTiledMatrix<double>>(*cache_, kN, kN, kTile);
    m_->load(input_);
    cache_->flush();
  }

  void reference() override {
    ref_ = input_;
    apps::floyd_warshall(ref_, apps::Engine::IGep, dag_options(kThreads));
  }

  // load() goes through the single-threaded pin(), which the async I/O
  // worker must not run beside; the worker is on only during a solve.
  void prepare(Ledger* ledger) override {
    cache_->disable_async_io();
    {
      Scope s(ledger, "layout.convert");
      m_->load(input_);
    }
    cache_->reset_stats();
    cache_->enable_async_io();
  }

  // Sized as traced_dag sizes it; one worker runs on the calling thread.
  void solve() override {
    std::unique_ptr<WorkStealingPool> pool;
    if (dag_workers(kThreads) > 1)
      pool = std::make_unique<WorkStealingPool>(dag_workers(kThreads));
    ooc_igep_floyd_warshall_dag(*m_, pool.get(), kDagOptions);
  }

  // ooc_igep_floyd_warshall_dag with its caller's pool, split into the
  // graph build, the prefetch hook and the run; each leaf's three pins
  // are one extmem.pin span.
  void solve_traced(Ledger& ledger, Counts& counts) override {
    Scope solve(&ledger, "solve");
    obs::WatchdogThreadSource wd_src("ooc-fw-dag");
    OocTiledMatrix<double>& m = *m_;
    detail::PrefetchDeduper dedupe;
    TaskRuntimeOptions ro;
    ro.lookahead = kDagOptions.lookahead;
    ro.prefetch = [&m, &dedupe](const BlockTask& t) {
      const index_t bi = t.i0 / kTile, bj = t.j0 / kTile, bk = t.k0 / kTile;
      if (dedupe.should_hint(0, bi, bj)) m.prefetch_tile(bi, bj);
      if (dedupe.should_hint(0, bi, bk)) m.prefetch_tile(bi, bk);
      if (dedupe.should_hint(0, bk, bj)) m.prefetch_tile(bk, bj);
    };
    traced_dag(
        ledger, solve.id(), DagProblem::FloydWarshall, kN, kThreads, counts,
        [&](const BlockTask& t, int run_span) {
          obs::throw_if_stop_requested();
          const double t0 = ledger.now();
          auto x = m.pin_tile(t.i0 / kTile, t.j0 / kTile, /*for_write=*/true);
          auto u = m.pin_tile(t.i0 / kTile, t.k0 / kTile, /*for_write=*/false);
          auto v = m.pin_tile(t.k0 / kTile, t.j0 / kTile, /*for_write=*/false);
          ledger.record(ledger.next_id(), run_span, "extmem.pin", t0,
                        ledger.now());
          traced_leaf(ledger, run_span, t.kind, [&] {
            kernel_fw(x.ptr, u.ptr, v.ptr, t.m, kTile, kTile, kTile);
          });
        },
        ro);
    const PageCacheStats s = cache_->stats();
    counts["extmem.page_ins"] = static_cast<double>(s.page_ins);
    counts["extmem.page_outs"] = static_cast<double>(s.page_outs);
    counts["extmem.hit_rate"] =
        s.pins > 0 ? static_cast<double>(s.hits) / static_cast<double>(s.pins)
                   : 0.0;
    counts["extmem.prefetch_issued"] = static_cast<double>(s.prefetch_issued);
    counts["extmem.prefetch_hit_rate"] = s.prefetch_hit_rate();
    counts["extmem.io_wait_fg_s"] =
        s.io_wait_foreground_seconds() * kRealize;
    counts["extmem.io_ratio"] = obs::io_bound_ratio(
        s.io(), obs::igep_io_prediction(kN, kMem, kPage));
  }

  // Tile by tile through the cache: a whole-matrix copy per check would
  // fragment the heap between the setups and make peak_rss_mb wander.
  bool check(bool perturb) override {
    cache_->disable_async_io();
    if (perturb) m_->pin_tile(0, 0, /*for_write=*/true).ptr[1] += 1.0;
    for (index_t ti = 0; ti < kN / kTile; ++ti)
      for (index_t tj = 0; tj < kN / kTile; ++tj) {
        const auto t = m_->pin_tile(ti, tj, /*for_write=*/false);
        for (index_t r = 0; r < kTile; ++r)
          if (std::memcmp(t.ptr + r * kTile, &ref_(ti * kTile + r, tj * kTile),
                          kTile * sizeof(double)) != 0)
            return false;
      }
    return true;
  }

 private:
  static constexpr index_t kN = 1024;
  static constexpr index_t kTile = 64;
  static constexpr int kThreads = 4;
  static constexpr std::uint64_t kPage = 32 * 1024;       // B: one tile
  static constexpr std::uint64_t kMem = kN * kN * 8 / 4;  // M: 64 frames
  static constexpr double kRealize = 0.01;
  static constexpr OocDagOptions kDagOptions{.lookahead = 4, .prefetch = true};
  Matrix<double> input_, ref_;
  std::unique_ptr<PageCache> cache_;
  std::unique_ptr<OocTiledMatrix<double>> m_;
};

}  // namespace

int dag_workers(int threads) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(threads, static_cast<int>(hw));
}

std::vector<std::unique_ptr<Workload>> make_workloads() {
  std::vector<std::unique_ptr<Workload>> all;
  all.push_back(std::make_unique<LuWorkload>(4));
  all.push_back(std::make_unique<LuWorkload>(1));
  all.push_back(std::make_unique<FwzWorkload>());
  all.push_back(std::make_unique<FwOocWorkload>());
  return all;
}

}  // namespace gep::e2e
