// End-to-end application tests: every engine on every problem agrees
// with independent references (Dijkstra for APSP, L*U reconstruction for
// LU, naive products for MM), including non-power-of-two sizes and
// multithreaded runs.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "parallel/task_graph.hpp"
#include "util/prng.hpp"

namespace gep {
namespace {

using apps::Engine;
using apps::kInfDist;

Matrix<double> random_graph(index_t n, std::uint64_t seed, double density) {
  SplitMix64 g(seed);
  Matrix<double> d(n, n, kInfDist);
  for (index_t i = 0; i < n; ++i) {
    d(i, i) = 0.0;
    for (index_t j = 0; j < n; ++j) {
      if (i != j && g.chance(density)) d(i, j) = g.uniform(1.0, 10.0);
    }
  }
  return d;
}

// Dijkstra from every source: independent APSP reference.
Matrix<double> dijkstra_apsp(const Matrix<double>& w) {
  const index_t n = w.rows();
  Matrix<double> dist(n, n, kInfDist);
  for (index_t s = 0; s < n; ++s) {
    std::priority_queue<std::pair<double, index_t>,
                        std::vector<std::pair<double, index_t>>,
                        std::greater<>>
        pq;
    dist(s, s) = 0;
    pq.push({0.0, s});
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist(s, u)) continue;
      for (index_t v = 0; v < n; ++v) {
        if (w(u, v) >= kInfDist) continue;
        double nd = d + w(u, v);
        if (nd < dist(s, v)) {
          dist(s, v) = nd;
          pq.push({nd, v});
        }
      }
    }
  }
  return dist;
}

const Engine kFwEngines[] = {Engine::Iterative, Engine::IGep, Engine::IGepZ,
                             Engine::CGep, Engine::CGepCompact,
                             Engine::Blocked};

class FwAllEngines : public ::testing::TestWithParam<index_t> {};

TEST_P(FwAllEngines, MatchesDijkstra) {
  const index_t n = GetParam();
  Matrix<double> w = random_graph(n, 100 + static_cast<unsigned>(n), 0.25);
  Matrix<double> ref = dijkstra_apsp(w);
  for (Engine e : kFwEngines) {
    Matrix<double> d = w;
    apps::floyd_warshall(d, e, {16, 1});
    // FW leaves kInfDist-ish values where unreachable; compare reachable
    // cells exactly and unreachable cells as >= kInfDist/2.
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < n; ++j) {
        if (ref(i, j) < kInfDist / 2) {
          EXPECT_NEAR(d(i, j), ref(i, j), 1e-9)
              << apps::engine_name(e) << " n=" << n << " @" << i << "," << j;
        } else {
          EXPECT_GE(d(i, j), kInfDist / 2) << apps::engine_name(e);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FwAllEngines,
                         ::testing::Values(1, 2, 5, 16, 23, 32, 50, 64));

Matrix<double> random_dd(index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) m(i, j) = g.uniform(-1.0, 1.0);
    m(i, i) += static_cast<double>(n) + 2.0;
  }
  return m;
}

class LuAllEngines : public ::testing::TestWithParam<index_t> {};

TEST_P(LuAllEngines, ReconstructsA) {
  const index_t n = GetParam();
  Matrix<double> a = random_dd(n, 200 + static_cast<unsigned>(n));
  for (Engine e : {Engine::Iterative, Engine::IGep, Engine::IGepZ,
                   Engine::CGep, Engine::CGepCompact, Engine::Blocked}) {
    Matrix<double> lu = a;
    apps::lu_decompose(lu, e, {16, 1});
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < n; ++j) {
        double sum = 0;
        for (index_t k = 0; k <= std::min(i, j); ++k) {
          sum += ((k == i) ? 1.0 : lu(i, k)) * lu(k, j);
        }
        ASSERT_NEAR(sum, a(i, j), 1e-8)
            << apps::engine_name(e) << " n=" << n << " @" << i << "," << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuAllEngines,
                         ::testing::Values(1, 3, 8, 20, 32, 47, 64));

TEST(GaussianEngines, UpperTrianglesAgree) {
  const index_t n = 48;  // deliberately not a power of two
  Matrix<double> a = random_dd(n, 7);
  Matrix<double> ref = a;
  apps::gaussian_eliminate(ref, Engine::Iterative);
  for (Engine e : {Engine::IGep, Engine::IGepZ, Engine::CGep,
                   Engine::CGepCompact, Engine::Blocked}) {
    Matrix<double> g = a;
    apps::gaussian_eliminate(g, e, {8, 1});
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = i; j < n; ++j) {
        ASSERT_NEAR(g(i, j), ref(i, j), 1e-8)
            << apps::engine_name(e) << " @" << i << "," << j;
      }
    }
  }
}

class MmAllEngines : public ::testing::TestWithParam<index_t> {};

TEST_P(MmAllEngines, MatchesNaive) {
  const index_t n = GetParam();
  SplitMix64 g(300 + static_cast<unsigned>(n));
  Matrix<double> a(n, n), b(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = g.uniform(-1, 1);
      b(i, j) = g.uniform(-1, 1);
    }
  Matrix<double> ref(n, n, 0.0);
  for (index_t i = 0; i < n; ++i)
    for (index_t k = 0; k < n; ++k) {
      const double aik = a(i, k);
      for (index_t j = 0; j < n; ++j) ref(i, j) += aik * b(k, j);
    }
  for (Engine e : {Engine::Iterative, Engine::IGep, Engine::IGepZ,
                   Engine::Blocked}) {
    Matrix<double> c(n, n, 0.0);
    apps::multiply_add(c, a, b, e, {16, 1});
    EXPECT_LT(max_abs_diff(ref, c), 1e-10)
        << apps::engine_name(e) << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MmAllEngines,
                         ::testing::Values(1, 2, 9, 16, 31, 64, 65));

TEST(MultiThreadedApps, MatchSingleThreaded) {
  const index_t n = 64;
  Matrix<double> w = random_graph(n, 9, 0.3);
  Matrix<double> seq = w, par = w;
  apps::floyd_warshall(seq, Engine::IGep, {8, 1});
  apps::floyd_warshall(par, Engine::IGep, {8, 4});
  EXPECT_TRUE(approx_equal(seq, par, 0.0));

  Matrix<double> a = random_dd(n, 10);
  Matrix<double> lseq = a, lpar = a;
  apps::lu_decompose(lseq, Engine::IGep, {8, 1});
  apps::lu_decompose(lpar, Engine::IGep, {8, 4});
  EXPECT_TRUE(approx_equal(lseq, lpar, 0.0));

  Matrix<double> b = random_dd(n, 11);
  Matrix<double> c1(n, n, 0.0), c2(n, n, 0.0);
  apps::multiply_add(c1, a, b, Engine::IGep, {8, 1});
  apps::multiply_add(c2, a, b, Engine::IGep, {8, 4});
  EXPECT_TRUE(approx_equal(c1, c2, 0.0));
}

// --- padding-free I-GEP ----------------------------------------------------
//
// Engine::IGep runs any n in place, pruning the boxes past n and
// clipping the edge leaves. Every app's output must be memcmp-equal to
// the explicit padded run it replaces: pad_to_pow2 with the problem's
// Σ-neutral fill and diagonal, the same typed driver (either schedule,
// on 4 workers) at the next power of two, unpad. Every thread count
// must give those bytes.

using Bytes = std::vector<unsigned char>;

template <class T>
void append(Bytes& out, const Matrix<T>& m) {
  const auto* p = reinterpret_cast<const unsigned char*>(m.data());
  out.insert(out.end(), p, p + m.size() * static_cast<index_t>(sizeof(T)));
}

template <class T>
Matrix<T> padded(const Matrix<T>& a, T fill, T diag) {
  Matrix<T> p = pad_to_pow2(a, fill);
  for (index_t i = a.rows(); i < p.rows(); ++i) p(i, i) = diag;
  return p;
}

constexpr index_t kPadBase = 64;

// Calls driver(pool, options) under `rt` on 4 workers, on stores of an
// N x N padded problem.
template <class Driver>
void run_padded(Runtime rt, Driver&& driver) {
  WorkStealingPool pool(4);
  driver(&pool, TypedOptions{kPadBase, rt});
}

template <class T>
RowMajorStore<T> store_of(Matrix<T>& m) {
  return {m.data(), m.rows(), std::min(kPadBase, m.rows())};
}

Matrix<double> dd_input(index_t n) { return random_dd(n, 900 + n); }

Matrix<double> cap_input(index_t n) {
  SplitMix64 g(1100 + static_cast<std::uint64_t>(n));
  Matrix<double> c(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j)
      c(i, j) = g.chance(0.3) ? std::floor(g.uniform(1.0, 50.0)) : 0.0;
  return c;
}

Matrix<std::uint8_t> reach_input(index_t n) {
  SplitMix64 g(1200 + static_cast<std::uint64_t>(n));
  Matrix<std::uint8_t> r(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) r(i, j) = g.chance(2.0 / n) ? 1 : 0;
    r(i, i) = 1;
  }
  return r;
}

// One app: its IGep entry point on the seeded n x n input, and the
// padded reference.
struct PaddingFreeApp {
  const char* name;
  Bytes (*run)(index_t n, const apps::RunOptions& opts);
  Bytes (*padded)(index_t n, Runtime rt);
  bool at_2000;  // also n = 2000 on the DAG at 4 threads
};

// Print the app by name: gtest would otherwise dump the struct's bytes,
// pointers included, into the listed (and ctest-discovered) test name,
// which then changes with every build and every load address.
void PrintTo(const PaddingFreeApp& app, std::ostream* os) { *os << app.name; }

const PaddingFreeApp kPaddingFreeApps[] = {
    {"ge",
     [](index_t n, const apps::RunOptions& o) {
       Matrix<double> a = dd_input(n);
       apps::gaussian_eliminate(a, Engine::IGep, o);
       Bytes b;
       append(b, a);
       return b;
     },
     [](index_t n, Runtime rt) {
       Matrix<double> p = padded(dd_input(n), 0.0, 1.0);
       const auto st = store_of(p);
       run_padded(rt, [&](WorkStealingPool* pool, TypedOptions t) {
         igep_gaussian(pool, st, p.rows(), t);
       });
       Bytes b;
       append(b, unpad(p, n, n));
       return b;
     },
     false},
    {"lu",
     [](index_t n, const apps::RunOptions& o) {
       Matrix<double> a = dd_input(n);
       apps::lu_decompose(a, Engine::IGep, o);
       Bytes b;
       append(b, a);
       return b;
     },
     [](index_t n, Runtime rt) {
       Matrix<double> p = padded(dd_input(n), 0.0, 1.0);
       const auto st = store_of(p);
       run_padded(rt, [&](WorkStealingPool* pool, TypedOptions t) {
         igep_lu(pool, st, p.rows(), t);
       });
       Bytes b;
       append(b, unpad(p, n, n));
       return b;
     },
     true},
    {"fw",
     [](index_t n, const apps::RunOptions& o) {
       Matrix<double> d = random_graph(n, 1000 + n, 0.25);
       apps::floyd_warshall(d, Engine::IGep, o);
       Bytes b;
       append(b, d);
       return b;
     },
     [](index_t n, Runtime rt) {
       Matrix<double> p = padded(random_graph(n, 1000 + n, 0.25), kInfDist,
                                 0.0);
       const auto st = store_of(p);
       run_padded(rt, [&](WorkStealingPool* pool, TypedOptions t) {
         igep_floyd_warshall(pool, st, p.rows(), t);
       });
       Bytes b;
       append(b, unpad(p, n, n));
       return b;
     },
     true},
    {"fw_paths",
     [](index_t n, const apps::RunOptions& o) {
       Matrix<double> d = random_graph(n, 1300 + n, 0.25);
       Matrix<std::int32_t> succ;
       apps::floyd_warshall_paths(d, succ, Engine::IGep, o);
       Bytes b;
       append(b, d);
       append(b, succ);
       return b;
     },
     [](index_t n, Runtime rt) {
       const Matrix<double> d = random_graph(n, 1300 + n, 0.25);
       Matrix<std::int32_t> succ(n, n, std::int32_t{-1});
       for (index_t i = 0; i < n; ++i)
         for (index_t j = 0; j < n; ++j)
           if (i != j && d(i, j) < kInfDist / 2) succ(i, j) = j;
       Matrix<double> dp = padded(d, kInfDist, 0.0);
       Matrix<std::int32_t> sp =
           padded(succ, std::int32_t{-1}, std::int32_t{-1});
       run_padded(rt, [&](WorkStealingPool* pool, TypedOptions t) {
         igep_floyd_warshall_paths(pool, store_of(dp), store_of(sp), dp.rows(),
                                   t);
       });
       Bytes b;
       append(b, unpad(dp, n, n));
       append(b, unpad(sp, n, n));
       return b;
     },
     false},
    {"bottleneck",
     [](index_t n, const apps::RunOptions& o) {
       Matrix<double> c = cap_input(n);
       apps::bottleneck_paths(c, Engine::IGep, o);
       Bytes b;
       append(b, c);
       return b;
     },
     [](index_t n, Runtime rt) {
       const double inf = std::numeric_limits<double>::infinity();
       Matrix<double> c = cap_input(n);
       for (index_t i = 0; i < n; ++i) c(i, i) = inf;
       Matrix<double> p = padded(c, 0.0, inf);
       const auto st = store_of(p);
       run_padded(rt, [&](WorkStealingPool* pool, TypedOptions t) {
         igep_bottleneck(pool, st, p.rows(), t);
       });
       Bytes b;
       append(b, unpad(p, n, n));
       return b;
     },
     false},
    {"tc",
     [](index_t n, const apps::RunOptions& o) {
       Matrix<std::uint8_t> r = reach_input(n);
       apps::transitive_closure(r, Engine::IGep, o);
       Bytes b;
       append(b, r);
       return b;
     },
     [](index_t n, Runtime rt) {
       Matrix<std::uint8_t> p =
           padded(reach_input(n), std::uint8_t{0}, std::uint8_t{0});
       const auto st = store_of(p);
       run_padded(rt, [&](WorkStealingPool* pool, TypedOptions t) {
         igep_transitive_closure(pool, st, p.rows(), t);
       });
       Bytes b;
       append(b, unpad(p, n, n));
       return b;
     },
     false},
    {"mm",
     [](index_t n, const apps::RunOptions& o) {
       Matrix<double> c = random_dd(n, 1400 + n);
       apps::multiply_add(c, random_dd(n, 1500 + n), random_dd(n, 1600 + n),
                          Engine::IGep, o);
       Bytes b;
       append(b, c);
       return b;
     },
     [](index_t n, Runtime rt) {
       Matrix<double> cp = padded(random_dd(n, 1400 + n), 0.0, 0.0);
       Matrix<double> ap = padded(random_dd(n, 1500 + n), 0.0, 0.0);
       Matrix<double> bp = padded(random_dd(n, 1600 + n), 0.0, 0.0);
       const auto cst = store_of(cp);
       const RowMajorStore<const double> ast{ap.data(), ap.rows(),
                                             store_of(ap).bs};
       const RowMajorStore<const double> bst{bp.data(), bp.rows(),
                                             store_of(bp).bs};
       run_padded(rt, [&](WorkStealingPool* pool, TypedOptions t) {
         igep_matmul(pool, cst, ast, bst, cp.rows(), t);
       });
       Bytes b;
       append(b, unpad(cp, n, n));
       return b;
     },
     false},
};

class PaddingFree : public ::testing::TestWithParam<PaddingFreeApp> {};

TEST_P(PaddingFree, BitIdenticalToPaddedRun) {
  const PaddingFreeApp& app = GetParam();
  for (index_t n : {1, 63, 65, 1000}) {
    for (Runtime rt : {Runtime::ForkJoin, Runtime::Dag}) {
      const bool dag = rt == Runtime::Dag;
      const Bytes want = app.padded(n, rt);
      for (int threads : {1, 4}) {
        EXPECT_TRUE(app.run(n, {kPadBase, threads, rt}) == want)
            << app.name << " n=" << n << " threads=" << threads
            << (dag ? " dag" : " fork-join");
      }
    }
  }
  if (app.at_2000) {
    EXPECT_TRUE(app.run(2000, {kPadBase, 4, apps::Runtime::Dag}) ==
                app.padded(2000, Runtime::Dag))
        << app.name << " n=2000 dag threads=4";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Apps, PaddingFree, ::testing::ValuesIn(kPaddingFreeApps),
    [](const ::testing::TestParamInfo<PaddingFreeApp>& info) {
      return std::string(info.param.name);
    });

TEST(AppGuards, RejectInvalidInputs) {
  Matrix<double> rect(4, 6, 0.0);
  EXPECT_THROW(apps::floyd_warshall(rect, Engine::IGep), std::invalid_argument);
  EXPECT_THROW(apps::lu_decompose(rect, Engine::IGep), std::invalid_argument);
  Matrix<double> c(4, 4, 0.0), a(4, 4, 0.0), b(6, 6, 0.0);
  EXPECT_THROW(apps::multiply_add(c, a, b, Engine::IGep),
               std::invalid_argument);
  EXPECT_THROW(apps::multiply_add(c, a, a, Engine::CGep),
               std::invalid_argument);
}

TEST(EngineNames, AllDistinct) {
  std::set<std::string> names;
  for (Engine e : {Engine::Iterative, Engine::IGep, Engine::IGepZ,
                   Engine::CGep, Engine::CGepCompact, Engine::Blocked}) {
    names.insert(apps::engine_name(e));
  }
  EXPECT_EQ(names.size(), 6u);
}

}  // namespace
}  // namespace gep
