// gep_tool — command-line front end to the GEP library.
//
//   gep_tool apsp   [--n N | --in FILE] [--engine E] [--base B] [--threads T]
//   gep_tool lu     [--n N | --in FILE] [--engine E] ...
//   gep_tool mm     [--n N] [--engine E] ...
//   gep_tool tc     [--n N] [--engine E] ...
//   gep_tool solve  [--n N] [--engine E] ...
//   gep_tool bench  [--n N] [--engine E] ...     (times every engine)
//
// Engines: iter, igep, igepz, cgep, cgepc, blocked.
// Matrix files: first line "rows cols", then rows x cols numbers;
// results are written to --out FILE when given. Random inputs are
// deterministic per --seed.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "apps/apps.hpp"
#include "apps/linear_solver.hpp"
#include "util/matrix_io.hpp"
#include "util/prng.hpp"
#include "util/timer.hpp"

using namespace gep;

namespace {

struct Args {
  std::string cmd;
  index_t n = 512;
  std::string in, out;
  std::string engine = "igep";
  index_t base = 64;
  int threads = 1;
  std::uint64_t seed = 1;
};

std::optional<apps::Engine> parse_engine(const std::string& e) {
  if (e == "iter") return apps::Engine::Iterative;
  if (e == "igep") return apps::Engine::IGep;
  if (e == "igepz") return apps::Engine::IGepZ;
  if (e == "cgep") return apps::Engine::CGep;
  if (e == "cgepc") return apps::Engine::CGepCompact;
  if (e == "blocked") return apps::Engine::Blocked;
  return std::nullopt;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: gep_tool <apsp|lu|mm|tc|solve|bench> [options]\n"
      "  --n N         random instance size (default 512)\n"
      "  --in FILE     read the input matrix instead\n"
      "  --out FILE    write the result matrix\n"
      "  --engine E    iter|igep|igepz|cgep|cgepc|blocked (default igep)\n"
      "  --base B      base-case size (default 64)\n"
      "  --threads T   worker threads (default 1)\n"
      "  --seed S      RNG seed for random instances (default 1)\n");
}

std::optional<Args> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args a;
  a.cmd = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--n") a.n = std::stoll(v);
    else if (k == "--in") a.in = v;
    else if (k == "--out") a.out = v;
    else if (k == "--engine") a.engine = v;
    else if (k == "--base") a.base = std::stoll(v);
    else if (k == "--threads") a.threads = std::stoi(v);
    else if (k == "--seed") a.seed = std::stoull(v);
    else return std::nullopt;
  }
  return a;
}

Matrix<double> random_graph(index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  Matrix<double> d(n, n, apps::kInfDist);
  for (index_t i = 0; i < n; ++i) {
    d(i, i) = 0;
    for (index_t j = 0; j < n; ++j)
      if (i != j && g.chance(0.3)) d(i, j) = g.uniform(1.0, 100.0);
  }
  return d;
}

Matrix<double> random_dd(index_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  Matrix<double> m(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) m(i, j) = g.uniform(-1.0, 1.0);
    m(i, i) += static_cast<double>(n) + 2.0;
  }
  return m;
}

int run_one(const Args& a, apps::Engine e, bool quiet) {
  apps::RunOptions opts{a.base, a.threads};
  Matrix<double> m(1, 1);
  if (!a.in.empty()) {
    auto r = read_matrix_file(a.in);
    if (!r) {
      std::fprintf(stderr, "gep_tool: cannot read %s\n", a.in.c_str());
      return 2;
    }
    m = std::move(*r);
  } else if (a.cmd == "apsp") {
    m = random_graph(a.n, a.seed);
  } else {
    m = random_dd(a.n, a.seed);
  }

  WallTimer t;
  double checksum = 0;
  if (a.cmd == "apsp") {
    apps::floyd_warshall(m, e, opts);
    checksum = m(0, m.cols() - 1);
  } else if (a.cmd == "lu") {
    apps::lu_decompose(m, e, opts);
    checksum = m(m.rows() - 1, m.cols() - 1);
  } else if (a.cmd == "mm") {
    Matrix<double> b = random_dd(m.rows(), a.seed + 1);
    Matrix<double> c(m.rows(), m.cols(), 0.0);
    apps::multiply_add(c, m, b, e, opts);
    checksum = c(0, 0);
    m = std::move(c);
  } else if (a.cmd == "tc") {
    SplitMix64 g(a.seed);
    Matrix<std::uint8_t> r(a.n, a.n, std::uint8_t{0});
    for (index_t i = 0; i < a.n; ++i) {
      r(i, i) = 1;
      for (index_t j = 0; j < a.n; ++j)
        if (i != j && g.chance(0.05)) r(i, j) = 1;
    }
    apps::transitive_closure(r, e, opts);
    long reach = 0;
    for (index_t i = 0; i < a.n; ++i)
      for (index_t j = 0; j < a.n; ++j) reach += (r(i, j) != 0);
    std::printf("%s/%s: n=%lld  reachable pairs=%ld  %.3f s\n", a.cmd.c_str(),
                apps::engine_name(e).c_str(), static_cast<long long>(a.n),
                reach, t.seconds());
    return 0;
  } else if (a.cmd == "solve") {
    std::vector<double> b(static_cast<std::size_t>(m.rows()), 1.0);
    auto x = apps::solve(m, b, e, opts);
    std::printf("%s/%s: n=%lld  residual=%.2e  %.3f s\n", a.cmd.c_str(),
                apps::engine_name(e).c_str(),
                static_cast<long long>(m.rows()),
                apps::residual_inf(m, x, b), t.seconds());
    return 0;
  } else {
    return 2;
  }
  if (!quiet) {
    std::printf("%s/%s: n=%lld  checksum=%.6g  %.3f s\n", a.cmd.c_str(),
                apps::engine_name(e).c_str(), static_cast<long long>(m.rows()),
                checksum, t.seconds());
  }
  if (!a.out.empty()) write_matrix_file(a.out, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = parse(argc, argv);
  if (!parsed) {
    usage();
    return 2;
  }
  Args a = *parsed;
  if (a.cmd == "bench") {
    // Time every engine on the same instance.
    for (const char* e : {"iter", "igep", "igepz", "cgep", "cgepc",
                          "blocked"}) {
      Args one = a;
      one.cmd = "lu";
      auto eng = parse_engine(e);
      if (run_one(one, *eng, false) != 0) return 1;
    }
    return 0;
  }
  auto eng = parse_engine(a.engine);
  if (!eng) {
    usage();
    return 2;
  }
  return run_one(a, *eng, false);
}
