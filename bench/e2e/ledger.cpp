#include "ledger.hpp"

#include <algorithm>
#include <fstream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/json.hpp"

namespace gep::e2e {

Ledger::Buffer& Ledger::local() {
  // A buffer from an earlier generation was handed out by take(); its
  // thread (if still alive) starts a new one.
  static thread_local Buffer* buffer = nullptr;
  static thread_local unsigned generation = 0;
  const unsigned gen = generation_.load(std::memory_order_acquire);
  if (buffer == nullptr || generation != gen) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->tid = static_cast<int>(buffers_.size()) - 1;
    generation = gen;
  }
  return *buffer;
}

void Ledger::record(int id, int parent, const char* layer, double t0,
                    double t1) {
  Buffer& b = local();
  b.spans.push_back(Span{id, parent, layer, t0, t1,
                         solve_.load(std::memory_order_relaxed), b.tid});
}

std::vector<Span> Ledger::take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_)
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  buffers_.clear();
  generation_.fetch_add(1, std::memory_order_release);
  return out;
}

SolveLedger analyze(const std::vector<Span>& spans) {
  std::unordered_map<int, std::vector<const Span*>> children;
  for (const Span& s : spans)
    if (s.parent >= 0) children[s.parent].push_back(&s);
  SolveLedger out;
  std::vector<std::pair<double, double>> iv;
  for (const Span& s : spans) {
    // Union of the children's intervals, clipped to this span: children
    // on several workers overlap, and only the uncovered rest is self.
    double covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      iv.clear();
      for (const Span* c : it->second)
        iv.emplace_back(std::max(c->t0, s.t0), std::min(c->t1, s.t1));
      std::sort(iv.begin(), iv.end());
      double end = s.t0;
      for (auto [a, b] : iv) {
        a = std::max(a, end);
        if (b > a) {
          covered += b - a;
          end = b;
        }
      }
    }
    const double dur = s.t1 - s.t0;
    LayerTotals& lt = out.layers[s.layer];
    lt.calls += 1;
    lt.total += dur;
    lt.self += dur - covered;
    if (std::string_view(s.layer) == "solve") {
      out.solve_s = dur;
      out.covered = covered;
    }
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::ofstream os(path);
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const Span& s : spans) {
    w.begin_object();
    w.kv("name", s.layer);
    w.kv("ph", "X");
    w.kv("ts", s.t0 * 1e6);
    w.kv("dur", (s.t1 - s.t0) * 1e6);
    w.kv("pid", 1);
    w.kv("tid", s.tid);
    w.key("args");
    w.begin_object();
    w.kv("solve", s.solve);
    w.kv("span", s.id);
    w.kv("parent", s.parent);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  os << '\n';
  return static_cast<bool>(os);
}

}  // namespace gep::e2e
