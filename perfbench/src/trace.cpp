#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};

// One buffer per recording thread; the registry keeps them alive after
// their thread exits so spans can be collected at the end of the run.
struct Buffer {
  std::mutex mu;
  std::vector<Span> spans;
};
std::mutex g_registry_mu;
std::vector<std::shared_ptr<Buffer>> g_registry;

struct ThreadState {
  std::shared_ptr<Buffer> buffer;
  std::uint64_t open = 0;  // innermost open span on this thread
};

ThreadState& thread_state() {
  thread_local ThreadState ts;
  if (!ts.buffer) {
    ts.buffer = std::make_shared<Buffer>();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(ts.buffer);
  }
  return ts;
}

const auto g_epoch = std::chrono::steady_clock::now();

std::string layer_of(const char* name) {
  std::string s(name);
  const auto dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace

void set_tracing(bool on) { g_on.store(on, std::memory_order_relaxed); }
bool tracing() { return g_on.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

Scope::Scope(const char* name, std::uint64_t request) {
  if (!tracing()) return;
  ThreadState& ts = thread_state();
  active_ = true;
  span_.name = name;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = ts.open;
  span_.request = request;
  ts.open = span_.id;
  span_.start_ns = now_ns();
}

Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  ThreadState& ts = thread_state();
  ts.open = span_.parent;
  std::lock_guard<std::mutex> lock(ts.buffer->mu);
  ts.buffer->spans.push_back(span_);
}

std::vector<Span> collect_spans() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& b : g_registry) {
    std::lock_guard<std::mutex> block(b->mu);
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

void clear_spans() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& b : g_registry) {
    std::lock_guard<std::mutex> block(b->mu);
    b->spans.clear();
  }
}

std::map<std::string, double> self_ms_by_layer(const std::vector<Span>& spans) {
  // Children nest inside their parent on the parent's thread, so the
  // covered part of a parent is the sum of its children's durations.
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    std::int64_t self = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    if (it != child_ns.end()) self -= it->second;
    out[layer_of(s.name)] += static_cast<double>(self) * 1e-6;
  }
  return out;
}

bool write_trace(const std::string& path, const std::vector<Span>& spans,
                 const std::string& machine_json) {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"machine\": " << machine_json << ",\n\"self_ms\": {";
  bool first = true;
  for (const auto& [layer, ms] : self_ms_by_layer(spans)) {
    f << (first ? "" : ", ") << '"' << layer << "\": " << ms;
    first = false;
  }
  f << "},\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
      << ", \"end_ns\": " << s.end_ns << ", \"id\": " << s.id
      << ", \"parent\": " << s.parent << ", \"request\": " << s.request << '}'
      << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
