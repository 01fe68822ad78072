#pragma once
// In-memory span recorder for the traced benchmark run.
//
// A span covers one call from the benchmark into a layer of the library.
// Its name is "<layer>.<what>" (layer: tensor, nn, core, serving, swipe, or
// bench for the harness's own callbacks); spans carry a start and end time,
// the span that was open on the same thread when it began (its parent) and
// a request id shared by every span of one forecast request. Recording is
// off by default and then costs one relaxed atomic load per scope.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root span on its thread
  std::uint64_t request = 0;  ///< 0 = not tied to a forecast request
};

/// Turns recording on or off for every thread.
void set_tracing(bool on);
bool tracing();

/// Nanoseconds on the steady clock since process start.
std::int64_t now_ns();

/// Records one span from construction to destruction, on the calling
/// thread, when tracing is on. `name` must be a string literal.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t request = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Span span_;
  bool active_ = false;
};

/// Every span recorded so far, from all threads. Call once the recording
/// threads have finished.
std::vector<Span> collect_spans();
/// Drops every recorded span.
void clear_spans();

/// Self time (ms) per layer: each span's duration minus the time its child
/// spans cover, summed over the spans whose name starts with "<layer>.".
std::map<std::string, double> self_ms_by_layer(const std::vector<Span>& spans);

/// Writes spans and per-layer self times as JSON to `path` (parent
/// directories are created). Returns false when the file cannot be written.
bool write_trace(const std::string& path, const std::vector<Span>& spans,
                 const std::string& machine_json);

}  // namespace perfbench
