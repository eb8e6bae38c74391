// Spans recorded by the benchmark around its calls into each layer.
//
// A span is a named interval on the benchmark's main thread, tagged
// with the layer it calls into and the span that was open when it
// began (its parent).  Requests of the serving phases overlap in time,
// so they are added afterwards as asynchronous spans with their own
// identifier.  Spans stay in memory until the run ends; write_chrome()
// renders them as Chrome trace-event JSON (chrome://tracing, Perfetto)
// and self_times() gives each layer's time minus the part of it its
// child spans cover.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock nanoseconds: the time base of spans and request timings.
std::uint64_t steady_ns();

class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Spans opened while disabled are not recorded.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span on construction and closes it on destruction; a no-op
  /// when the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* layer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  /// Adds a closed asynchronous span (one request) under the span open
  /// now; `start_ns`/`end_ns` are steady_ns() readings.
  void add_request(const char* layer, const char* name, std::uint64_t id,
                   std::uint64_t start_ns, std::uint64_t end_ns);

  /// Writes the trace as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome(const std::string& path) const;

  struct LayerTime {
    std::string layer;
    std::uint64_t spans = 0;
    double total_s = 0;  // summed span durations
    double self_s = 0;   // minus the union of their children's intervals
  };
  /// One row per layer, largest self time first.
  std::vector<LayerTime> self_times() const;

 private:
  struct Span {
    std::string layer;
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;
    std::uint64_t request_id = 0;  // nonzero for asynchronous request spans
  };

  bool enabled_;
  std::uint64_t origin_ns_;  // steady_ns() when the tracer was made
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

}  // namespace perfbench
