#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <utility>

#include "retra/obs/json.hpp"

namespace perfbench {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_ns_(steady_ns()) {}

Tracer::Scope::Scope(Tracer& tracer, const char* layer, std::string name)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  Span span;
  span.layer = layer;
  span.name = std::move(name);
  span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  index_ = static_cast<int>(tracer_.spans_.size());
  tracer_.spans_.push_back(std::move(span));
  tracer_.open_.push_back(index_);
  // Read the clock last so the span's own bookkeeping stays outside it.
  tracer_.spans_.back().start_ns = steady_ns() - tracer_.origin_ns_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end_ns =
      steady_ns() - tracer_.origin_ns_;
  tracer_.open_.pop_back();
}

void Tracer::add_request(const char* layer, const char* name,
                         std::uint64_t id, std::uint64_t start_ns,
                         std::uint64_t end_ns) {
  if (!enabled_) return;
  Span span;
  span.layer = layer;
  span.name = name;
  span.start_ns = start_ns - origin_ns_;
  span.end_ns = std::max(start_ns, end_ns) - origin_ns_;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request_id = id;
  spans_.push_back(std::move(span));
}

bool Tracer::write_chrome(const std::string& path) const {
  retra::obs::JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double ts = static_cast<double>(span.start_ns) / 1e3;
    const double dur = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    if (span.request_id == 0) {
      w.begin_object()
          .kv("name", span.name)
          .kv("cat", span.layer)
          .kv("ph", "X")
          .kv("ts", ts)
          .kv("dur", dur)
          .kv("pid", 1)
          .kv("tid", 1);
      w.key("args").begin_object().kv("span", static_cast<std::uint64_t>(i));
      if (span.parent >= 0) {
        w.kv("parent", static_cast<std::uint64_t>(span.parent));
      }
      w.end_object().end_object();
    } else {
      // Overlapping requests: an async begin/end pair per request.
      for (const char* phase : {"b", "e"}) {
        const bool begin = phase[0] == 'b';
        w.begin_object()
            .kv("name", span.name)
            .kv("cat", span.layer)
            .kv("ph", phase)
            .kv("id", span.request_id)
            .kv("ts", begin ? ts : ts + dur)
            .kv("pid", 1)
            .kv("tid", 1);
        if (begin && span.parent >= 0) {
          w.key("args")
              .begin_object()
              .kv("parent", static_cast<std::uint64_t>(span.parent))
              .end_object();
        }
        w.end_object();
      }
    }
  }
  w.end_array();
  w.end_object();
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const std::string& text = w.str();
  const bool ok = std::fwrite(text.data(), 1, text.size(), file) ==
                  text.size();
  return std::fclose(file) == 0 && ok;
}

std::vector<Tracer::LayerTime> Tracer::self_times() const {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, LayerTime> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the children's intervals, clipped to this span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = span.start_ns;
    for (const auto& [begin, end] : kids) {
      const std::uint64_t from = std::max(begin, reach);
      const std::uint64_t to = std::min(end, span.end_ns);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    const std::uint64_t total = span.end_ns - span.start_ns;
    LayerTime& row = by_layer[span.layer];
    row.layer = span.layer;
    ++row.spans;
    row.total_s += static_cast<double>(total) / 1e9;
    row.self_s += static_cast<double>(total - std::min(total, covered)) / 1e9;
  }
  std::vector<LayerTime> rows;
  for (auto& [layer, row] : by_layer) rows.push_back(row);
  std::sort(rows.begin(), rows.end(),
            [](const LayerTime& a, const LayerTime& b) {
              return a.self_s > b.self_s;
            });
  return rows;
}

}  // namespace perfbench
