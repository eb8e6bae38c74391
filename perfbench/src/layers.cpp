#include "layers.hpp"

#include <algorithm>

#include "retra/exec/simd.hpp"
#include "retra/game/awari_level.hpp"
#include "retra/index/board_index.hpp"
#include "retra/serve/query_service.hpp"
#include "retra/support/timer.hpp"

namespace perfbench {

namespace idx = retra::idx;
namespace game = retra::game;

namespace {

// Every kStride-th position of the level: a spread sample that keeps a
// sweep well under a second.
constexpr std::uint64_t kStride = 4;

// Keeps the compiler from dropping work whose result is otherwise unused.
volatile std::uint64_t g_sink = 0;

}  // namespace

double time_options_ns(int level) {
  const game::AwariLevel game(level);
  std::uint64_t sum = 0;
  std::uint64_t positions = 0;
  const retra::support::Timer timer;
  for (std::uint64_t p = 0; p < game.size(); p += kStride) {
    game.visit_options(
        p, [&](const game::Exit& exit) { sum += exit.lower_index + 1; },
        [&](idx::Index successor) { sum += successor; });
    ++positions;
  }
  const double ns = static_cast<double>(timer.nanoseconds());
  g_sink = g_sink + sum;
  return ns / static_cast<double>(positions);
}

double time_predecessors_ns(int level) {
  const game::AwariLevel game(level);
  std::uint64_t sum = 0;
  std::uint64_t positions = 0;
  const retra::support::Timer timer;
  for (std::uint64_t p = 0; p < game.size(); p += kStride) {
    game.visit_predecessors(p, [&](idx::Index q) { sum += q; });
    ++positions;
  }
  const double ns = static_cast<double>(timer.nanoseconds());
  g_sink = g_sink + sum;
  return ns / static_cast<double>(positions);
}

double time_rank_ns(int level) {
  const std::uint64_t size = idx::level_size(level);
  std::uint64_t mismatches = 0;
  std::uint64_t positions = 0;
  const retra::support::Timer timer;
  for (std::uint64_t p = 0; p < size; p += kStride) {
    mismatches += idx::rank_in_level(level, idx::unrank(level, p)) != p;
    ++positions;
  }
  const double ns = static_cast<double>(timer.nanoseconds());
  g_sink = g_sink + mismatches;
  return ns / static_cast<double>(positions);
}

double time_sweep_ns(const std::vector<retra::db::Value>& values) {
  namespace simd = retra::exec::simd;
  std::vector<std::int16_t> words(values.begin(), values.end());
  std::vector<std::uint32_t> out(simd::kSweepTile);
  const std::size_t n = words.size();
  constexpr int kPasses = 4;
  std::uint64_t matches = 0;
  const retra::support::Timer timer;
  for (int pass = 0; pass < kPasses; ++pass) {
    // The seed scan's shape (value == v && value == v) and the zero-fill
    // rewrite, which finds no match here and leaves the words intact.
    const auto v = static_cast<std::int16_t>(pass + 1);
    for (std::size_t begin = 0; begin < n; begin += simd::kSweepTile) {
      const std::size_t len = std::min(simd::kSweepTile, n - begin);
      matches += simd::collect_eq2(words.data() + begin, v,
                                   words.data() + begin, v, len, out.data());
    }
    matches += simd::replace_matching(words.data(), n, INT16_MIN, INT16_MIN);
  }
  const double ns = static_cast<double>(timer.nanoseconds());
  g_sink = g_sink + matches;
  return ns / (2.0 * kPasses * static_cast<double>(n));
}

double time_lookup_ns(const std::string& path, std::uint64_t budget_bytes,
                      const Trace& trace) {
  auto opened = retra::serve::QueryService::open(path, {budget_bytes});
  if (!opened.ok) return -1;
  retra::serve::QueryService& service = *opened.service;
  std::vector<retra::db::Value> out;
  std::uint64_t lookups = 0;
  std::uint64_t sum = 0;
  const retra::support::Timer timer;
  for (const Request& request : trace.requests) {
    out.resize(request.indices.size());
    service.values(static_cast<int>(request.level), request.indices, out);
    for (const retra::db::Value v : out) sum += static_cast<std::uint16_t>(v);
    lookups += request.indices.size();
  }
  const double ns = static_cast<double>(timer.nanoseconds());
  g_sink = g_sink + sum;
  return lookups == 0 ? -1 : ns / static_cast<double>(lookups);
}

}  // namespace perfbench
