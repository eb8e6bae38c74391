#include "checks.hpp"

#include <algorithm>

#include "retra/game/awari_level.hpp"
#include "retra/ra/builder.hpp"
#include "retra/support/rng.hpp"

namespace perfbench {

namespace db = retra::db;
namespace game = retra::game;

namespace {

// Awari positions with n stones in 12 pits: C(n + 11, 11), from
// Pascal's rule rather than the index layer's binomial table.
std::uint64_t positions_with(int stones) {
  std::vector<std::uint64_t> row(12, 1);  // C(11 + j, j) for j = 0
  // row[p] counts boards of p + 1 pits holding `s` stones, built up s by s.
  for (int s = 1; s <= stones; ++s) {
    for (std::size_t p = 1; p < row.size(); ++p) row[p] += row[p - 1];
  }
  return row.back();
}

}  // namespace

void CheckReport::merge(const CheckReport& other) {
  failures.insert(failures.end(), other.failures.begin(),
                  other.failures.end());
  positions_checked += other.positions_checked;
}

CheckReport check_level_sizes(const db::Database& file, int max_level) {
  CheckReport report;
  if (file.num_levels() != max_level + 1) {
    report.fail("file holds " + std::to_string(file.num_levels()) +
                " levels, expected " + std::to_string(max_level + 1));
    return report;
  }
  for (int n = 0; n <= max_level; ++n) {
    const std::uint64_t want = positions_with(n);
    if (file.level(n).size() != want) {
      report.fail("level " + std::to_string(n) + " holds " +
                  std::to_string(file.level(n).size()) +
                  " positions, expected C(" + std::to_string(n + 11) +
                  ", 11) = " + std::to_string(want));
    }
  }
  return report;
}

CheckReport check_sequential(const db::Database& file, int k) {
  CheckReport report;
  const db::Database reference =
      retra::ra::build_database(game::AwariFamily{}, k);
  for (int n = 0; n <= k; ++n) {
    if (!file.has_level(n) || file.level(n) != reference.level(n)) {
      report.fail("level " + std::to_string(n) +
                  " differs from the sequential solver");
    }
    report.positions_checked += reference.level(n).size();
  }
  return report;
}

CheckReport check_negamax(const db::Database& file, std::uint64_t seed,
                          int per_level) {
  CheckReport report;
  retra::support::Xoshiro256 rng(seed ^ 0x6e65676d6178ULL);
  for (int n = 0; n < file.num_levels(); ++n) {
    const game::AwariLevel level(n);
    const std::vector<db::Value>& values = file.level(n);
    const auto samples = std::min<std::uint64_t>(
        values.size(), static_cast<std::uint64_t>(per_level));
    for (std::uint64_t s = 0; s < samples; ++s) {
      const retra::idx::Index p = rng.below(values.size());
      int best = INT16_MIN;
      level.visit_options(
          p,
          [&](const game::Exit& exit) {
            // A terminal exit is worth its reward outright; a capture is
            // worth the stones taken minus the opponent's value below.
            const int value =
                exit.is_terminal()
                    ? exit.reward
                    : exit.reward -
                          file.value(exit.lower_level, exit.lower_index);
            best = std::max(best, value);
          },
          [&](retra::idx::Index successor) {
            best = std::max(best, -static_cast<int>(values[successor]));
          });
      ++report.positions_checked;
      if (best != values[p]) {
        report.fail("level " + std::to_string(n) + " position " +
                    std::to_string(p) + " stores " +
                    std::to_string(values[p]) + " but its best option is " +
                    std::to_string(best));
        if (report.failures.size() >= 8) return report;
      }
    }
  }
  return report;
}

}  // namespace perfbench
