// Checks of the program's outputs against computations made apart from
// the code that produced them.
//
//   * level sizes: level n of the file holds C(n + 11, 11) positions,
//     with the binomial computed here by its own recurrence;
//   * the sequential solver: levels 0..k of the file equal
//     ra::build_database, which shares no engine code with the
//     distributed para::RankEngine build;
//   * negamax: at a seeded sample of positions of every level, the
//     stored value equals the best option value, computed from
//     AwariLevel::visit_options and the stored values of the successors.
//
// Server answers are compared with the file inside the load generator.
// A run with any failed check prints correct=false and exits non-zero.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "retra/db/database.hpp"

namespace perfbench {

struct CheckReport {
  std::vector<std::string> failures;
  std::uint64_t positions_checked = 0;

  bool ok() const { return failures.empty(); }
  void fail(std::string what) { failures.push_back(std::move(what)); }
  void merge(const CheckReport& other);
};

/// Every level 0..max_level is present and holds C(n + 11, 11) values.
CheckReport check_level_sizes(const retra::db::Database& file,
                              int max_level);

/// Levels 0..k of `file` equal the sequential solver's.
CheckReport check_sequential(const retra::db::Database& file, int k);

/// The negamax property at `per_level` seeded positions of every level.
CheckReport check_negamax(const retra::db::Database& file,
                          std::uint64_t seed, int per_level);

}  // namespace perfbench
