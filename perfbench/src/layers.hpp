// Standalone per-layer measurements, each made by timing calls into one
// module's public functions outside any build.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "retra/db/database.hpp"
#include "loadgen.hpp"

namespace perfbench {

/// ns per position of AwariLevel::visit_options over level `level`.
double time_options_ns(int level);
/// ns per position of AwariLevel::visit_predecessors over level `level`.
double time_predecessors_ns(int level);
/// ns per idx::unrank + idx::rank_in_level round trip over level `level`.
double time_rank_ns(int level);
/// ns per position of the exec::simd sweep kernels over `values`.
double time_sweep_ns(const std::vector<retra::db::Value>& values);

/// ns per lookup of serve::QueryService::values over the requests of
/// `trace`, against the file at `path` under `budget_bytes`; -1 when the
/// file cannot be opened.
double time_lookup_ns(const std::string& path, std::uint64_t budget_bytes,
                      const Trace& trace);

}  // namespace perfbench
