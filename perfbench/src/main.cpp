// retra_perfbench: one run of the build-and-serve lifecycle.
//
// A run solves awari to level 13 with para::build_parallel, certifies
// every level, writes the result as RTRADB03, serves the file through
// net::Server to a load generator in the same process, and checks every
// output against computations made apart from the program.  The build,
// certify and write phases run kCycles times and report medians (each
// cycle writes kWrites times).  Serving latency is measured with one
// operation in flight, in a slice after each lifecycle; before each
// slice the server is set up kSetupsPerSlice times, and the run reports
// the median set-up.  A traced run also drives the server open loop, at
// the workload's fixed rate and up a ladder of rates.
//
//   retra_perfbench --workload solo-resident --seed 1 --seconds 10
//       --trace 0 --scratch DIR [--trace-out FILE]
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics.  With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer ones, taken
// from obs::snapshot() deltas, ParallelResult fields and timed calls
// into the layers' public functions, and a Chrome trace of the spans
// the benchmark recorded is written to --trace-out.  See README.md.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "retra/db/db_io.hpp"
#include "retra/game/awari_level.hpp"
#include "retra/net/server.hpp"
#include "retra/obs/json.hpp"
#include "retra/obs/metrics.hpp"
#include "retra/para/parallel_solver.hpp"
#include "retra/ra/verify.hpp"
#include "retra/support/cli.hpp"
#include "retra/support/rng.hpp"
#include "retra/support/timer.hpp"
#include "spans.hpp"

namespace {

using namespace retra;
using perfbench::LoadGenerator;
using perfbench::LoadResult;
using perfbench::Request;
using perfbench::Trace;
using perfbench::Tracer;
namespace fs = std::filesystem;

constexpr int kTopLevel = 13;
// The sequential solver reaches level 11 in about a second.
constexpr int kSequentialLevel = 11;
constexpr int kCycles = 5;
constexpr int kWrites = 3;
constexpr int kSetupsPerSlice = 3;
constexpr int kNegamaxPerLevel = 2000;
constexpr int kConnections = 2;
// Operations in a generated trace; the serving phases wrap around it.
constexpr std::size_t kTraceOps = 1u << 16;
// Plies of one optimal playout before the next starts (drawn lines can
// cycle forever).
constexpr int kPlayoutPlies = 48;
// A percentile needs this many samples beyond it to be a tail: p99 of
// a serving phase or a ladder rung is taken over at least 1000.
constexpr std::size_t kMinPhaseOps = 1000;
// The closed-loop phase, which gives lat.*, runs whole rounds of
// kClosedRoundOps operations until kClosedShare of --seconds is spent,
// in one slice after each lifecycle, so that it samples the whole run
// and not one moment of the host.
constexpr double kClosedShare = 0.3;
constexpr std::size_t kClosedRoundOps = 2000;
// The fixed-rate phase (traced runs only) runs half of --seconds and at
// least kFixedOps operations.
constexpr double kFixedShare = 0.5;
constexpr std::size_t kFixedOps = 2000;
// Ladder rungs step the rate by 2^(1/8) and last at least kRungSeconds.
constexpr double kLadderStep = 1.090507732665258;
constexpr double kRungSeconds = 0.5;
constexpr int kLadderMisses = 3;
// The ladder's p99 limit lies above the 1-20 ms vCPU stalls of a shared
// 4-vCPU virtual machine, so a rung misses it on overload or refusals,
// not on a stall.
constexpr double kLatencyLimitUs = 20000;

struct Workload {
  const char* name;
  int ranks;
  int threads;                      // per rank
  std::uint64_t working_set_bytes;  // per rank; 0 keeps the build in RAM
  std::uint64_t server_budget;      // QueryService bytes; 0 = unlimited
  std::uint64_t hot_bytes;          // hot tier bytes; 0 = off
  bool playouts;                    // evaluate-position traffic
  double rate;                      // fixed open-loop rate, ops/s
  double ladder_start;              // first rung of the max-rate ladder
};

// Budgets sit above the line where the admission check refuses every
// level-13 query (see README.md, known fault 1), and the fixed rates are
// low enough that its overcharging does not refuse overlapping queries
// at that rate.
constexpr Workload kWorkloads[] = {
    {"solo-resident", 1, 1, 0, 0, 8u << 20, false, 10000, 80000},
    {"ranks4-spill", 4, 1, 272u << 10, 3u << 20, 1u << 20, true, 200, 12000},
    {"ranks2x2-uniform", 2, 2, 0, 2u << 20, 0, false, 250, 2000},
};

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

/// Metrics by name: value and unit, printed in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    if (!index_.count(name)) {
      index_[name] = rows_.size();
      rows_.push_back({name, value, unit});
    } else {
      rows_[index_[name]].value = value;
    }
  }
  void print(const char* title) const {
    std::printf("%s\n", title);
    for (const Row& row : rows_) {
      std::printf("  %-26s %16.6f %s\n", row.name.c_str(), row.value,
                  row.unit);
    }
  }
  void write(obs::JsonWriter& w) const {
    w.begin_object();
    for (const Row& row : rows_) {
      w.key(row.name).begin_object().kv("value", row.value).kv("unit",
                                                               row.unit);
      w.end_object();
    }
    w.end_object();
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Row> rows_;
  std::map<std::string, std::size_t> index_;
};

/// The median of one figure over cycles, each a map of figures by name.
double median_of(const std::vector<std::map<std::string, double>>& cycles,
                 const std::string& name) {
  std::vector<double> values;
  for (const std::map<std::string, double>& cycle : cycles) {
    if (auto it = cycle.find(name); it != cycle.end()) {
      values.push_back(it->second);
    }
  }
  return median(values);
}

/// Adds the interval `delta` into `total`: counters, timers and
/// histograms add up; gauges are not read from the sum.
void accumulate(obs::Snapshot& total, const obs::Snapshot& delta) {
  for (std::size_t i = 0; i < total.metrics.size(); ++i) {
    obs::MetricValue& into = total.metrics[i];
    const obs::MetricValue& add = delta.metrics[i];
    into.value += add.value;
    into.count += add.count;
    into.sum += add.sum;
    for (std::size_t b = 0; b < into.buckets.size(); ++b) {
      into.buckets[b] += add.buckets[b];
    }
  }
}

// ------------------------------------------------------------------------
// Traces: the requests the generator sends, made from the seed.

/// Single QUERY lookups uniform over every position of every level.
Trace uniform_trace(std::uint64_t seed) {
  std::vector<std::uint64_t> ends;  // cumulative positions through level n
  std::uint64_t total = 0;
  for (int n = 0; n <= kTopLevel; ++n) {
    total += idx::level_size(n);
    ends.push_back(total);
  }
  support::Xoshiro256 rng(seed);
  Trace trace;
  trace.requests.reserve(kTraceOps);
  for (std::size_t i = 0; i < kTraceOps; ++i) {
    std::uint64_t global = rng.below(total);
    const auto level = static_cast<std::uint32_t>(
        std::upper_bound(ends.begin(), ends.end(), global) - ends.begin());
    if (level > 0) global -= ends[level - 1];
    trace.requests.push_back({level, false, {global}});
    trace.end_op();
  }
  return trace;
}

/// Evaluate-position operations along seeded optimal playouts from
/// level-13 positions: one BATCH_QUERY per successor level, as
/// ra::evaluate_moves issues them.
Trace playout_trace(std::uint64_t seed, const db::Database& truth) {
  support::Xoshiro256 rng(seed);
  Trace trace;
  while (trace.ops() < kTraceOps) {
    game::Board board =
        idx::unrank(kTopLevel, rng.below(idx::level_size(kTopLevel)));
    for (int ply = 0; ply < kPlayoutPlies && trace.ops() < kTraceOps;
         ++ply) {
      const game::MoveList moves = game::legal_moves(board);
      if (moves.count == 0) break;
      int best_value = INT32_MIN;
      game::Board best = board;
      for (const auto& move : moves) {
        const auto level = static_cast<std::uint32_t>(idx::stones_on(move.after));
        const idx::Index index = idx::rank_in_level(static_cast<int>(level),
                                                    move.after);
        auto it = std::find_if(trace.requests.begin() + trace.op_begin.back(),
                               trace.requests.end(), [&](const Request& r) {
                                 return r.level == level;
                               });
        if (it == trace.requests.end()) {
          trace.requests.push_back({level, true, {index}});
        } else {
          it->indices.push_back(index);
        }
        const int value =
            move.captured - truth.value(static_cast<int>(level), index);
        if (value > best_value) {
          best_value = value;
          best = move.after;
        }
      }
      trace.end_op();
      board = best;
    }
  }
  return trace;
}

/// One lookup per block of every level, one level per operation: the
/// warm pass that fills the server's caches before timing.
Trace warm_trace() {
  Trace trace;
  for (int n = 0; n <= kTopLevel; ++n) {
    Request request{static_cast<std::uint32_t>(n), true, {}};
    for (std::uint64_t p = 0; p < idx::level_size(n);
         p += db::kDefaultBlockPositions) {
      request.indices.push_back(p);
    }
    trace.requests.push_back(std::move(request));
    trace.end_op();
  }
  return trace;
}

// ------------------------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path scratch;
  std::string trace_out;
};

struct ServeFixture {
  std::unique_ptr<net::Server> server;
  LoadGenerator generator;
  Trace trace;
};

class Run {
 public:
  explicit Run(const Options& options)
      : options_(options), w_(*options.workload), tracer_(options.trace) {}

  int execute();

 private:
  void fail(const std::string& what) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    correct_ = false;
  }
  void count(const LoadResult& result, const char* phase) {
    attempted_ += result.attempted;
    failed_ += result.failed();
    if (result.wrong > 0) {
      fail(std::string(phase) + ": " + std::to_string(result.wrong) +
           " server answers differ from the file");
    }
  }

  void lifecycle(int cycle, bool traced);
  void check_file();
  double setup_serve(ServeFixture& fixture);
  /// Runs one slice of the closed-loop phase.
  void closed_slice(ServeFixture& fixture);
  /// Reports the closed-loop phase over all its slices.
  void closed_report();
  /// Runs the fixed-rate phase from trace operation `offset` on.
  std::size_t fixed_rate(ServeFixture& fixture, std::size_t offset);
  /// Runs the max-rate ladder from trace operation `offset` on.
  std::size_t ladder(ServeFixture& fixture, std::size_t offset);
  void layer_sweeps(const ServeFixture& fixture);

  const Options& options_;
  const Workload& w_;
  Tracer tracer_;
  fs::path db_path_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::uint64_t> file_sizes_;
  // Each cycle's figures by name; the run reports the median of each.
  std::vector<std::map<std::string, double>> cycles_;  // untraced
  std::vector<std::map<std::string, double>> traced_cycles_;
  // The closed-loop phase, summed over its slices.
  std::vector<double> closed_latency_;
  std::uint64_t closed_lookups_ = 0;
  std::size_t closed_ops_ = 0;  // also the next trace operation
  double closed_seconds_ = 0;
  obs::Snapshot closed_delta_;
  db::Database file_db_;
  Metrics e2e_;
  Metrics layers_;
};

void Run::lifecycle(int cycle, bool traced) {
  tracer_.set_enabled(traced);
  std::map<std::string, double> figures;
  para::ParallelConfig config;
  config.ranks = w_.ranks;
  config.scheme = para::PartitionScheme::kCyclic;
  config.use_threads = w_.ranks > 1;
  config.threads_per_rank = w_.threads;
  config.store.working_set_bytes = w_.working_set_bytes;
  if (w_.working_set_bytes > 0) {
    config.store.scratch_dir =
        (options_.scratch / ("store-" + std::to_string(cycle))).string();
  }

  // Build.
  const obs::Snapshot before = obs::snapshot();
  support::Timer timer;
  para::ParallelResult result;
  {
    const Tracer::Scope span(tracer_, "para", "build_parallel");
    result = para::build_parallel(game::AwariFamily{}, kTopLevel, config);
  }
  const double build_s = timer.seconds();
  const obs::Snapshot build = obs::snapshot() - before;
  if (!result.completed() || result.database->num_levels() != kTopLevel + 1) {
    fail("build did not complete");
    return;
  }

  // Certify: gather, then verify_level on every level.
  timer.reset();
  double gather_s = 0;
  double top_verify_s = 0;
  {
    const Tracer::Scope phase(tracer_, "bench", "verify");
    const support::Timer gather_timer;
    db::Database database;
    {
      const Tracer::Scope span(tracer_, "dist_db", "gather");
      database = result.database->gather();
    }
    gather_s = gather_timer.seconds();
    for (int n = 0; n <= kTopLevel; ++n) {
      const game::AwariLevel game(n);
      auto lower = [&database](int level, idx::Index index) {
        return database.value(level, index);
      };
      const support::Timer level_timer;
      const Tracer::Scope span(tracer_, "ra",
                               "verify_level " + std::to_string(n));
      const ra::VerifyReport report =
          ra::verify_level(game, lower, database.level(n));
      if (n == kTopLevel) top_verify_s = level_timer.seconds();
      if (!report.ok) fail("verify_level " + std::to_string(n) + ": " +
                           report.error);
    }
  }
  const double verify_s = timer.seconds();

  // Write: gather from the build result, save as RTRADB03.  A write is
  // short next to the host's slow drifts, so each cycle writes kWrites
  // times and reports the median.
  std::vector<double> writes;
  std::vector<double> saves;
  const obs::Snapshot before_save = obs::snapshot();
  for (int i = 0; i < kWrites; ++i) {
    timer.reset();
    const Tracer::Scope phase(tracer_, "bench", "write");
    db::Database database;
    {
      const Tracer::Scope span(tracer_, "dist_db", "gather");
      database = result.database->gather();
    }
    const support::Timer save_timer;
    {
      const Tracer::Scope span(tracer_, "db", "save");
      db::save(database, db_path_.string(), db::Format{.version = 3});
    }
    saves.push_back(save_timer.seconds());
    writes.push_back(timer.seconds());
    file_sizes_.push_back(fs::file_size(db_path_));
  }
  const double write_s = median(writes);
  const double save_s = median(saves);
  const obs::Snapshot saved = obs::snapshot() - before_save;

  std::printf("cycle %d%s: build %.3f s, verify %.3f s, write %.3f s\n",
              cycle, traced ? " (traced)" : "", build_s, verify_s, write_s);
  figures["build_s"] = build_s;
  figures["verify_s"] = verify_s;
  figures["write_s"] = write_s;
  figures["total_s"] = build_s + verify_s + write_s;

  // Per-layer figures of this cycle.
  const double scan_s = build[obs::Id::kEngineScanSeconds].seconds();
  const double seed_s = build[obs::Id::kEngineSeedSeconds].seconds();
  const double drain_s = build[obs::Id::kEngineDrainSeconds].seconds();
  const double zero_s = build[obs::Id::kEngineZeroFillSeconds].seconds();
  figures["engine.scan_s"] = scan_s;
  figures["engine.seed_s"] = seed_s;
  figures["engine.drain_s"] = drain_s;
  figures["engine.zero_fill_s"] = zero_s;
  para::EngineStats engine;
  para::StoreStats store;
  std::uint64_t rounds = 0;
  for (const para::LevelRunInfo& info : result.levels) {
    engine += info.total;
    store += info.store_total;
    rounds += info.rounds;
  }
  figures["engine.updates"] =
      static_cast<double>(engine.updates_local + engine.updates_remote);
  figures["engine.assignments"] = static_cast<double>(engine.assignments);
  figures["para.rounds"] = static_cast<double>(rounds);
  figures["para.idle_s"] = std::max(
      0.0, w_.ranks * build_s - (scan_s + seed_s + drain_s + zero_s));
  figures["store.faults"] = static_cast<double>(store.faults);
  figures["store.fault_mb"] = static_cast<double>(store.fault_bytes) / 1e6;
  figures["store.evictions"] = static_cast<double>(store.evictions);
  figures["store.spill_mb"] = static_cast<double>(store.spill_bytes) / 1e6;
  figures["store.peak_resident_kb"] =
      static_cast<double>(store.peak_resident_bytes) / 1024.0;
  figures["dist_db.gather_s"] = gather_s;
  figures["msg.messages"] =
      static_cast<double>(build[obs::Id::kCombinerMessages].value);
  figures["msg.payload_mb"] =
      static_cast<double>(build[obs::Id::kCombinerPayloadBytes].value) / 1e6;
  figures["msg.records_per_message"] =
      build[obs::Id::kCombinerRecordsPerMessage].mean();
  figures["verify.top_level_s"] = top_verify_s;
  figures["db.save_s"] = save_s;
  const auto bytes_in = saved[obs::Id::kDbCompressBytesIn].value;
  const auto bytes_out = saved[obs::Id::kDbCompressBytesOut].value;
  figures["db.compress_ratio"] =
      bytes_out == 0 ? 0.0
                     : static_cast<double>(bytes_in) /
                           static_cast<double>(bytes_out);

  result = para::ParallelResult{};
  if (!config.store.scratch_dir.empty()) {
    fs::remove_all(config.store.scratch_dir);
  }
  (traced ? traced_cycles_ : cycles_).push_back(figures);
  tracer_.set_enabled(options_.trace);
}

void Run::check_file() {
  const Tracer::Scope phase(tracer_, "bench", "check");
  db::LoadResult loaded;
  {
    const Tracer::Scope span(tracer_, "db", "load");
    loaded = db::load(db_path_.string());
  }
  if (!loaded.ok) {
    fail("db::load: " + loaded.error);
    return;
  }
  file_db_ = std::move(loaded.database);
  perfbench::CheckReport report =
      perfbench::check_level_sizes(file_db_, kTopLevel);
  if (report.ok()) {
    report.merge(perfbench::check_sequential(file_db_, kSequentialLevel));
    report.merge(
        perfbench::check_negamax(file_db_, options_.seed, kNegamaxPerLevel));
  }
  for (const std::string& failure : report.failures) fail(failure);
  std::printf(
      "checks: level sizes, levels 0..%d against the sequential solver, "
      "negamax at %d positions per level: %s (%llu positions)\n",
      kSequentialLevel, kNegamaxPerLevel, report.ok() ? "ok" : "FAILED",
      static_cast<unsigned long long>(report.positions_checked));
}

double Run::setup_serve(ServeFixture& fixture) {
  fixture.server.reset();
  const support::Timer timer;
  const Tracer::Scope phase(tracer_, "bench", "setup.serve");
  fixture.trace = w_.playouts ? playout_trace(options_.seed, file_db_)
                              : uniform_trace(options_.seed);
  net::ServerConfig config;
  config.workers = 2;
  config.budget_bytes = w_.server_budget;
  config.hot_bytes = w_.hot_bytes;
  {
    const Tracer::Scope span(tracer_, "net", "Server::open");
    auto opened = net::Server::open(db_path_.string(), config);
    if (!opened.ok) {
      fail("Server::open: " + opened.error);
      return timer.seconds();
    }
    fixture.server = std::move(opened.server);
  }
  std::string error;
  if (!LoadGenerator::connect(fixture.server->port(), kConnections,
                              fixture.generator, &error)) {
    fail("connect: " + error);
    return timer.seconds();
  }
  const Trace warm = warm_trace();
  const Tracer::Scope span(tracer_, "net", "warm pass");
  const LoadResult result =
      fixture.generator.run(warm, 0, warm.ops(), 0, file_db_);
  count(result, "warm pass");
  return timer.seconds();
}

void Run::closed_slice(ServeFixture& fixture) {
  // One operation in flight: the next is sent the moment the previous
  // one is answered, as a client that evaluates one position at a time
  // sends them.  The server never idles long enough for the host to
  // park its vCPUs, so the latency is the request path's own.  At the
  // low open-loop rates the admission check allows, latency is set by
  // how fast the host wakes idle vCPUs and drifted 15-30% between runs.
  const double seconds =
      kClosedShare * std::max(1.0, options_.seconds) / kCycles;
  const obs::Snapshot before = obs::snapshot();
  const support::Timer timer;
  {
    const Tracer::Scope span(tracer_, "bench", "serve.closed_loop");
    do {
      const LoadResult round = fixture.generator.run(
          fixture.trace, closed_ops_, kClosedRoundOps, 0, file_db_, &tracer_);
      closed_ops_ += kClosedRoundOps;
      count(round, "closed-loop phase");
      closed_latency_.insert(closed_latency_.end(), round.latency_us.begin(),
                             round.latency_us.end());
      closed_lookups_ += round.lookups;
    } while (correct_ && timer.seconds() < seconds);
  }
  closed_seconds_ += timer.seconds();
  accumulate(closed_delta_, obs::snapshot() - before);
}

void Run::closed_report() {
  const obs::Snapshot& delta = closed_delta_;
  const double p50 = perfbench::quantile(closed_latency_, 0.50);
  const double p99 = perfbench::quantile(closed_latency_, 0.99);
  e2e_.set("lat.p50_us", p50, "us");
  // A vCPU preemption delays the one operation in flight, so p99 reads
  // how often the host preempts: it is reported without a bound.
  layers_.set("lat.p99_us", p99, "us");
  std::printf("closed loop: %zu ops in %.2f s, %llu lookups, p50 %.1f us, "
              "p99 %.1f us\n",
              closed_ops_, closed_seconds_,
              static_cast<unsigned long long>(closed_lookups_), p50, p99);

  const double hits = static_cast<double>(delta[obs::Id::kServeBlockHits].value);
  const double faults =
      static_cast<double>(delta[obs::Id::kServeBlockFaults].value);
  layers_.set("serve.block_faults", faults, "count");
  layers_.set("serve.block_hit_ratio",
              hits + faults > 0 ? hits / (hits + faults) : 1.0, "ratio");
  layers_.set("serve.decode_s",
              delta[obs::Id::kServeBlockDecodeSeconds].seconds(), "s");
  const obs::MetricValue& server_us =
      delta[w_.playouts ? obs::Id::kNetBatchMicros : obs::Id::kNetQueryMicros];
  layers_.set("net.server_us", server_us.mean(), "us");
  layers_.set("net.coalesced_ratio",
              delta[obs::Id::kNetCoalescedLookups].mean(), "lookups/batch");
  layers_.set("net.hot_hit_ratio",
              closed_lookups_ > 0
                  ? static_cast<double>(delta[obs::Id::kNetHotHits].value) /
                        static_cast<double>(closed_lookups_)
                  : 0.0,
              "ratio");
}

std::size_t Run::fixed_rate(ServeFixture& fixture, std::size_t offset) {
  const double seconds = std::max(1.0, options_.seconds);
  const auto fixed_ops = std::max<std::size_t>(
      kFixedOps, static_cast<std::size_t>(kFixedShare * seconds * w_.rate));

  // Fixed-rate phase: open loop at the workload's rate.
  const obs::Snapshot before = obs::snapshot();
  LoadResult fixed;
  {
    const Tracer::Scope span(tracer_, "bench", "serve.fixed_rate");
    fixed = fixture.generator.run(fixture.trace, offset, fixed_ops, w_.rate,
                                  file_db_, &tracer_);
  }
  const obs::Snapshot delta = obs::snapshot() - before;
  count(fixed, "fixed-rate phase");
  // Between requests the server idles for milliseconds, so the host
  // parks its vCPUs and each request pays their wake-up: these figures
  // follow the host's load and are reported without a bound (README.md).
  layers_.set("fixed.p50_us", perfbench::quantile(fixed.latency_us, 0.50),
              "us");
  layers_.set("fixed.p99_us", perfbench::quantile(fixed.latency_us, 0.99),
              "us");
  std::printf(
      "fixed rate %.0f ops/s: %llu ops, %llu frames, %llu lookups, %llu "
      "refused, %llu errors, p50 %.1f us, p99 %.1f us, lateness p99 %.1f "
      "us\n",
      w_.rate, static_cast<unsigned long long>(fixed.attempted),
      static_cast<unsigned long long>(fixed.frames),
      static_cast<unsigned long long>(fixed.lookups),
      static_cast<unsigned long long>(fixed.refused),
      static_cast<unsigned long long>(fixed.errors),
      perfbench::quantile(fixed.latency_us, 0.50),
      perfbench::quantile(fixed.latency_us, 0.99),
      perfbench::quantile(fixed.lateness_us, 0.99));
  layers_.set("loadgen.lateness_p99_us",
              perfbench::quantile(fixed.lateness_us, 0.99), "us");
  layers_.set("net.shed", static_cast<double>(delta[obs::Id::kNetShed].value),
              "count");
  return offset + fixed_ops;
}

std::size_t Run::ladder(ServeFixture& fixture, std::size_t offset) {
  // Max-rate ladder: rungs rise by kLadderStep.  A rung meets the limit
  // when its p99 does, counting every refused or failed operation as
  // missing it.  The ladder ends after kLadderMisses rungs in a row
  // miss (a single miss can be a host stall) or when its time is spent,
  // and reports the highest rung that met the limit.
  const obs::Snapshot before_ladder = obs::snapshot();
  const support::Timer ladder_timer;
  double max_rate = 0;
  int misses = 0;
  const double seconds = std::max(1.0, options_.seconds);
  for (double rate = w_.ladder_start;
       misses < kLadderMisses && ladder_timer.seconds() < 0.9 * seconds;
       rate *= kLadderStep) {
    const auto ops = std::max<std::size_t>(
        kMinPhaseOps, static_cast<std::size_t>(kRungSeconds * rate));
    LoadResult rung;
    {
      const Tracer::Scope span(tracer_, "bench", "serve.ladder_rung");
      rung = fixture.generator.run(fixture.trace, offset, ops, rate, file_db_);
    }
    offset += ops;
    if (rung.wrong > 0) fail("ladder: server answers differ from the file");
    std::vector<double> latency = rung.latency_us;
    latency.resize(ops, std::numeric_limits<double>::infinity());
    const double p99 = perfbench::quantile(latency, 0.99);
    const bool pass = p99 <= kLatencyLimitUs;
    std::printf("  ladder %8.0f ops/s: p99 %9.1f us, %llu refused, %llu "
                "errors: %s\n",
                rate, p99, static_cast<unsigned long long>(rung.refused),
                static_cast<unsigned long long>(rung.errors),
                pass ? "meets the limit" : "misses the limit");
    misses = pass ? 0 : misses + 1;
    if (pass) max_rate = rate;
  }
  layers_.set("max_rate_qps", max_rate, "1/s");
  layers_.set("net.ladder_shed",
              static_cast<double>(
                  (obs::snapshot() - before_ladder)[obs::Id::kNetShed].value),
              "count");
  return offset;
}

void Run::layer_sweeps(const ServeFixture& fixture) {
  const Tracer::Scope phase(tracer_, "bench", "layer sweeps");
  auto timed = [&](const char* layer, const char* name, auto&& fn) {
    const Tracer::Scope span(tracer_, layer, name);
    return fn();
  };
  layers_.set("game.options_ns", timed("game", "visit_options sweep", [] {
                return perfbench::time_options_ns(kTopLevel);
              }),
              "ns");
  layers_.set("game.preds_ns", timed("game", "visit_predecessors sweep", [] {
                return perfbench::time_predecessors_ns(kTopLevel);
              }),
              "ns");
  layers_.set("index.rank_ns", timed("index", "rank round trips", [] {
                return perfbench::time_rank_ns(kTopLevel);
              }),
              "ns");
  layers_.set("exec.sweep_ns", timed("exec", "simd sweeps", [&] {
                return perfbench::time_sweep_ns(file_db_.level(kTopLevel));
              }),
              "ns");
  layers_.set("serve.lookup_ns", timed("serve", "QueryService::values", [&] {
                return perfbench::time_lookup_ns(db_path_.string(),
                                                 w_.server_budget,
                                                 fixture.trace);
              }),
              "ns");
}

int Run::execute() {
  db_path_ = options_.scratch / "awari13.rtradb03";
  std::printf("workload %s: %d rank(s) x %d thread(s), working set %llu "
              "B/rank, server budget %llu B, hot tier %llu B, seed %llu\n",
              w_.name, w_.ranks, w_.threads,
              static_cast<unsigned long long>(w_.working_set_bytes),
              static_cast<unsigned long long>(w_.server_budget),
              static_cast<unsigned long long>(w_.hot_bytes),
              static_cast<unsigned long long>(options_.seed));

  fs::create_directories(options_.scratch);

  // The first lifecycle writes the file that is checked and served; the
  // others run between slices of the closed-loop phase.  The traced run
  // alternates untraced and traced cycles, so the tracing overhead is
  // measured inside one process.
  lifecycle(0, false);
  attempted_ += 1;
  // peak_rss_mb is the first lifecycle's: later ones run on a heap that
  // the serving phases have grown.
  const double lifecycle_rss_mb = peak_rss_mb();
  if (correct_) check_file();

  // Each slice opens the server kSetupsPerSlice times and serves from
  // the last; the server is closed again while a lifecycle runs.
  ServeFixture fixture;
  std::vector<double> serve_setup;
  for (int c = 1; c <= kCycles && correct_; ++c) {
    for (int i = 0; i < kSetupsPerSlice && correct_; ++i) {
      serve_setup.push_back(setup_serve(fixture));
    }
    if (correct_) closed_slice(fixture);
    if (c == kCycles || !correct_) break;
    fixture.generator = LoadGenerator{};
    fixture.server.reset();
    lifecycle(c, options_.trace && c % 2 == 1);
    attempted_ += 1;
  }
  if (correct_) closed_report();
  for (const std::uint64_t size : file_sizes_) {
    if (size != file_sizes_.front()) {
      fail("cycles wrote files of different sizes");
    }
  }
  // The open-loop figures are reported without a bound (README.md), so
  // only the traced run spends its time on them.
  if (correct_ && options_.trace) {
    ladder(fixture, fixed_rate(fixture, closed_ops_));
    layer_sweeps(fixture);
  }
  if (fixture.server) {
    fixture.generator = LoadGenerator{};
    fixture.server->stop();
  }

  e2e_.set("setup_s", median(serve_setup), "s");
  for (const char* name : {"build_s", "verify_s", "write_s", "total_s"}) {
    e2e_.set(name, median_of(cycles_, name), "s");
  }
  e2e_.set("peak_rss_mb", lifecycle_rss_mb, "MB");
  e2e_.set("db_bytes",
           file_sizes_.empty() ? 0.0 : static_cast<double>(file_sizes_.back()),
           "bytes");

  const std::vector<std::map<std::string, double>>& per_layer =
      options_.trace ? traced_cycles_ : cycles_;
  struct LayerName {
    const char* name;
    const char* unit;
  };
  static constexpr LayerName kCycleLayers[] = {
      {"engine.scan_s", "s"},         {"engine.seed_s", "s"},
      {"engine.drain_s", "s"},        {"engine.zero_fill_s", "s"},
      {"engine.updates", "count"},    {"engine.assignments", "count"},
      {"para.rounds", "count"},       {"para.idle_s", "s"},
      {"store.faults", "count"},      {"store.fault_mb", "MB"},
      {"store.evictions", "count"},   {"store.spill_mb", "MB"},
      {"store.peak_resident_kb", "KB"}, {"dist_db.gather_s", "s"},
      {"msg.messages", "count"},      {"msg.payload_mb", "MB"},
      {"msg.records_per_message", "records"},
      {"verify.top_level_s", "s"},    {"db.save_s", "s"},
      {"db.compress_ratio", "ratio"},
  };
  for (const LayerName& layer : kCycleLayers) {
    layers_.set(layer.name, median_of(per_layer, layer.name), layer.unit);
  }

  e2e_.print("end-to-end (medians of the untraced cycles):");
  if (options_.trace) {
    layers_.print("per layer (medians of the traced cycles):");
    const double plain = median_of(cycles_, "total_s");
    const double traced = median_of(traced_cycles_, "total_s");
    std::printf("tracing overhead on total_s: %+.2f%% (%.4f s traced vs "
                "%.4f s untraced)\n",
                plain > 0 ? 100.0 * (traced - plain) / plain : 0.0, traced,
                plain);
    std::printf("self time per layer (s):\n  %-8s %6s %10s %10s\n", "layer",
                "spans", "total", "self");
    for (const Tracer::LayerTime& row : tracer_.self_times()) {
      std::printf("  %-8s %6llu %10.4f %10.4f\n", row.layer.c_str(),
                  static_cast<unsigned long long>(row.spans), row.total_s,
                  row.self_s);
    }
    if (!options_.trace_out.empty()) {
      if (tracer_.write_chrome(options_.trace_out)) {
        std::printf("trace written to %s\n", options_.trace_out.c_str());
      } else {
        fail("cannot write the trace to " + options_.trace_out);
      }
    }
  }

  obs::JsonWriter w;
  w.begin_object()
      .kv("correct", correct_)
      .kv("attempted", attempted_)
      .kv("failed", failed_);
  w.key("metrics");
  (options_.trace ? layers_ : e2e_).write(w);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return correct_ ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  support::Cli cli;
  cli.describe(
      "Build-and-serve benchmark: solve, certify, write and serve awari "
      "level 13, then print the run's metrics as one JSON line.");
  cli.flag("workload", "solo-resident",
           "solo-resident | ranks4-spill | ranks2x2-uniform");
  cli.flag("seed", "1", "seed of the generated traces and samples");
  cli.flag("seconds", "10", "serving measurement time");
  cli.flag("trace", "0", "1 records spans and prints per-layer metrics");
  cli.flag("scratch", "", "directory for the run's files (required)");
  cli.flag("trace-out", "", "Chrome trace-event JSON file (with --trace 1)");
  cli.parse(argc, argv);

  Options options;
  for (const Workload& workload : kWorkloads) {
    if (cli.str("workload") == workload.name) options.workload = &workload;
  }
  if (options.workload == nullptr || cli.str("scratch").empty()) {
    std::fprintf(stderr, "unknown --workload or missing --scratch\n%s",
                 cli.usage().c_str());
    return 2;
  }
  options.seed = static_cast<std::uint64_t>(cli.integer("seed"));
  options.seconds = cli.number("seconds");
  options.trace = cli.integer("trace") != 0;
  options.scratch = cli.str("scratch");
  options.trace_out = cli.str("trace-out");

  // Plain stdout buffering would interleave badly with stderr diagnostics.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Run run(options);
  const int code = run.execute();
  std::error_code ignored;
  fs::remove_all(options.scratch, ignored);
  return code;
}
