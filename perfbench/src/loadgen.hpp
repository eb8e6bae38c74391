// Open-loop load generator speaking retra-net-v1 frames.
//
// One thread drives at most two connections.  An operation is one or
// more request frames sent together on one connection: a single QUERY
// (a position lookup) or one BATCH_QUERY per successor level (evaluating
// a position's moves).  In the open loop, operation i is due at
// t0 + i / rate whether or not earlier ones have been answered, and its
// latency runs from that due time to its last response, so a stall is
// charged to every operation queued behind it.  The closed loop (rate 0)
// sends the next operation only when the previous one is answered and
// times it from that send; the warm pass and the latency phase use it.
//
// BUSY sheds and transport errors are counted as failed and never
// retried.  Every value the server returns is compared with the
// database read from the file; a mismatch is counted as wrong.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "retra/db/database.hpp"
#include "retra/index/board_index.hpp"
#include "retra/net/socket.hpp"

namespace perfbench {

class Tracer;

/// One request frame: a QUERY when `batch` is false (one index), else a
/// BATCH_QUERY.
struct Request {
  std::uint32_t level = 0;
  bool batch = false;
  std::vector<retra::idx::Index> indices;
};

/// Requests grouped into operations.
struct Trace {
  std::vector<Request> requests;
  /// ops[i] is requests [op_begin[i], op_begin[i + 1]).
  std::vector<std::uint32_t> op_begin{0};

  std::size_t ops() const { return op_begin.size() - 1; }
  void end_op() {
    op_begin.push_back(static_cast<std::uint32_t>(requests.size()));
  }
};

struct LoadResult {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;  // every frame answered with values
  std::uint64_t refused = 0;    // at least one frame answered BUSY
  std::uint64_t errors = 0;     // other error response, transport, timeout
  std::uint64_t wrong = 0;      // values that differ from the file
  std::uint64_t frames = 0;
  std::uint64_t lookups = 0;
  /// Per completed operation, from its due time to its last response.
  std::vector<double> latency_us;
  /// Per operation, how late its first frame was written.
  std::vector<double> lateness_us;

  std::uint64_t failed() const { return refused + errors; }
};

class LoadGenerator {
 public:
  /// Connects `connections` (1 or 2) sockets to 127.0.0.1:port.
  static bool connect(std::uint16_t port, int connections,
                      LoadGenerator& out, std::string* error);

  /// Runs operations `first`, `first + 1`, ... `first + count - 1` of
  /// `trace` (wrapping around its end) at `rate` operations per second,
  /// or closed-loop when `rate` is 0.  With a tracer, each operation is
  /// recorded as a request span.
  LoadResult run(const Trace& trace, std::size_t first, std::size_t count,
                 double rate, const retra::db::Database& truth,
                 Tracer* tracer = nullptr);

 private:
  std::vector<retra::net::FdHandle> fds_;
  std::uint32_t next_id_ = 1;   // request_id of the next frame
  std::uint64_t ops_run_ = 0;   // operations run so far (span ids)
};

/// The p-quantile (0..1) of `values` by nearest rank; 0 when empty.
double quantile(std::vector<double> values, double p);

}  // namespace perfbench
