#include "loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <deque>

#include "retra/net/protocol.hpp"
#include "spans.hpp"

namespace perfbench {

namespace net = retra::net;
namespace db = retra::db;

namespace {

// Responses still missing this long after the last due time fail the
// operation as a timeout.
constexpr std::uint64_t kDrainTimeoutNs = 5'000'000'000;

struct OpState {
  std::uint64_t due_ns = 0;
  std::uint64_t done_ns = 0;
  std::uint32_t pending = 0;  // frames not yet answered
  bool refused = false;
  bool error = false;
};

struct Connection {
  int fd = -1;
  std::deque<std::vector<std::byte>> output;
  std::size_t offset = 0;  // into output.front()
  net::FrameBuffer input;
  bool dead = false;

  /// Writes what the socket accepts without blocking.
  void flush() {
    while (!dead && !output.empty()) {
      const std::vector<std::byte>& front = output.front();
      const ssize_t sent = ::send(fd, front.data() + offset,
                                  front.size() - offset, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) dead = true;
        return;
      }
      offset += static_cast<std::size_t>(sent);
      if (offset < front.size()) return;
      output.pop_front();
      offset = 0;
    }
  }
};

}  // namespace

bool LoadGenerator::connect(std::uint16_t port, int connections,
                            LoadGenerator& out, std::string* error) {
  out.fds_.clear();
  if (connections < 1 || connections > 2) {
    if (error) *error = "one or two connections";
    return false;
  }
  for (int c = 0; c < connections; ++c) {
    net::ConnectResult connected = net::connect_tcp("127.0.0.1", port);
    if (!connected.ok || !net::set_nonblocking(connected.fd.get())) {
      if (error) *error = connected.ok ? "fcntl failed" : connected.error;
      return false;
    }
    out.fds_.push_back(std::move(connected.fd));
  }
  return true;
}

LoadResult LoadGenerator::run(const Trace& trace, std::size_t first,
                              std::size_t count, double rate,
                              const db::Database& truth, Tracer* tracer) {
  LoadResult result;
  result.attempted = count;
  if (count == 0) return result;
  const bool open_loop = rate > 0;
  const std::size_t nconn = fds_.size();
  std::vector<Connection> conns(nconn);
  for (std::size_t c = 0; c < nconn; ++c) conns[c].fd = fds_[c].get();

  // Frame ids are consecutive from first_id, so a response maps back to
  // its request slot by subtraction.
  const std::uint32_t first_id = next_id_;
  std::vector<std::uint32_t> frame_op;  // frame slot -> operation
  std::vector<const Request*> frame_request;
  std::vector<OpState> ops(count);

  const double interval_ns = open_loop ? 1e9 / rate : 0;
  const std::uint64_t t0 = steady_ns() + 1'000'000;  // 1 ms to get going
  for (std::size_t i = 0; i < count; ++i) {
    ops[i].due_ns =
        t0 + static_cast<std::uint64_t>(static_cast<double>(i) * interval_ns);
  }

  std::size_t next = 0;      // next operation to send
  std::size_t finished = 0;  // operations answered or failed
  std::uint64_t last_activity = t0;
  std::vector<std::byte> buffer(1 << 16);
  std::vector<db::Value> values;
  net::Frame frame;

  auto finish = [&](OpState& op, std::uint64_t now) {
    op.done_ns = now;
    ++finished;
  };

  while (finished < count) {
    std::uint64_t now = steady_ns();
    // Send every operation that is due (open loop) or the next one once
    // the previous has been answered (closed loop).
    while (next < count &&
           (open_loop ? ops[next].due_ns <= now : finished == next)) {
      OpState& op = ops[next];
      if (!open_loop) op.due_ns = now;
      Connection& conn = conns[next % nconn];
      const std::size_t ti = (first + next) % trace.ops();
      for (std::uint32_t r = trace.op_begin[ti]; r < trace.op_begin[ti + 1];
           ++r) {
        const Request& request = trace.requests[r];
        const auto id = static_cast<std::uint32_t>(first_id +
                                                   frame_request.size());
        frame_op.push_back(static_cast<std::uint32_t>(next));
        frame_request.push_back(&request);
        conn.output.push_back(
            request.batch
                ? net::encode_batch_query(id, request.level, request.indices)
                : net::encode_query(id, request.level, request.indices[0]));
        ++op.pending;
        ++result.frames;
        result.lookups += request.indices.size();
      }
      result.lateness_us.push_back(
          static_cast<double>(now - op.due_ns) / 1e3);
      if (conn.dead || op.pending == 0) {
        op.error = conn.dead;
        op.pending = 0;
        finish(op, now);
      }
      ++next;
    }
    for (Connection& conn : conns) conn.flush();

    // Poll without sleeping: a timed sleep on a virtual machine wakes
    // hundreds of microseconds late, which would show as generator
    // lateness and latency that the server did not cause.
    std::array<pollfd, 2> fds{};
    for (std::size_t c = 0; c < nconn; ++c) {
      fds[c].fd = conns[c].dead ? -1 : conns[c].fd;
      fds[c].events = static_cast<short>(
          POLLIN | (conns[c].output.empty() ? 0 : POLLOUT));
    }
    const int ready = ::poll(fds.data(), nconn, 0);
    now = steady_ns();
    if (ready > 0) {
      for (std::size_t c = 0; c < nconn; ++c) {
        Connection& conn = conns[c];
        if (fds[c].revents == 0 || conn.dead) continue;
        if (fds[c].revents & (POLLERR | POLLHUP | POLLNVAL)) conn.dead = true;
        if (fds[c].revents & POLLIN) {
          for (;;) {
            const long got = net::read_some(conn.fd, buffer.data(),
                                            buffer.size());
            if (got > 0) {
              conn.input.append(buffer.data(),
                                static_cast<std::size_t>(got));
              continue;
            }
            if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
              conn.dead = true;
            }
            break;
          }
          net::ErrorCode code = net::ErrorCode::kNone;
          for (;;) {
            const net::FrameBuffer::Next step = conn.input.next(frame, code);
            if (step == net::FrameBuffer::Next::kNeedMore) break;
            if (step == net::FrameBuffer::Next::kError) {
              conn.dead = true;
              break;
            }
            const std::uint32_t slot = frame.header.request_id - first_id;
            if (frame.header.request_id < first_id ||
                slot >= frame_request.size()) {
              conn.dead = true;  // an answer to nothing this run sent
              break;
            }
            OpState& op = ops[frame_op[slot]];
            const Request& request = *frame_request[slot];
            if (op.pending == 0) continue;  // already failed
            last_activity = now;
            if (frame.op() == net::Op::kError) {
              if (static_cast<net::ErrorCode>(frame.header.code) ==
                  net::ErrorCode::kBusy) {
                op.refused = true;
              } else {
                op.error = true;
              }
            } else if (request.batch) {
              if (frame.op() != net::Op::kBatchValues ||
                  net::decode_batch_values(frame.payload, values) !=
                      net::ErrorCode::kNone ||
                  values.size() != request.indices.size()) {
                op.error = true;
              } else {
                for (std::size_t k = 0; k < values.size(); ++k) {
                  if (values[k] != truth.value(static_cast<int>(request.level),
                                               request.indices[k])) {
                    ++result.wrong;
                  }
                }
              }
            } else {
              db::Value value = 0;
              if (frame.op() != net::Op::kValue ||
                  net::decode_value(frame.payload, value) !=
                      net::ErrorCode::kNone) {
                op.error = true;
              } else if (value != truth.value(static_cast<int>(request.level),
                                              request.indices[0])) {
                ++result.wrong;
              }
            }
            if (--op.pending == 0) finish(op, now);
          }
        }
      }
    }
    // A dead connection fails whatever it still owes.
    const bool any_dead = std::any_of(conns.begin(), conns.end(),
                                      [](const Connection& conn) {
                                        return conn.dead;
                                      });
    const bool stalled =
        next == count && now > std::max(last_activity, ops.back().due_ns) +
                                   kDrainTimeoutNs;
    if (any_dead || stalled) {
      for (std::size_t i = 0; i < next; ++i) {
        if (ops[i].pending > 0 && (stalled || conns[i % nconn].dead)) {
          ops[i].pending = 0;
          ops[i].error = true;
          finish(ops[i], now);
        }
      }
    }
  }
  next_id_ = first_id + static_cast<std::uint32_t>(frame_request.size());

  result.latency_us.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const OpState& op = ops[i];
    if (op.refused) {
      ++result.refused;
    } else if (op.error) {
      ++result.errors;
    } else {
      ++result.completed;
      result.latency_us.push_back(
          static_cast<double>(op.done_ns - op.due_ns) / 1e3);
    }
    if (tracer) {
      tracer->add_request("net", "request", ops_run_ + i + 1, op.due_ns,
                          op.done_ns);
    }
  }
  ops_run_ += count;
  return result;
}

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto k = static_cast<std::size_t>(std::llround(rank));
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}

}  // namespace perfbench
