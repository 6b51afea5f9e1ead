// Closed-loop wave client for rpc::Server: one thread, `connections`
// loopback sockets, one wave in flight at a time.
//
// A wave's submits are dealt round-robin over the connections and written
// together; the wave ends when every submit is acked and every record has
// come back. Each request is timed from the moment its submit frame is
// handed to the socket (send() accepts its first byte) until its record is
// decoded. Any deferred or rejected reply, protocol error or timeout ends
// the wave with an error: the intake is sized above the wave, so none is
// expected.
//
// rpc::run_load cannot serve here: it sends one batch, ends each
// connection with `done`, and returns records without per-request times.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/graph.hpp"
#include "rpc/codec.hpp"
#include "service/request.hpp"

namespace chronus::perfbench {

struct WaveResult {
  /// Aligned with the wave's requests; a missing record keeps id 0 and an
  /// empty status.
  std::vector<rpc::WireRecord> records;
  std::vector<double> latency_ms;
  std::string error;  ///< first transport or protocol failure; empty if ok
};

class WaveClient {
 public:
  WaveClient(const net::Graph& graph, std::uint16_t port, rpc::Codec codec,
             std::size_t connections);
  ~WaveClient();
  WaveClient(const WaveClient&) = delete;
  WaveClient& operator=(const WaveClient&) = delete;

  /// Opens every connection and completes its handshake. Returns the
  /// failure, or "" on success.
  std::string connect();

  WaveResult run_wave(const std::vector<service::UpdateRequest>& wave);

  /// Sends done on every connection, waits for each report, closes.
  std::string finish();

 private:
  using Clock = std::chrono::steady_clock;
  struct Conn;
  /// Handles one decoded message; returns a failure or "".
  using Handler = std::function<std::string(Conn&, const rpc::Message&)>;

  /// Polls every connection — flushing output, decoding input into
  /// `handler` — until `done()` holds. Returns a failure or "".
  std::string pump(const std::function<bool()>& done, const Handler& handler);
  std::string flush(Conn& c);
  std::string read(Conn& c, const Handler& handler);
  void close_all();

  const net::Graph& graph_;
  std::uint16_t port_;
  rpc::Codec codec_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<Clock::time_point> submitted_at_;  ///< per request of the wave
};

}  // namespace chronus::perfbench
