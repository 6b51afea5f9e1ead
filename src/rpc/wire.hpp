// The wire vocabulary of the rpc front-end: every message either codec
// (rpc/codec.hpp) can carry, expressed in transport-neutral terms.
//
// Paths cross the wire as *node names*, not NodeIds: ids are an artifact
// of the order the server loaded its topology, while names are the
// stable contract shared with the trace format (io/trace_io). The server
// resolves names against its base graph at submit time; an unknown name
// is a per-request rejection (`kRejected`), never a session error.
//
// Client -> server: kHello (handshake, carries the protocol version),
// kSubmit (one update request), kDone (end of this connection's request
// stream — the client still reads until its kReport arrives).
//
// Server -> client: kHelloAck, then per submit exactly one of kAck
// (accepted into the intake queue), kDeferred (backpressure — resubmit
// later) or kRejected (malformed request: duplicate id, unknown node,
// non-positive demand, arrival past service::kMaxArrival); after
// planning, one kRecord per accepted request and a final per-session
// kReport; kError announces a session-fatal protocol violation just
// before the server closes the connection.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/graph.hpp"
#include "service/request.hpp"
#include "sim/sim_time.hpp"

namespace chronus::rpc {

inline constexpr std::uint32_t kProtocolVersion = 1;

enum class MsgType : std::uint8_t {
  kHello = 0x01,
  kSubmit = 0x02,
  kDone = 0x03,
  kHelloAck = 0x81,
  kAck = 0x82,
  kDeferred = 0x83,
  kRejected = 0x84,
  kRecord = 0x85,
  kReport = 0x86,
  kError = 0x87,
};

struct MsgTypeName {
  MsgType type;
  const char* name;
};

/// The one table of message types: each tag with its name, which is also
/// the JSON "type" field, so the two codecs share it.
inline constexpr MsgTypeName kMsgTypes[] = {
    {MsgType::kHello, "hello"},       {MsgType::kSubmit, "submit"},
    {MsgType::kDone, "done"},         {MsgType::kHelloAck, "hello_ack"},
    {MsgType::kAck, "ack"},           {MsgType::kDeferred, "deferred"},
    {MsgType::kRejected, "rejected"}, {MsgType::kRecord, "record"},
    {MsgType::kReport, "report"},     {MsgType::kError, "error"},
};

/// Human-readable tag ("submit", "record", ...) from kMsgTypes.
const char* to_string(MsgType t);

/// One update request in wire form (paths as node-name sequences).
struct WireRequest {
  std::uint64_t id = 0;
  std::string name;
  net::Demand demand{1.0};
  sim::SimTime arrival = 0;
  sim::SimTime deadline = 0;
  int priority = 0;
  std::vector<std::string> init;
  std::vector<std::string> fin;

  bool operator==(const WireRequest&) const = default;
};

/// Everything the service learned about one request, in wire form.
/// Status and degradation travel as their canonical strings
/// (service::to_string), so the two codecs cannot drift from the enum.
struct WireRecord {
  std::uint64_t id = 0;
  std::string status;
  sim::SimTime arrival = 0;
  sim::SimTime admitted = 0;
  sim::SimTime completed = 0;
  int defers = 0;
  bool joint = false;
  std::uint64_t batch = 0;
  std::int64_t plan_span = 0;
  sim::SimTime exec_duration = 0;
  int retries = 0;
  std::uint64_t faults = 0;
  std::string degradation;
  bool plan_verified = false;
  bool run_verified = false;
  int violations = 0;
  std::string message;

  bool operator==(const WireRecord&) const = default;
};

/// The per-session summary closing a connection: how many requests the
/// session submitted, how many records came back, and the digest of the
/// last planning round the session participated in (equal across every
/// session of a single-round run, and equal to the trace-fed digest —
/// the end-to-end equivalence gate of tests/rpc_soak_test.cpp).
struct WireReport {
  std::uint64_t requests = 0;
  std::uint64_t records = 0;
  std::string digest;

  bool operator==(const WireReport&) const = default;
};

/// One decoded message. `type` says which of the payload members is
/// meaningful; the rest stay default-constructed.
struct Message {
  MsgType type = MsgType::kHello;
  std::uint32_t version = kProtocolVersion;  // kHello / kHelloAck
  std::uint64_t id = 0;                      // kAck / kDeferred / kRejected
  std::string text;                          // kRejected / kError message
  WireRequest submit;                        // kSubmit
  WireRecord record;                         // kRecord
  WireReport report;                         // kReport

  bool operator==(const Message&) const = default;
};

/// Name -> id index of a graph, built once per server/client.
std::map<std::string, net::NodeId> node_index(const net::Graph& g);

/// Service request -> wire form (ids become names via `g`).
WireRequest to_wire(const net::Graph& g, const service::UpdateRequest& r);

/// Wire form -> service request against the server's base graph. Throws
/// std::runtime_error naming the offending field on unknown nodes, paths
/// shorter than two hops, non-positive demand, or an arrival outside
/// [0, service::kMaxArrival].
service::UpdateRequest from_wire(
    const std::map<std::string, net::NodeId>& index, const WireRequest& w);

/// Service record -> wire form.
WireRecord to_wire(const service::RequestRecord& rec);

}  // namespace chronus::rpc
