// Tests for the rpc front-end of the update service: IntakeQueue
// backpressure semantics, order-independent run digests, loopback
// round-trips through both codecs, and the malformed-input contract —
// a bad frame is a structured per-session error that never disturbs the
// other sessions and never surfaces as a ContractViolation.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "rpc/codec.hpp"
#include "rpc/load_driver.hpp"
#include "rpc/server.hpp"
#include "service/intake_queue.hpp"
#include "service/service.hpp"
#include "service/workload.hpp"
#include "util/rng.hpp"

namespace chronus::rpc {
namespace {

using service::IntakeQueue;

service::UpdateRequest small_request(std::uint64_t id) {
  service::UpdateRequest r;
  r.id = id;
  r.p_init = net::Path{0, 1, 2};
  r.p_fin = net::Path{0, 3, 2};
  r.demand = net::Demand{1.0};
  r.arrival = static_cast<sim::SimTime>(id) * 1000;
  return r;
}

// ---------------------------------------------------------------------------
// IntakeQueue: the backpressure contract.

TEST(IntakeQueueTest, SoftLimitDefersBeforeTheHardWall) {
  IntakeQueue q(/*capacity=*/2);
  EXPECT_EQ(q.try_push(small_request(1)), IntakeQueue::Push::kAccepted);
  EXPECT_EQ(q.try_push(small_request(2)), IntakeQueue::Push::kAccepted);
  // Depth reached the capacity: the producer is deferred and nothing is
  // queued.
  EXPECT_EQ(q.try_push(small_request(3)), IntakeQueue::Push::kDeferred);
  EXPECT_EQ(q.depth(), 2u);

  const auto batch = q.take_batch();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 1u);
  EXPECT_EQ(batch[1].id, 2u);
  // Drained: the deferred producer's retry is accepted.
  EXPECT_EQ(q.try_push(small_request(3)), IntakeQueue::Push::kAccepted);
}

TEST(IntakeQueueTest, ZeroSoftLimitMeansDeferralOnlyAtCapacity) {
  IntakeQueue q(/*capacity=*/2);
  EXPECT_EQ(q.capacity(), 2u);
  EXPECT_EQ(q.try_push(small_request(1)), IntakeQueue::Push::kAccepted);
  EXPECT_EQ(q.depth(), 1u);
  EXPECT_EQ(q.try_push(small_request(2)), IntakeQueue::Push::kAccepted);
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.try_push(small_request(3)), IntakeQueue::Push::kDeferred);
}

// ---------------------------------------------------------------------------
// Arrival order: the dispatcher sorts by (arrival, id), so however the
// wire interleaves requests, the digest is the generated order's.

TEST(RunIntakeTest, WireOrderIndependenceMatchesVectorRun) {
  service::WorkloadOptions wopt;
  wopt.requests = 40;
  wopt.seed = 11;
  const service::ServiceTrace trace = service::make_workload(wopt);

  service::ServiceOptions sopt;
  sopt.workers = 2;
  const std::string direct =
      service::UpdateService(trace.graph, sopt).run(trace.requests).digest();

  std::vector<service::UpdateRequest> shuffled = trace.requests;
  util::Rng rng(99);
  rng.shuffle(shuffled);
  const service::ServiceReport rep =
      service::UpdateService(trace.graph, sopt).run(std::move(shuffled));

  EXPECT_EQ(rep.digest(), direct);
  EXPECT_EQ(rep.total(), trace.requests.size());
}

// ---------------------------------------------------------------------------
// Loopback server: both codecs deliver the in-process records and digest.

TEST(RpcServerTest, LoopbackBothCodecsMatchInProcessRun) {
  service::WorkloadOptions wopt;
  wopt.requests = 30;
  wopt.seed = 21;
  const service::ServiceTrace trace = service::make_workload(wopt);

  service::ServiceOptions sopt;
  sopt.workers = 2;
  const service::ServiceReport direct =
      service::UpdateService(trace.graph, sopt).run(trace.requests);

  for (Codec codec : {Codec::kBinary, Codec::kJson}) {
    ServerOptions opts;
    opts.intake_capacity = 64;  // > requests: a single planning round
    opts.service = sopt;
    Server server(trace.graph, opts);
    server.start();

    LoadOptions lopt;
    lopt.port = server.port();
    lopt.codec = codec;
    lopt.connections = 4;
    const LoadResult load = run_load(trace.graph, trace.requests, lopt);
    server.join();

    ASSERT_TRUE(load.ok) << to_string(codec) << ": " << load.error;
    EXPECT_EQ(load.acked, trace.requests.size());
    EXPECT_EQ(load.rejected, 0u);
    EXPECT_EQ(load.reports, 4u);
    ASSERT_EQ(load.records.size(), direct.records.size());
    for (std::size_t i = 0; i < load.records.size(); ++i) {
      EXPECT_EQ(load.records[i], to_wire(direct.records[i])) << "record " << i;
    }
    for (const std::string& digest : load.digests) {
      EXPECT_EQ(digest, direct.digest()) << to_string(codec);
    }
    const auto rounds = server.round_reports();
    ASSERT_EQ(rounds.size(), 1u);
    EXPECT_EQ(rounds[0].digest(), direct.digest());
    EXPECT_EQ(server.stats().accepted, trace.requests.size());
  }
}

TEST(RpcServerTest, DrainWithNoTrafficShutsDownCleanly) {
  net::Graph g;
  g.add_node("a");
  g.add_node("b");
  g.add_link(0, 1, net::Capacity{1.0}, 1);
  Server server(g);
  server.start();
  EXPECT_NE(server.port(), 0);
  server.drain();
  server.drain();  // idempotent
  server.join();
  EXPECT_EQ(server.stats().sessions, 0u);
  EXPECT_EQ(server.stats().rounds, 0u);
  EXPECT_TRUE(server.round_reports().empty());
}

// ---------------------------------------------------------------------------
// Raw-socket protocol conformance: malformed input is a structured,
// per-session error.

int dial(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // Wall-clock safety net only — a correct server answers immediately.
  timeval tv{};
  tv.tv_sec = 30;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// Reads server messages until EOF (or a decode error on our side, which
/// would mean the server sent garbage — fails the test).
std::vector<Message> read_until_eof(int fd, Codec codec) {
  Decoder dec(codec);
  std::vector<Message> got;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    EXPECT_GE(n, 0) << "recv timed out or failed";
    if (n <= 0) break;
    dec.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
    for (;;) {
      Message m;
      std::string err;
      const Decoder::Result r = dec.next(&m, &err);
      if (r == Decoder::Result::kNeedMore) break;
      EXPECT_EQ(r, Decoder::Result::kMessage) << err;
      if (r != Decoder::Result::kMessage) return got;
      got.push_back(m);
    }
  }
  EXPECT_FALSE(dec.has_partial()) << "server closed mid-frame";
  return got;
}

std::string json_line(const Message& m) { return encode(Codec::kJson, m); }

Message hello(std::uint32_t version = kProtocolVersion) {
  Message m;
  m.type = MsgType::kHello;
  m.version = version;
  return m;
}

Message submit_msg(std::uint64_t id, std::vector<std::string> init,
                   std::vector<std::string> fin, double demand_units = 1.0) {
  Message m;
  m.type = MsgType::kSubmit;
  m.submit.id = id;
  m.submit.name = "r" + std::to_string(id);
  m.submit.demand = net::Demand{demand_units};
  m.submit.init = std::move(init);
  m.submit.fin = std::move(fin);
  return m;
}

net::Graph named_diamond() {
  net::Graph g;
  const net::NodeId s = g.add_node("s");
  const net::NodeId m = g.add_node("m");
  const net::NodeId t = g.add_node("t");
  const net::NodeId b = g.add_node("b");
  g.add_link(s, m, net::Capacity{4.0}, 1);
  g.add_link(m, t, net::Capacity{4.0}, 1);
  g.add_link(s, b, net::Capacity{4.0}, 1);
  g.add_link(b, t, net::Capacity{4.0}, 1);
  return g;
}

TEST(RpcProtocolTest, PerRequestRejectionsAndDuplicateIds) {
  Server server(named_diamond());
  server.start();
  const int fd = dial(server.port());

  std::string out;
  out += json_line(hello());
  out += json_line(submit_msg(1, {"s", "m", "t"}, {"s", "b", "t"}));
  out += json_line(submit_msg(1, {"s", "m", "t"}, {"s", "b", "t"}));  // dup
  out += json_line(submit_msg(2, {"s", "ghost", "t"}, {"s", "b", "t"}));
  out += json_line(submit_msg(3, {"s", "m", "t"}, {"s", "b", "t"}, 0.0));
  Message done;
  done.type = MsgType::kDone;
  out += json_line(done);
  send_all(fd, out);

  const std::vector<Message> replies = read_until_eof(fd, Codec::kJson);
  ::close(fd);
  server.join();

  // hello_ack, ack(1), rejected(1 dup), rejected(2 ghost), rejected(3
  // demand), record(1), report.
  ASSERT_EQ(replies.size(), 7u);
  EXPECT_EQ(replies[0].type, MsgType::kHelloAck);
  EXPECT_EQ(replies[1].type, MsgType::kAck);
  EXPECT_EQ(replies[1].id, 1u);
  EXPECT_EQ(replies[2].type, MsgType::kRejected);
  EXPECT_NE(replies[2].text.find("duplicate"), std::string::npos);
  EXPECT_EQ(replies[3].type, MsgType::kRejected);
  EXPECT_NE(replies[3].text.find("ghost"), std::string::npos);
  EXPECT_EQ(replies[4].type, MsgType::kRejected);
  EXPECT_EQ(replies[5].type, MsgType::kRecord);
  EXPECT_EQ(replies[5].record.id, 1u);
  EXPECT_EQ(replies[6].type, MsgType::kReport);
  EXPECT_EQ(replies[6].report.requests, 4u);  // every submit frame, incl. bad
  EXPECT_EQ(replies[6].report.records, 1u);
  EXPECT_FALSE(replies[6].report.digest.empty());

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.protocol_errors, 0u);  // per-request errors, not fatal
}

TEST(RpcProtocolTest, MalformedSessionFailsAloneOthersKeepWorking) {
  const net::Graph g = named_diamond();
  Server server(g);
  server.start();

  // Session 1: valid handshake, then an unknown message type — the server
  // must answer with a structured kError and close only this session.
  {
    const int fd = dial(server.port());
    send_all(fd, json_line(hello()) + "{\"type\":\"warp\",\"id\":9}\n");
    const std::vector<Message> replies = read_until_eof(fd, Codec::kJson);
    ::close(fd);
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_EQ(replies[0].type, MsgType::kHelloAck);
    EXPECT_EQ(replies[1].type, MsgType::kError);
    EXPECT_NE(replies[1].text.find("unknown message type"), std::string::npos);
  }

  // Session 2: first byte matches neither codec — the server cannot even
  // pick an encoding for kError; it just closes.
  {
    const int fd = dial(server.port());
    send_all(fd, "GET / HTTP/1.0\r\n\r\n");
    const std::vector<Message> replies = read_until_eof(fd, Codec::kJson);
    ::close(fd);
    EXPECT_TRUE(replies.empty());
  }

  // Session 3: submit before hello is session-fatal.
  {
    const int fd = dial(server.port());
    send_all(fd, json_line(submit_msg(5, {"s", "m", "t"}, {"s", "b", "t"})));
    const std::vector<Message> replies = read_until_eof(fd, Codec::kJson);
    ::close(fd);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].type, MsgType::kError);
    EXPECT_NE(replies[0].text.find("expected hello"), std::string::npos);
  }

  // Session 4: wrong protocol version.
  {
    const int fd = dial(server.port());
    send_all(fd, json_line(hello(99)));
    const std::vector<Message> replies = read_until_eof(fd, Codec::kJson);
    ::close(fd);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].type, MsgType::kError);
    EXPECT_NE(replies[0].text.find("version"), std::string::npos);
  }

  // The server is undisturbed: a well-behaved client still gets full
  // service after four hostile sessions.
  std::vector<service::UpdateRequest> reqs;
  for (std::uint64_t id = 1; id <= 3; ++id) reqs.push_back(small_request(id));
  LoadOptions lopt;
  lopt.port = server.port();
  const LoadResult load = run_load(g, reqs, lopt);
  server.join();

  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.acked, 3u);
  EXPECT_EQ(load.records.size(), 3u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions, 5u);
  EXPECT_EQ(stats.protocol_errors, 4u);
  EXPECT_EQ(stats.accepted, 3u);
}

TEST(RpcProtocolTest, BinaryGarbageAfterMagicIsAStructuredError) {
  Server server(named_diamond());
  server.start();
  const int fd = dial(server.port());

  // Valid magic + hello, then a frame with an unknown tag: the kError
  // reply arrives on the binary codec before the close.
  std::string out(kBinaryMagic);
  out += encode(Codec::kBinary, hello());
  out += std::string("\x05\x00\x00\x00\x7f"
                     "ABCD",
                     9);
  send_all(fd, out);
  const std::vector<Message> replies = read_until_eof(fd, Codec::kBinary);
  ::close(fd);
  server.join();

  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].type, MsgType::kHelloAck);
  EXPECT_EQ(replies[1].type, MsgType::kError);
  EXPECT_NE(replies[1].text.find("unknown frame tag"), std::string::npos);
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

}  // namespace
}  // namespace chronus::rpc
