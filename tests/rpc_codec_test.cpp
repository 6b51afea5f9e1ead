// Tests for the rpc wire codecs: encode/decode round-trips for every
// message type under both encodings (including bit-exact doubles), the
// incremental splitter down to byte-at-a-time feeds, and the defensive
// path — every seeded bad-frame fixture under testdata/rpc must yield a
// structured decoder error (sticky poison), never an exception or a
// ContractViolation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "net/graph.hpp"
#include "rpc/codec.hpp"
#include "rpc/wire.hpp"
#include "util/rng.hpp"

namespace chronus::rpc {
namespace {

std::string fixture(const std::string& name) {
  const std::string path = std::string(CHRONUS_TESTDATA_DIR) + "/rpc/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Strips the 4-byte stream magic a binary fixture opens with; the
/// session's codec sniff consumes it before the Decoder ever runs.
std::string strip_magic(std::string bytes) {
  EXPECT_GE(bytes.size(), kBinaryMagic.size());
  EXPECT_EQ(bytes.substr(0, kBinaryMagic.size()), kBinaryMagic);
  return bytes.substr(kBinaryMagic.size());
}

/// One deterministic sample of every message type, with awkward strings
/// (escapes, control bytes, UTF-8) and doubles that don't round-trip
/// through short decimal forms.
std::vector<Message> sample_messages() {
  std::vector<Message> msgs;

  Message hello;
  hello.type = MsgType::kHello;
  hello.version = kProtocolVersion;
  msgs.push_back(hello);

  Message hello_ack;
  hello_ack.type = MsgType::kHelloAck;
  hello_ack.version = 7;
  msgs.push_back(hello_ack);

  Message submit;
  submit.type = MsgType::kSubmit;
  submit.submit.id = 0xdeadbeefcafe0001ULL;
  submit.submit.name = "flow \"7\"\n\ttab";
  submit.submit.demand = net::Demand{1.0 / 3.0};
  submit.submit.arrival = 123456789;
  submit.submit.deadline = 987654321;
  submit.submit.priority = -3;
  submit.submit.init = {"s0", "core\x01", "t0"};
  submit.submit.fin = {"s0", "caf\xc3\xa9", "t0"};
  msgs.push_back(submit);

  Message done;
  done.type = MsgType::kDone;
  msgs.push_back(done);

  Message ack;
  ack.type = MsgType::kAck;
  ack.id = 42;
  msgs.push_back(ack);

  Message deferred;
  deferred.type = MsgType::kDeferred;
  deferred.id = 43;
  msgs.push_back(deferred);

  Message rejected;
  rejected.type = MsgType::kRejected;
  rejected.id = 44;
  rejected.text = "unknown node 'ghost' in init";
  msgs.push_back(rejected);

  Message record;
  record.type = MsgType::kRecord;
  record.record.id = 45;
  record.record.status = "completed";
  record.record.arrival = 1;
  record.record.admitted = 2;
  record.record.completed = 3;
  record.record.defers = 4;
  record.record.plan_span = -6;
  record.record.exec_duration = 7;
  record.record.retries = 8;
  record.record.faults = 9;
  record.record.degradation = "defer";
  record.record.plan_verified = true;
  record.record.run_verified = false;
  record.record.violations = 10;
  record.record.message = "late\\slash";
  msgs.push_back(record);

  Message report;
  report.type = MsgType::kReport;
  report.report.requests = 200;
  report.report.records = 200;
  report.report.digest = "c0ffee00";
  msgs.push_back(report);

  Message error;
  error.type = MsgType::kError;
  error.text = "frame length 16777216 exceeds limit 1048576";
  msgs.push_back(error);

  return msgs;
}

Message decode_one(Codec c, const std::string& bytes) {
  Decoder dec(c);
  dec.feed(bytes);
  Message out;
  std::string err;
  const Decoder::Result r = dec.next(&out, &err);
  EXPECT_EQ(r, Decoder::Result::kMessage) << err;
  EXPECT_FALSE(dec.has_partial());
  return out;
}

TEST(Codec, SniffsBinaryAndJson) {
  Codec c;
  EXPECT_TRUE(sniff_codec('C', &c));
  EXPECT_EQ(c, Codec::kBinary);
  EXPECT_TRUE(sniff_codec('{', &c));
  EXPECT_EQ(c, Codec::kJson);
  EXPECT_FALSE(sniff_codec('G', &c));
  EXPECT_FALSE(sniff_codec('\0', &c));
  EXPECT_FALSE(sniff_codec('\n', &c));
}

TEST(Codec, RoundTripsEveryMessageTypeBothCodecs) {
  for (const Message& m : sample_messages()) {
    for (Codec c : {Codec::kBinary, Codec::kJson}) {
      const std::string bytes = encode(c, m);
      EXPECT_EQ(decode_one(c, bytes), m)
          << to_string(m.type) << " over " << to_string(c);
    }
  }
}

TEST(Codec, JsonLinesAreNewlineTerminatedObjects) {
  for (const Message& m : sample_messages()) {
    const std::string line = encode(Codec::kJson, m);
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '\n');
    // One line per message: no embedded raw newlines.
    EXPECT_EQ(line.find('\n'), line.size() - 1);
  }
}

TEST(Codec, PropertyRandomSubmitsRoundTripBitExactly) {
  util::Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    Message m;
    m.type = MsgType::kSubmit;
    m.submit.id = rng.next();
    m.submit.name = "r" + std::to_string(rng.uniform_int(0, 1 << 20));
    // Awkward but finite doubles: uniform mantissas over a wide scale.
    m.submit.demand =
        net::Demand{rng.uniform(1e-9, 1.0) * static_cast<double>(1u << rng.index(20))};
    m.submit.arrival = rng.uniform_int(0, 1LL << 40);
    m.submit.deadline = rng.uniform_int(0, 1LL << 40);
    m.submit.priority = static_cast<int>(rng.uniform_int(-8, 8));
    const std::size_t hops = 2 + rng.index(5);
    for (std::size_t h = 0; h < hops; ++h) {
      m.submit.init.push_back("n" + std::to_string(rng.index(64)));
      m.submit.fin.push_back("m" + std::to_string(rng.index(64)));
    }
    for (Codec c : {Codec::kBinary, Codec::kJson}) {
      const Message back = decode_one(c, encode(c, m));
      ASSERT_EQ(back, m) << "trial " << trial << " over " << to_string(c);
      // Defaulted == compares Demand exactly, but be explicit about the
      // property that matters: the double's bit pattern survived.
      EXPECT_EQ(back.submit.demand.value(), m.submit.demand.value());
    }
  }
}

TEST(Codec, ByteAtATimeSplitterReplaysTheWholeConversation) {
  const std::vector<Message> msgs = sample_messages();
  for (Codec c : {Codec::kBinary, Codec::kJson}) {
    std::string stream;
    for (const Message& m : msgs) stream += encode(c, m);

    Decoder dec(c);
    std::vector<Message> got;
    for (char byte : stream) {
      dec.feed(std::string_view(&byte, 1));
      for (;;) {
        Message out;
        std::string err;
        const Decoder::Result r = dec.next(&out, &err);
        if (r == Decoder::Result::kNeedMore) break;
        ASSERT_EQ(r, Decoder::Result::kMessage) << err;
        got.push_back(out);
      }
    }
    EXPECT_FALSE(dec.has_partial());
    ASSERT_EQ(got.size(), msgs.size()) << to_string(c);
    for (std::size_t i = 0; i < msgs.size(); ++i) EXPECT_EQ(got[i], msgs[i]);
  }
}

TEST(Codec, RandomChunkSplitsDecodeIdentically) {
  const std::vector<Message> msgs = sample_messages();
  util::Rng rng(7);
  for (Codec c : {Codec::kBinary, Codec::kJson}) {
    std::string stream;
    for (const Message& m : msgs) stream += encode(c, m);
    for (int trial = 0; trial < 20; ++trial) {
      Decoder dec(c);
      std::vector<Message> got;
      std::size_t pos = 0;
      while (pos < stream.size()) {
        const std::size_t n =
            std::min(stream.size() - pos, 1 + rng.index(17));
        dec.feed(std::string_view(stream.data() + pos, n));
        pos += n;
        for (;;) {
          Message out;
          std::string err;
          const Decoder::Result r = dec.next(&out, &err);
          if (r == Decoder::Result::kNeedMore) break;
          ASSERT_EQ(r, Decoder::Result::kMessage) << err;
          got.push_back(out);
        }
      }
      ASSERT_EQ(got.size(), msgs.size());
      for (std::size_t i = 0; i < msgs.size(); ++i) EXPECT_EQ(got[i], msgs[i]);
    }
  }
}

TEST(Codec, PartialFrameReportsHasPartial) {
  const std::string frame =
      encode(Codec::kBinary, sample_messages()[2]);  // the submit
  Decoder dec(Codec::kBinary);
  dec.feed(std::string_view(frame.data(), frame.size() - 1));
  Message out;
  std::string err;
  EXPECT_EQ(dec.next(&out, &err), Decoder::Result::kNeedMore);
  EXPECT_TRUE(dec.has_partial());
  dec.feed(std::string_view(frame.data() + frame.size() - 1, 1));
  EXPECT_EQ(dec.next(&out, &err), Decoder::Result::kMessage);
  EXPECT_FALSE(dec.has_partial());
}

// ---------------------------------------------------------------------------
// Defensive decoding: the seeded fixtures. Every one must produce a
// sticky decoder error with a non-empty description.

void expect_poisoned(Decoder& dec, const std::string& context) {
  Message out;
  std::string err;
  EXPECT_EQ(dec.next(&out, &err), Decoder::Result::kError) << context;
  EXPECT_FALSE(err.empty()) << context;
  // Sticky: the same error again, and feeds are ignored from now on.
  std::string again;
  EXPECT_EQ(dec.next(&out, &again), Decoder::Result::kError) << context;
  EXPECT_EQ(again, err) << context;
  dec.feed("more bytes");
  EXPECT_EQ(dec.next(&out, &again), Decoder::Result::kError) << context;
}

TEST(Codec, FixtureOversizeFrameFailsOnThePrefixAlone) {
  const std::string bytes = strip_magic(fixture("bad_oversize.bin"));
  // The length prefix alone must trip the limit — the decoder never
  // waits for a 16 MiB body that will not come.
  Decoder dec(Codec::kBinary);
  dec.feed(std::string_view(bytes.data(), 4));
  Message out;
  std::string err;
  EXPECT_EQ(dec.next(&out, &err), Decoder::Result::kError);
  EXPECT_NE(err.find("exceeds limit"), std::string::npos) << err;
  expect_poisoned(dec, "oversize");
}

TEST(Codec, FixtureUnknownTagFails) {
  Decoder dec(Codec::kBinary);
  dec.feed(strip_magic(fixture("bad_tag.bin")));
  Message out;
  std::string err;
  EXPECT_EQ(dec.next(&out, &err), Decoder::Result::kError);
  EXPECT_NE(err.find("unknown frame tag"), std::string::npos) << err;
  expect_poisoned(dec, "unknown tag");
}

TEST(Codec, FixtureTruncatedBodyFails) {
  Decoder dec(Codec::kBinary);
  dec.feed(strip_magic(fixture("bad_truncated_body.bin")));
  Message out;
  std::string err;
  EXPECT_EQ(dec.next(&out, &err), Decoder::Result::kError);
  EXPECT_NE(err.find("truncated"), std::string::npos) << err;
  expect_poisoned(dec, "truncated body");
}

TEST(Codec, FixtureTruncatedJsonLineFailsAfterTheGoodLine) {
  Decoder dec(Codec::kJson);
  dec.feed(fixture("bad_truncated.jsonl"));
  Message out;
  std::string err;
  // First line is a valid hello; the truncated submit poisons the stream.
  ASSERT_EQ(dec.next(&out, &err), Decoder::Result::kMessage) << err;
  EXPECT_EQ(out.type, MsgType::kHello);
  EXPECT_EQ(dec.next(&out, &err), Decoder::Result::kError);
  EXPECT_FALSE(err.empty());
  expect_poisoned(dec, "truncated json");
}

TEST(Codec, FixtureUnknownJsonTypeFails) {
  Decoder dec(Codec::kJson);
  dec.feed(fixture("bad_unknown_type.jsonl"));
  Message out;
  std::string err;
  ASSERT_EQ(dec.next(&out, &err), Decoder::Result::kMessage) << err;
  EXPECT_EQ(dec.next(&out, &err), Decoder::Result::kError);
  EXPECT_NE(err.find("unknown message type"), std::string::npos) << err;
  expect_poisoned(dec, "unknown json type");
}

TEST(Codec, FixtureNonJsonLineFails) {
  Decoder dec(Codec::kJson);
  dec.feed(fixture("bad_not_json.jsonl"));
  Message out;
  std::string err;
  ASSERT_EQ(dec.next(&out, &err), Decoder::Result::kMessage) << err;
  EXPECT_EQ(dec.next(&out, &err), Decoder::Result::kError);
  expect_poisoned(dec, "not json");
}

TEST(Codec, TrailingBytesInFrameFail) {
  // A hand-built kDone frame claiming one extra body byte.
  std::string frame;
  frame.push_back(2);  // u32 LE length = 2 (tag + 1 stray byte)
  frame.push_back(0);
  frame.push_back(0);
  frame.push_back(0);
  frame.push_back(0x03);  // kDone
  frame.push_back('X');
  Decoder dec(Codec::kBinary);
  dec.feed(frame);
  Message out;
  std::string err;
  EXPECT_EQ(dec.next(&out, &err), Decoder::Result::kError);
  EXPECT_NE(err.find("trailing bytes"), std::string::npos) << err;
}

TEST(Codec, EmptyFrameFails) {
  const std::string frame(4, '\0');  // u32 LE length = 0
  Decoder dec(Codec::kBinary);
  dec.feed(frame);
  Message out;
  std::string err;
  EXPECT_EQ(dec.next(&out, &err), Decoder::Result::kError);
  EXPECT_NE(err.find("empty frame"), std::string::npos) << err;
}

TEST(Codec, WrongShapeJsonFieldFails) {
  Decoder dec(Codec::kJson);
  dec.feed("{\"type\":\"ack\",\"id\":\"nope\"}\n");
  Message out;
  std::string err;
  EXPECT_EQ(dec.next(&out, &err), Decoder::Result::kError);
  EXPECT_NE(err.find("id"), std::string::npos) << err;
}

TEST(Codec, HostileVectorCountFails) {
  // A submit frame whose init-vector count claims 2^31 elements inside a
  // tiny body: the decoder must reject the count, not allocate for it.
  std::string body;
  auto put_u64 = [&body](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      body.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
    }
  };
  auto put_u32 = [&body](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      body.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
    }
  };
  put_u64(1);            // id
  put_u32(0);            // name: empty
  put_u64(0x3ff0000000000000ULL);  // demand = 1.0
  put_u64(0);            // arrival
  put_u64(0);            // deadline
  put_u32(0);            // priority
  put_u32(0x80000000u);  // init count: hostile
  std::string frame;
  const std::uint32_t len = static_cast<std::uint32_t>(1 + body.size());
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>((len >> (8 * i)) & 0xffu));
  }
  frame.push_back(0x02);  // kSubmit
  frame.append(body);
  Decoder dec(Codec::kBinary);
  dec.feed(frame);
  Message out;
  std::string err;
  EXPECT_EQ(dec.next(&out, &err), Decoder::Result::kError);
  EXPECT_NE(err.find("count exceeds frame"), std::string::npos) << err;
}

TEST(Codec, OverlongJsonLineWithoutNewlineFails) {
  Decoder dec(Codec::kJson, /*max_frame=*/64);
  dec.feed("{\"type\":\"error\",\"text\":\"" + std::string(128, 'x'));
  Message out;
  std::string err;
  EXPECT_EQ(dec.next(&out, &err), Decoder::Result::kError);
  EXPECT_NE(err.find("exceeds limit"), std::string::npos) << err;
}

// An unknown field opening 100 000 arrays: a recursive parser with no
// depth bound overflows its stack on this line (at 40 000 already).
TEST(Codec, DeepJsonNestingFailsAndPoisons) {
  Decoder dec(Codec::kJson);
  dec.feed("{\"type\":\"submit\",\"x\":" + std::string(100000, '[') + "\n");
  Message out;
  std::string err;
  EXPECT_EQ(dec.next(&out, &err), Decoder::Result::kError);
  EXPECT_EQ(err, "JSON nested deeper than " + std::to_string(kMaxJsonDepth));
  expect_poisoned(dec, "deep nesting");
}

TEST(Codec, JsonNestingUpToTheCapDecodes) {
  // The message object is one level; kMaxJsonDepth - 1 arrays inside it
  // reach the cap, one more passes it.
  const auto line = [](int arrays) {
    return "{\"type\":\"ack\",\"id\":3,\"x\":" + std::string(arrays, '[') +
           std::string(arrays, ']') + "}\n";
  };
  EXPECT_EQ(decode_one(Codec::kJson, line(kMaxJsonDepth - 1)).id, 3u);
  Decoder dec(Codec::kJson);
  dec.feed(line(kMaxJsonDepth));
  Message out;
  std::string err;
  EXPECT_EQ(dec.next(&out, &err), Decoder::Result::kError);
  EXPECT_NE(err.find("nested deeper"), std::string::npos) << err;
}

// The decoder keeps no tree, only the top-level members as spans; keys
// still match after unescaping, in any order, and a repeated key reads
// as its first occurrence.
TEST(Codec, JsonFieldsMatchByUnescapedKeyInAnyOrder) {
  const Message first = decode_one(
      Codec::kJson, "{\"i\\u0064\":2,\"\\u0074ype\":\"ack\",\"id\":3}\n");
  EXPECT_EQ(first.type, MsgType::kAck);
  EXPECT_EQ(first.id, 2u);
  const Message rejected = decode_one(
      Codec::kJson,
      "{\"text\":\"a\\nb\",\"x\":[{\"id\":9}],\"id\":4,\"type\":\"rejected\","
      "\"text\":\"later\"}\n");
  EXPECT_EQ(rejected.type, MsgType::kRejected);
  EXPECT_EQ(rejected.id, 4u);
  EXPECT_EQ(rejected.text, "a\nb");
}

// ---------------------------------------------------------------------------
// Numeric edges: boundary integers, non-finite doubles, and "negative"
// lengths — the values a fuzzer finds first and a hand test forgets.

TEST(Codec, U64BoundaryIdsRoundTripBothCodecs) {
  // Ids straddling the int64 boundary: the JSON parser must take its
  // exact-u64 path instead of rounding through double.
  const std::uint64_t ids[] = {
      0,
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()),
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) + 1,
      std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t id : ids) {
    Message m;
    m.type = MsgType::kAck;
    m.id = id;
    for (Codec c : {Codec::kBinary, Codec::kJson}) {
      EXPECT_EQ(decode_one(c, encode(c, m)).id, id)
          << id << " over " << to_string(c);
    }
  }
}

TEST(Codec, Int64BoundarySpansRoundTripBothCodecs) {
  Message m;
  m.type = MsgType::kRecord;
  m.record.id = 1;
  m.record.status = "completed";
  m.record.degradation = "full";
  m.record.plan_span = std::numeric_limits<std::int64_t>::min();
  m.record.exec_duration = std::numeric_limits<std::int64_t>::max();
  for (Codec c : {Codec::kBinary, Codec::kJson}) {
    const Message back = decode_one(c, encode(c, m));
    EXPECT_EQ(back.record.plan_span, m.record.plan_span) << to_string(c);
    EXPECT_EQ(back.record.exec_duration, m.record.exec_duration)
        << to_string(c);
  }
}

TEST(Codec, NonFiniteDemandsRoundTripBitExactlyInBinary) {
  // The binary codec ships the raw IEEE-754 bit pattern, so NaN and the
  // infinities survive even though NaN != NaN under operator==.
  const double values[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  for (double v : values) {
    Message m;
    m.type = MsgType::kSubmit;
    m.submit.id = 1;
    m.submit.demand = net::Demand{v};
    const Message back = decode_one(Codec::kBinary, encode(Codec::kBinary, m));
    std::uint64_t want = 0;
    std::uint64_t got = 0;
    const double d = back.submit.demand.value();
    std::memcpy(&want, &v, sizeof want);
    std::memcpy(&got, &d, sizeof got);
    EXPECT_EQ(got, want);
  }
}

TEST(Codec, NonFiniteDemandsAreRejectedByTheJsonParser) {
  // %.17g renders NaN/Inf as "nan"/"inf", which is not JSON; the decoder
  // must refuse the line rather than invent a number.
  const double values[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()};
  for (double v : values) {
    Message m;
    m.type = MsgType::kSubmit;
    m.submit.id = 1;
    m.submit.demand = net::Demand{v};
    Decoder dec(Codec::kJson);
    dec.feed(encode(Codec::kJson, m));
    Message out;
    std::string err;
    EXPECT_EQ(dec.next(&out, &err), Decoder::Result::kError);
    // "nan" trips the null-literal path, "inf" the top-level dispatch;
    // both must surface as structured JSON parse errors.
    EXPECT_NE(err.find("JSON"), std::string::npos) << err;
  }
}

TEST(Codec, NegativeLengthPrefixIsRejectedNotAllocated) {
  // 0xFFFFFFFF is -1 if the prefix were misread as signed; either way it
  // must trip the frame limit immediately, before any buffering.
  Decoder dec(Codec::kBinary);
  dec.feed(std::string(4, '\xff'));
  Message out;
  std::string err;
  EXPECT_EQ(dec.next(&out, &err), Decoder::Result::kError);
  EXPECT_NE(err.find("exceeds limit"), std::string::npos) << err;
}

TEST(Codec, NegativeJsonValueForUnsignedFieldFails) {
  Decoder dec(Codec::kJson);
  dec.feed("{\"type\":\"ack\",\"id\":-1}\n");
  Message out;
  std::string err;
  EXPECT_EQ(dec.next(&out, &err), Decoder::Result::kError);
  EXPECT_NE(err.find("negative field"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Golden digests. The encode golden pins every byte both encoders write
// for a fixed corpus of 820 messages: every type, integer boundaries of
// each width, escaped, control, NUL and non-ASCII strings, and empty to
// long name lists. The decode golden pins what both decoders make of
// seeded mutants of those frames and of the testdata/rpc fixtures: the
// re-encoded message(s), the exact error text, or need-more plus
// has_partial(). Both values were first recorded with the hand-written
// per-message codec that visit_body replaced, and re-pinned when protocol
// version 2 dropped the record's joint and batch fields.

constexpr std::uint64_t kEncodeGolden = 0x2c731cb6a814e1d7ULL;
constexpr std::uint64_t kDecodeGolden = 0x070ddd60255eb7e6ULL;

struct Fnv1a {
  std::uint64_t h = 14695981039346656037ULL;
  void add(std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  }
};

constexpr MsgType kAllTypes[] = {
    MsgType::kHello,    MsgType::kSubmit, MsgType::kDone,
    MsgType::kHelloAck, MsgType::kAck,    MsgType::kDeferred,
    MsgType::kRejected, MsgType::kRecord, MsgType::kReport,
    MsgType::kError};

/// A boundary value from `pool` three times in four, otherwise `fresh`.
template <class T, std::size_t N>
T pick(util::Rng& rng, const T (&pool)[N], T fresh) {
  return rng.index(4) == 0 ? fresh : pool[rng.index(N)];
}

/// Fills every payload of a message of each type, so the encoder alone
/// decides which fields reach the wire.
std::vector<Message> golden_corpus() {
  using I64 = std::numeric_limits<std::int64_t>;
  using I32 = std::numeric_limits<std::int32_t>;
  const std::uint64_t u64s[] = {
      0, 1, 255, 256, 0x7fffffffULL, 0x80000000ULL, 0xffffffffULL,
      0x100000000ULL, static_cast<std::uint64_t>(I64::max()),
      static_cast<std::uint64_t>(I64::max()) + 1,
      std::numeric_limits<std::uint64_t>::max()};
  const std::int64_t i64s[] = {I64::min(), I64::min() + 1, -(1LL << 32),
                               std::int64_t{I32::min()} - 1, -1, 0, 1,
                               I32::max(), std::int64_t{I32::max()} + 1,
                               1LL << 62, I64::max()};
  const int i32s[] = {I32::min(), I32::min() + 1, -1, 0, 1, 255, I32::max()};
  const std::uint32_t u32s[] = {0, 1, kProtocolVersion, 0x7fffffffu,
                                0x80000000u, 0xffffffffu};
  const double demands[] = {1.0, 1.0 / 3.0, 0.1, 5e-324,
                            2.2250738585072014e-308, 1e-300, 1e300,
                            std::numeric_limits<double>::max(),
                            9007199254740993.0, -0.0, 0.0, -2.5};
  const std::string strings[] = {"",
                                 "a",
                                 "r42",
                                 "flow \"7\"\n\ttab",
                                 "back\\slash/solidus",
                                 "\b\f\r",
                                 std::string("nul\0mid", 7),
                                 "\x01\x1f\x7f",
                                 "caf\xc3\xa9",
                                 "\xe2\x82\xac",
                                 "\xf0\x9f\x98\x80",
                                 "\xff\xfe",
                                 "\\u0041",
                                 std::string(100, 'x'),
                                 std::string(40, '"')};
  const std::size_t name_counts[] = {0, 1, 2, 3, 7, 20};

  util::Rng rng(0x90d1e);
  const auto str = [&] { return strings[rng.index(std::size(strings))]; };
  const auto names = [&] {
    std::vector<std::string> v(name_counts[rng.index(std::size(name_counts))]);
    for (std::string& n : v) n = strings[rng.index(9)];  // the short ones
    return v;
  };
  const auto u64 = [&] { return pick(rng, u64s, rng.next()); };
  const auto i64 = [&] {
    return pick(rng, i64s, static_cast<std::int64_t>(rng.next()));
  };
  const auto i32 = [&] {
    return pick(rng, i32s, static_cast<int>(static_cast<std::uint32_t>(
                               rng.next())));
  };
  const auto flag = [&] { return rng.index(2) == 1; };

  std::vector<Message> msgs;
  for (std::size_t i = 0; i < 820; ++i) {
    Message m;
    m.type = kAllTypes[i % std::size(kAllTypes)];
    m.version = pick(rng, u32s, static_cast<std::uint32_t>(rng.next()));
    m.id = u64();
    m.text = str();
    WireRequest& r = m.submit;
    r.id = u64();
    r.name = str();
    r.demand = net::Demand{demands[rng.index(std::size(demands))]};
    r.arrival = i64();
    r.deadline = i64();
    r.priority = i32();
    r.init = names();
    r.fin = names();
    WireRecord& rec = m.record;
    rec.id = u64();
    rec.status = str();
    rec.arrival = i64();
    rec.admitted = i64();
    rec.completed = i64();
    rec.defers = i32();
    rec.plan_span = i64();
    rec.exec_duration = i64();
    rec.retries = i32();
    rec.faults = u64();
    rec.degradation = str();
    rec.plan_verified = flag();
    rec.run_verified = flag();
    rec.violations = i32();
    rec.message = str();
    m.report.requests = u64();
    m.report.records = u64();
    m.report.digest = str();
    msgs.push_back(std::move(m));
  }
  return msgs;
}

/// One to three edits: bit flip, byte insert, byte delete, truncation, or
/// a u32 little-endian rewrite — of the binary length prefix half the
/// time — to a value near the old one or near a bound the decoder checks.
std::string mutate(std::string s, bool binary, util::Rng& rng) {
  const std::size_t edits = 1 + rng.index(3);
  for (std::size_t e = 0; e < edits; ++e) {
    switch (rng.index(5)) {
      case 0:
        if (!s.empty()) {
          const std::size_t at = rng.index(s.size());
          s[at] ^= static_cast<char>(1u << rng.index(8));
        }
        break;
      case 1: {
        // One draw per statement: argument evaluation order is
        // unspecified, and the golden must not depend on the compiler.
        const std::size_t at = rng.index(s.size() + 1);
        s.insert(at, 1, static_cast<char>(rng.index(256)));
        break;
      }
      case 2:
        if (!s.empty()) s.erase(rng.index(s.size()), 1);
        break;
      case 3:
        s.resize(rng.index(s.size() + 1));
        break;
      default: {
        if (s.size() < 4) break;
        const std::size_t off =
            binary && rng.index(2) == 0 ? 0 : rng.index(s.size() - 3);
        std::uint32_t old = 0;
        for (std::size_t k = 0; k < 4; ++k) {
          old |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(s[off + k]))
                 << (8 * k);
        }
        const auto rest = static_cast<std::uint32_t>(s.size() - off - 4);
        const std::uint32_t values[] = {old + 1,  old - 1,     old + 2,
                                        old - 2,  0,           1,
                                        255,      256,         257,
                                        rest / 4, rest / 4 + 1, rest,
                                        rest + 1, 0x7fffffffu, 0xffffffffu};
        const std::uint32_t v = values[rng.index(std::size(values))];
        for (std::size_t k = 0; k < 4; ++k) {
          s[off + k] = static_cast<char>((v >> (8 * k)) & 0xffu);
        }
        break;
      }
    }
  }
  return s;
}

TEST(Codec, GoldenEncodeDigestBothCodecs) {
  Fnv1a h;
  for (const Message& m : golden_corpus()) {
    h.add(encode(Codec::kBinary, m));
    h.add(encode(Codec::kJson, m));
  }
  EXPECT_EQ(h.h, kEncodeGolden) << std::hex << h.h;
}

TEST(Codec, GoldenDecodeDigestOverSeededMutants) {
  struct Seed {
    Codec codec;
    std::string bytes;
  };
  std::vector<Seed> seeds;
  for (const Message& m : golden_corpus()) {
    for (Codec c : {Codec::kBinary, Codec::kJson}) {
      seeds.push_back({c, encode(c, m)});
    }
  }
  for (const char* name : {"bad_oversize.bin", "bad_tag.bin",
                           "bad_truncated_body.bin"}) {
    seeds.push_back({Codec::kBinary, strip_magic(fixture(name))});
  }
  for (const char* name : {"bad_not_json.jsonl", "bad_truncated.jsonl",
                           "bad_unknown_type.jsonl"}) {
    seeds.push_back({Codec::kJson, fixture(name)});
  }

  util::Rng rng(0xdec0de);
  Fnv1a h;
  std::size_t messages = 0, errors = 0, need_more = 0;
  for (const Seed& seed : seeds) {
    for (int k = 0; k < 30; ++k) {
      Decoder dec(seed.codec, /*max_frame=*/256);
      dec.feed(mutate(seed.bytes, seed.codec == Codec::kBinary, rng));
      for (;;) {
        Message out;
        std::string err;
        const Decoder::Result r = dec.next(&out, &err);
        if (r == Decoder::Result::kMessage) {
          ++messages;
          h.add("M");
          h.add(encode(seed.codec, out));
          continue;
        }
        if (r == Decoder::Result::kError) {
          ++errors;
          h.add("E");
          h.add(err);
        } else {
          ++need_more;
          h.add(dec.has_partial() ? "N1" : "N0");
        }
        break;
      }
      h.add("|");
    }
  }
  EXPECT_EQ(seeds.size() * 30, 49380u);
  // The mutants reach every verdict, not just the first length check.
  EXPECT_GT(messages, 1000u);
  EXPECT_GT(errors, 10000u);
  EXPECT_GT(need_more, 1000u);
  EXPECT_EQ(h.h, kDecodeGolden) << std::hex << h.h;
}

// ---------------------------------------------------------------------------
// Wire-form conversions against a named graph.

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

TEST(Wire, RequestRoundTripsThroughNames) {
  const net::Graph g = named_diamond();
  const auto index = node_index(g);
  service::UpdateRequest r;
  r.id = 9;
  r.name = "flow9";
  r.p_init = net::Path{0, 1, 2};
  r.p_fin = net::Path{0, 3, 2};
  r.demand = net::Demand{1.5};
  r.arrival = 1000;
  r.deadline = 9000;
  r.priority = 2;

  const WireRequest w = to_wire(g, r);
  EXPECT_EQ(w.init, (std::vector<std::string>{"s", "m", "t"}));
  EXPECT_EQ(w.fin, (std::vector<std::string>{"s", "b", "t"}));

  const service::UpdateRequest back = from_wire(index, w);
  EXPECT_EQ(back.id, r.id);
  EXPECT_EQ(back.name, r.name);
  EXPECT_EQ(back.p_init.nodes(), r.p_init.nodes());
  EXPECT_EQ(back.p_fin.nodes(), r.p_fin.nodes());
  EXPECT_EQ(back.demand.value(), r.demand.value());
  EXPECT_EQ(back.arrival, r.arrival);
  EXPECT_EQ(back.deadline, r.deadline);
  EXPECT_EQ(back.priority, r.priority);
}

TEST(Wire, FromWireRejectsMalformedRequests) {
  const net::Graph g = named_diamond();
  const auto index = node_index(g);
  WireRequest good;
  good.id = 1;
  good.init = {"s", "m", "t"};
  good.fin = {"s", "b", "t"};
  good.demand = net::Demand{1.0};

  WireRequest ghost = good;
  ghost.fin = {"s", "ghost", "t"};
  EXPECT_THROW(from_wire(index, ghost), std::runtime_error);

  WireRequest short_path = good;
  short_path.init = {"s"};
  EXPECT_THROW(from_wire(index, short_path), std::runtime_error);

  WireRequest bad_demand = good;
  bad_demand.demand = net::Demand{0.0};
  EXPECT_THROW(from_wire(index, bad_demand), std::runtime_error);

  // Past the service horizon the dispatcher's epoch arithmetic would
  // overflow: the arrival is refused at the wire, naming the field.
  for (const sim::SimTime arrival :
       {service::kMaxArrival + 1, std::numeric_limits<sim::SimTime>::max()}) {
    WireRequest late = good;
    late.arrival = arrival;
    try {
      from_wire(index, late);
      ADD_FAILURE() << "accepted arrival " << arrival;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("arrival:", 0), 0u) << e.what();
    }
  }
  WireRequest horizon = good;
  horizon.arrival = service::kMaxArrival;
  EXPECT_NO_THROW(from_wire(index, horizon));

  EXPECT_NO_THROW(from_wire(index, good));
}

}  // namespace
}  // namespace chronus::rpc
