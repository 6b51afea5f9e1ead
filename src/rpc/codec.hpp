// The two wire encodings of rpc::Message, sharing one vocabulary
// (rpc/wire.hpp) so a conversation is bit-for-bit replayable across
// transports:
//
//   * kBinary — length-prefixed frames `[u32 LE length][u8 type][body]`
//     where `length` counts the type byte plus the body. Integers are
//     little-endian fixed width, strings and vectors carry a u32 count,
//     doubles travel as their IEEE-754 bit pattern (exact round-trip).
//     A binary client opens its stream with the 4-byte magic "CRB1"
//     (consumed by the session's codec sniff, not by the decoder).
//   * kJson — one JSON object per '\n'-terminated line, `"type"` naming
//     the message (rpc::to_string tags). Doubles print with %.17g, so
//     decode(encode(m)) is bit-identical here too. A JSON client's first
//     byte is '{', which is how the session tells the codecs apart.
//
// Encoding appends in place (encode_to): a session encodes every frame of
// a reactor pass straight into its one outbound buffer.
//
// Decoding is incremental and defensive: feed() arbitrary byte slices
// (down to one byte at a time), next() yields complete messages. Any
// malformed input — oversized length prefix, unknown type tag, truncated
// or non-JSON line, JSON nested deeper than kMaxJsonDepth, field of the
// wrong shape — yields kError with a description and the decoder goes
// sticky: the stream is poisoned and the session must close. Malformed
// *wire* input is a session-level error, never a ContractViolation:
// remote bytes are input, not invariants.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "rpc/wire.hpp"

namespace chronus::rpc {

enum class Codec : std::uint8_t { kBinary = 0, kJson = 1 };

const char* to_string(Codec c);

/// Stream prologue a binary client sends before its first frame.
inline constexpr std::string_view kBinaryMagic = "CRB1";

/// Frames larger than this are a protocol error (guards the 4-byte length
/// prefix against hostile or corrupted input).
inline constexpr std::size_t kDefaultMaxFrame = 1u << 20;

/// JSON arrays and objects nested deeper than this are a protocol error
/// (the protocol itself nests two deep). It bounds the parser's recursion,
/// which a line of a million '[' would otherwise run off the stack.
inline constexpr int kMaxJsonDepth = 64;

namespace detail {
struct JsonMember;  // one scanned top-level member of a JSON line
struct JsonSpan;    // one scanned value: a member's, or its array's element
}  // namespace detail

/// Identifies the codec from the first byte a client sends: 'C' (magic)
/// -> kBinary, '{' -> kJson, anything else -> unknown (session closes).
/// Returns true and sets `out` iff the byte is recognised.
bool sniff_codec(char first_byte, Codec* out);

/// Appends one message to `out` as a complete frame (binary) or line
/// (JSON).
void encode_to(Codec c, const Message& m, std::string& out);

/// Encodes one message as a complete frame (binary) or line (JSON).
std::string encode(Codec c, const Message& m);

/// Incremental frame splitter + decoder for one direction of one stream.
class Decoder {
 public:
  enum class Result {
    kNeedMore,  ///< no complete frame buffered yet
    kMessage,   ///< one message decoded into *out
    kError,     ///< protocol error; decoder is now sticky-poisoned
  };

  explicit Decoder(Codec c, std::size_t max_frame = kDefaultMaxFrame);
  ~Decoder();

  /// Appends raw stream bytes (any split, including byte-at-a-time).
  void feed(std::string_view bytes);

  /// Extracts the next complete message. On kError, `*error` describes
  /// the violation and every later call returns kError again.
  Result next(Message* out, std::string* error);

  /// Unconsumed bytes are buffered but do not form a complete frame —
  /// at stream EOF this means the peer sent a truncated message.
  bool has_partial() const { return !poisoned_ && pos_ < buf_.size(); }

  Codec codec() const { return codec_; }

 private:
  Result fail(std::string* error, std::string what);

  Codec codec_;
  std::size_t max_frame_;
  std::string buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  bool poisoned_ = false;
  std::string poison_;
  // The JSON scan of the current line, kept so a long-lived stream reuses
  // the storage line after line.
  std::vector<detail::JsonMember> members_;
  std::vector<detail::JsonSpan> elems_;
};

}  // namespace chronus::rpc
