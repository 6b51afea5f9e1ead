// One accepted connection of the rpc server: a state machine driven
// entirely from the reactor thread (no locks — the reactor *is* the
// synchronisation domain; see rpc/reactor.hpp).
//
//   kHandshake --hello/hello_ack--> kStreaming --done--> kDraining
//        \                              |                    |
//         \--- bad first byte ---------- \--- protocol ------+--> kClosed
//              or version skew               error (kError
//                                            frame, close)
//
// kHandshake: the first byte picks the codec ('C' -> binary magic,
// '{' -> JSON; anything else closes), then the first message must be a
// kHello with the expected protocol version, answered kHelloAck.
//
// kStreaming: every kSubmit is answered through the server's on_submit
// hook with exactly one of kAck / kDeferred / kRejected; kDone moves the
// session to kDraining.
//
// kDraining: the client has finished submitting; the session only writes
// — the server delivers kRecord frames as planning rounds complete and a
// final kReport, then calls finish(), which closes once the outbound
// buffer has flushed.
//
// Errors: any malformed frame (oversized length, unknown tag, truncated
// JSON, bad field) poisons only *this* session — a best-effort kError
// frame is written and the connection closes. The server and its other
// sessions are untouched, and no ContractViolation is ever raised for
// wire input.
//
// Backpressure: pause_reading() deregisters read interest, so a client
// that keeps sending fills the kernel socket buffers and blocks; the
// server pauses a session whose submit the intake queue just deferred.
// resume_reading() re-arms reads and immediately re-processes bytes
// already buffered.
//
// Writes: send() only encodes the frame onto the end of the outbound
// buffer. Each reactor entry point that queues frames — on_io after its
// read loop, resume_reading after the parked bytes, the server's round
// delivery after the round's records — ends with one flush(), so a pass
// costs one send(2) per session however many frames it queued, and no
// frame waits past the pass that queued it. fail() and finish() flush
// on their own. Whatever the socket refuses stays queued behind write
// interest, in order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "rpc/codec.hpp"
#include "rpc/reactor.hpp"

namespace chronus::rpc {

class Session {
 public:
  enum class State { kHandshake, kStreaming, kDraining, kClosed };

  struct Hooks {
    /// Answer to one kSubmit: a kAck, kDeferred or kRejected message.
    std::function<Message(Session&, const WireRequest&)> on_submit;
    /// The client sent kDone (entering kDraining).
    std::function<void(Session&)> on_done;
    /// The session reached kClosed (exactly once; `reason` empty for a
    /// clean close). The server must not delete the Session object from
    /// inside this hook — post() the erase to the reactor instead.
    std::function<void(Session&, const std::string&)> on_close;
  };

  /// Takes ownership of `fd` (closed on destruction or close).
  Session(Reactor& reactor, int fd, std::uint64_t sid, Hooks hooks);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Registers with the reactor; call once, from the reactor thread.
  void start();

  /// Queues one server->client message at the end of the outbound
  /// buffer. Nothing reaches the socket until flush().
  void send(const Message& m);

  /// Writes the queued frames (one send(2) when the socket takes them
  /// all) and arms write interest for whatever it refused.
  void flush();

  /// All server->client traffic has been queued: close as soon as the
  /// outbound buffer drains (immediately if already empty).
  void finish();

  /// Protocol failure: best-effort kError frame, then close.
  void fail(const std::string& reason);

  /// Stop/resume consuming client bytes (kernel-buffer backpressure).
  void pause_reading();
  void resume_reading();
  bool paused() const { return paused_; }

  State state() const { return state_; }
  std::uint64_t sid() const { return sid_; }
  int fd() const { return fd_; }

  bool codec_known() const { return decoder_ != nullptr; }
  /// Only meaningful once codec_known().
  Codec codec() const { return codec_; }

  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t delivered() const { return delivered_; }

 private:
  void on_io(short revents);
  void handle_readable();
  /// Sniffs the codec if still unknown, then decodes and dispatches
  /// every complete buffered message.
  void process_input(std::string_view bytes);
  void handle_message(const Message& m);
  /// The send(2) loop behind flush(), without the interest update.
  void write_out();
  void update_interest();
  void close_now(const std::string& reason);
  const char* codec_tag() const;

  Reactor& reactor_;
  int fd_;
  std::uint64_t sid_;
  Hooks hooks_;

  State state_ = State::kHandshake;
  Codec codec_ = Codec::kBinary;
  std::unique_ptr<Decoder> decoder_;  // null until the codec is sniffed
  std::string sniff_buf_;             // bytes seen before the codec is known
  std::string out_;                   // unflushed outbound bytes
  std::size_t out_pos_ = 0;
  short interest_ = 0;                // events last registered
  bool paused_ = false;
  bool finishing_ = false;
  bool closed_hook_fired_ = false;
  std::uint64_t submitted_ = 0;  // kSubmit frames seen
  std::uint64_t delivered_ = 0;  // kRecord frames sent
};

}  // namespace chronus::rpc
