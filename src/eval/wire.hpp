#pragma once
/// \file wire.hpp
/// Versioned binary wire protocol for eval-as-a-service (`adse::serve`): the
/// serialization layer the daemon and the socket client share with the
/// in-process path bit-for-bit. An `EvalRequest` is encoded as its feature
/// vector (the same 30 doubles the memo keys on), an `EvalResponse` as the
/// full counter blocks in the result store's frozen v2 visitation order —
/// one byte layout, three consumers (memo, store, wire).
///
/// Framing mirrors the result-store discipline (DESIGN.md §15):
///
///   header : magic "ADSW", u32 version, u32 type, u64 id, u32 payload_len
///   body   : payload_len bytes
///   trailer: u64 checksum of header + payload — FNV-1a over 8-byte words
///            in four interleaved lanes, `h ^= h >> 32` after each
///            multiply, the lanes folded in lane order, tail bytes
///            byte-wise (`hash::fnv1a_words`, common/hash.hpp; version 3 —
///            version 2 ran one lane, version 1 hashed byte by byte)
///
/// Every frame is written in place: its size is computed first, then the
/// header, payload and trailer are copied into the output buffer after one
/// resize (append_request / append_response write a daemon's or client's
/// connection buffer directly; no payload string is built and copied).
///
/// A frame is published with a single buffered write, so a torn stream can
/// only ever be short — `try_decode` reports kNeedMore until the bytes
/// arrive. Corruption (bad magic / absurd length / checksum mismatch) is
/// unrecoverable mid-stream: the peer answers with an error frame and closes
/// the connection, exactly like the store truncating a torn tail. A version
/// mismatch is detected before anything else is trusted, so old clients get
/// a clean kVersionMismatch instead of a misparse.

#include <cstdint>
#include <string>
#include <string_view>

#include "eval/api.hpp"

namespace adse::eval::wire {

/// Protocol version; bumped on any frame, checksum or payload layout change.
inline constexpr std::uint32_t kVersion = 3;

/// Frame magic: "ADSW".
inline constexpr std::uint32_t kMagic = 0x57534441u;

/// Bytes before the payload (magic + version + type + id + payload_len).
inline constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 8 + 4;

/// Bytes after the payload (word-wise checksum of header + payload).
inline constexpr std::size_t kTrailerBytes = 8;

/// Upper bound on a payload — far above any real frame (a response is a few
/// KB); anything larger is corruption, not a big message.
inline constexpr std::size_t kMaxPayload = 1u << 20;

/// Frame types. Requests carry a client-chosen id; the matching response
/// echoes it (the pipelined client keys in-flight requests on it).
enum class FrameType : std::uint32_t {
  kEvalRequest = 1,   ///< payload: encode_request
  kEvalResponse = 2,  ///< payload: encode_response
  kError = 3,         ///< payload: encode_error (request-level failure)
  kPing = 4,          ///< control: empty payload
  kPong = 5,          ///< control: empty payload
  kStats = 6,         ///< control: empty payload (asks for a snapshot)
  kStatsReply = 7,    ///< control: registry render_json text
  kDrain = 8,         ///< control: ask the server to drain and exit
};

/// One decoded frame. `payload` views into the caller's buffer — valid only
/// until the buffer mutates.
struct Frame {
  FrameType type = FrameType::kError;
  std::uint64_t id = 0;
  std::string_view payload;
};

/// try_decode outcome. Everything except kOk/kNeedMore is a protocol error:
/// the stream cannot be resynchronized and must be closed (after an error
/// frame, when the detector is the server).
enum class DecodeStatus {
  kOk,
  kNeedMore,       ///< incomplete frame: read more bytes and retry
  kBadMagic,       ///< stream out of sync or not speaking this protocol
  kBadVersion,     ///< peer speaks a different protocol version
  kBadLength,      ///< declared payload exceeds kMaxPayload
  kBadChecksum,    ///< frame bytes corrupted in flight
};

/// Human-readable slug for a decode status ("ok", "bad-checksum", ...).
const char* decode_status_name(DecodeStatus status);

/// Maps a protocol-level decode failure onto the API status a client
/// surfaces (kBadFrame, kVersionMismatch).
EvalStatus decode_status_to_eval(DecodeStatus status);

/// Encodes one complete frame (header + payload + checksum trailer).
std::string encode_frame(FrameType type, std::uint64_t id,
                         std::string_view payload);

/// Appends one complete frame to `out` — what encode_frame returns, without
/// a string per frame (the daemon packs a batch's responses into one send).
void append_frame(std::string& out, FrameType type, std::uint64_t id,
                  std::string_view payload);

/// Appends one kEvalRequest frame carrying encode_request(request), written
/// in place: the same bytes as append_frame of that payload.
void append_request(std::string& out, std::uint64_t id,
                    const EvalRequest& request);

/// Appends one kEvalResponse frame carrying encode_response(response),
/// written in place.
void append_response(std::string& out, std::uint64_t id,
                     const EvalResponse& response);

/// Attempts to decode the frame at the head of `buffer`. On kOk, `out` is
/// filled (payload viewing into `buffer`) and `consumed` is the total frame
/// size to drop from the buffer's front. On kNeedMore nothing is consumed.
/// On any error `consumed` is 0 and the stream must be torn down.
DecodeStatus try_decode(std::string_view buffer, Frame& out,
                        std::size_t& consumed);

/// --- payload codecs ---------------------------------------------------------
/// Decoders are hardened against hostile bytes: every read is bounds-checked
/// and every enum range-checked, so a fuzzed payload yields `false`, never a
/// crash or an out-of-range enum.

std::string encode_request(const EvalRequest& request);

/// Decodes a request payload. With `shard_hash` set, a decoded request's
/// request_shard_hash is stored there, computed from the feature bits the
/// decoder has already read.
bool decode_request(std::string_view payload, EvalRequest& out,
                    std::uint64_t* shard_hash = nullptr);

std::string encode_response(const EvalResponse& response);
bool decode_response(std::string_view payload, EvalResponse& out);

std::string encode_error(const EvalError& error);
bool decode_error(std::string_view payload, EvalError& out);

/// Stable shard hash of a request's identity (app + feature bits): the
/// daemon routes a request to worker `hash % N`, so identical configs always
/// land on the same worker and coalesce on its memo shard.
std::uint64_t request_shard_hash(const EvalRequest& request);

}  // namespace adse::eval::wire
