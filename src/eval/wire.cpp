#include "eval/wire.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "common/require.hpp"
#include "eval/result_store.hpp"

namespace adse::eval::wire {

namespace {

using bytes::string_bytes;
using Features = std::array<double, config::kNumParams>;

/// Frame trailer: the word-wise hash (common/hash.hpp) of header + payload.
std::uint64_t frame_checksum(const char* data, std::size_t n) {
  return hash::fnv1a_words(data, n);
}

/// Shard hash of an app and its feature bits (request_shard_hash).
std::uint64_t shard_hash(std::uint32_t app, const Features& features) {
  return hash::fnv1a_words(features.data(), sizeof(features),
                           hash::mix_word(hash::kFnvOffset, app));
}

/// True if `features` survive config_from_features' casts: every feature is
/// finite, and every one but the four real-valued clocks/latency is an
/// integer within int range (a cast of anything else is undefined).
bool castable(const Features& features) {
  using config::ParamId;
  for (std::size_t p = 0; p < features.size(); ++p) {
    const double f = features[p];
    if (!std::isfinite(f)) return false;
    const auto id = static_cast<ParamId>(p);
    if (id == ParamId::kL1Clock || id == ParamId::kL2Clock ||
        id == ParamId::kRamLatency || id == ParamId::kRamClock) {
      continue;
    }
    // The range test comes first: it makes the cast below defined.
    if (f < std::numeric_limits<int>::min() ||
        f > std::numeric_limits<int>::max() ||
        static_cast<double>(static_cast<int>(f)) != f) {
      return false;
    }
  }
  return true;
}

/// Bounds-checked sequential reader over an untrusted payload. Every get_*
/// reports success; a short or hostile payload makes the first out-of-range
/// read fail and the decoder bail, with nothing partially trusted.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool get_u32(std::uint32_t& v) {
    const char* at = take(sizeof(v));
    if (at == nullptr) return false;
    std::memcpy(&v, at, sizeof(v));
    return true;
  }

  bool get_string(std::string& s) {
    std::uint32_t n;
    if (!get_u32(n)) return false;
    const char* at = take(n);
    if (at == nullptr) return false;
    s.assign(at, n);
    return true;
  }

  /// The next `n` bytes after one bounds check, or nullptr if fewer remain.
  const char* take(std::size_t n) {
    if (n > data_.size() - pos_) return nullptr;
    const char* at = data_.data() + pos_;
    pos_ += n;
    return at;
  }

  /// Whole payload consumed — trailing garbage is a decode failure too.
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

// Payload encoders: each frame kind's one writer, sized by its *_bytes
// twin, runs either into a payload string (encode_*) or straight into a
// frame (append_*).

std::size_t request_bytes(const EvalRequest& request) {
  return 4 + 4 + string_bytes(request.config.name) + sizeof(Features);
}

void write_request(bytes::Writer& w, const EvalRequest& request) {
  w.u32(static_cast<std::uint32_t>(request.app));
  w.u32(request.allow_surrogate ? 1u : 0u);
  w.str(request.config.name);
  // The feature vector IS the configuration on the wire — the same 30
  // doubles the memo and the result store key on, so a request round-trips
  // onto exactly the memo entry its in-process twin would hit.
  const Features features = config::feature_vector(request.config);
  w.raw(features.data(), sizeof(features));
}

/// Bytes of a response's counter and power blocks — fixed, so a decoder
/// bounds-checks the whole block once.
std::size_t response_block_bytes() {
  return 8 * (ResultStore::num_run_counters() + 3);
}

std::size_t response_bytes(const EvalResponse& response) {
  return 4 + 4 + string_bytes(response.error) +
         string_bytes(response.run.app) +
         string_bytes(response.run.config_name) + response_block_bytes();
}

void write_response(bytes::Writer& w, const EvalResponse& response) {
  w.u32(static_cast<std::uint32_t>(response.status));
  w.u32(static_cast<std::uint32_t>(response.source));
  w.str(response.error);
  w.str(response.run.app);
  w.str(response.run.config_name);
  // Counter blocks in the result store's frozen v2 visitation order — the
  // single layout contract shared by disk and wire.
  ResultStore::visit_run_counters(response.run.core, response.run.mem,
                                  [&w](std::uint64_t v) { w.u64(v); });
  w.f64(response.run.power.dynamic_j);
  w.f64(response.run.power.leakage_j);
  w.f64(response.run.power.area_mm2);
}

/// A payload of `n` bytes written by `write`, as its own string.
template <typename Write>
std::string encode_payload(std::size_t n, Write&& write) {
  std::string out;
  bytes::Writer w(out, n);
  write(w);
  ADSE_REQUIRE(w.full());
  return out;
}

/// Appends one frame whose `payload_len`-byte payload `write` fills in
/// place: the header, the payload and the trailer over both, in one resize.
template <typename Write>
void append_frame_with(std::string& out, FrameType type, std::uint64_t id,
                       std::size_t payload_len, Write&& write) {
  const std::size_t start = out.size();
  bytes::Writer w(out, kHeaderBytes + payload_len + kTrailerBytes);
  w.u32(kMagic);
  w.u32(kVersion);
  w.u32(static_cast<std::uint32_t>(type));
  w.u64(id);
  w.u32(static_cast<std::uint32_t>(payload_len));
  write(w);
  w.u64(frame_checksum(out.data() + start, kHeaderBytes + payload_len));
  ADSE_REQUIRE(w.full());
}

}  // namespace

const char* decode_status_name(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadLength: return "bad-length";
    case DecodeStatus::kBadChecksum: return "bad-checksum";
  }
  return "unknown";
}

EvalStatus decode_status_to_eval(DecodeStatus status) {
  return status == DecodeStatus::kBadVersion ? EvalStatus::kVersionMismatch
                                             : EvalStatus::kBadFrame;
}

std::string encode_frame(FrameType type, std::uint64_t id,
                         std::string_view payload) {
  std::string out;
  append_frame(out, type, id, payload);
  return out;
}

void append_frame(std::string& out, FrameType type, std::uint64_t id,
                  std::string_view payload) {
  append_frame_with(out, type, id, payload.size(),
                    [payload](bytes::Writer& w) {
                      w.raw(payload.data(), payload.size());
                    });
}

void append_request(std::string& out, std::uint64_t id,
                    const EvalRequest& request) {
  append_frame_with(
      out, FrameType::kEvalRequest, id, request_bytes(request),
      [&request](bytes::Writer& w) { write_request(w, request); });
}

void append_response(std::string& out, std::uint64_t id,
                     const EvalResponse& response) {
  append_frame_with(
      out, FrameType::kEvalResponse, id, response_bytes(response),
      [&response](bytes::Writer& w) { write_response(w, response); });
}

DecodeStatus try_decode(std::string_view buffer, Frame& out,
                        std::size_t& consumed) {
  consumed = 0;
  if (buffer.size() < kHeaderBytes) return DecodeStatus::kNeedMore;

  bytes::Cursor header(buffer.data());
  const std::uint32_t magic = header.u32();
  const std::uint32_t version = header.u32();
  const std::uint32_t type = header.u32();
  const std::uint64_t id = header.u64();
  const std::uint32_t payload_len = header.u32();

  // Order matters: magic proves we are looking at a frame boundary at all,
  // version proves the rest of the header means what we think, and only
  // then is the declared length trusted enough to wait for.
  if (magic != kMagic) return DecodeStatus::kBadMagic;
  if (version != kVersion) return DecodeStatus::kBadVersion;
  if (payload_len > kMaxPayload) return DecodeStatus::kBadLength;

  const std::size_t total = kHeaderBytes + payload_len + kTrailerBytes;
  if (buffer.size() < total) return DecodeStatus::kNeedMore;

  const std::size_t body = kHeaderBytes + payload_len;
  if (frame_checksum(buffer.data(), body) !=
      bytes::Cursor(buffer.data() + body).u64()) {
    return DecodeStatus::kBadChecksum;
  }

  out.type = static_cast<FrameType>(type);
  out.id = id;
  out.payload = buffer.substr(kHeaderBytes, payload_len);
  consumed = total;
  return DecodeStatus::kOk;
}

std::string encode_request(const EvalRequest& request) {
  return encode_payload(request_bytes(request), [&request](bytes::Writer& w) {
    write_request(w, request);
  });
}

bool decode_request(std::string_view payload, EvalRequest& out,
                    std::uint64_t* shard) {
  Reader r(payload);
  std::uint32_t app, allow;
  std::string name;
  if (!r.get_u32(app) || app >= static_cast<std::uint32_t>(kernels::kNumApps)) {
    return false;
  }
  if (!r.get_u32(allow) || allow > 1) return false;
  if (!r.get_string(name)) return false;
  Features features;
  const char* block = r.take(sizeof(features));
  if (block == nullptr || !r.exhausted()) return false;
  std::memcpy(features.data(), block, sizeof(features));
  if (!castable(features)) return false;
  out.app = static_cast<kernels::App>(app);
  out.allow_surrogate = allow == 1;
  out.config = config::config_from_features(features);
  out.config.name = std::move(name);
  if (shard != nullptr) *shard = shard_hash(app, features);
  // An out-of-range design would otherwise reach the engine, which sizes
  // its caches from the config before anything validates it.
  return config::is_valid(out.config);
}

std::string encode_response(const EvalResponse& response) {
  return encode_payload(response_bytes(response),
                        [&response](bytes::Writer& w) {
                          write_response(w, response);
                        });
}

bool decode_response(std::string_view payload, EvalResponse& out) {
  Reader r(payload);
  std::uint32_t status, source;
  if (!r.get_u32(status) ||
      status > static_cast<std::uint32_t>(EvalStatus::kInternal)) {
    return false;
  }
  if (!r.get_u32(source) ||
      source > static_cast<std::uint32_t>(ResultSource::kInflight)) {
    return false;
  }
  if (!r.get_string(out.error)) return false;
  if (!r.get_string(out.run.app)) return false;
  if (!r.get_string(out.run.config_name)) return false;
  // The counter and power blocks have a fixed size: one bounds check, then
  // unchecked reads.
  const char* block = r.take(response_block_bytes());
  if (block == nullptr || !r.exhausted()) return false;
  bytes::Cursor c(block);
  ResultStore::visit_run_counters(out.run.core, out.run.mem,
                                  [&c](std::uint64_t& v) { v = c.u64(); });
  out.run.power.dynamic_j = c.f64();
  out.run.power.leakage_j = c.f64();
  out.run.power.area_mm2 = c.f64();
  out.status = static_cast<EvalStatus>(status);
  out.source = static_cast<ResultSource>(source);
  return true;
}

std::string encode_error(const EvalError& error) {
  return encode_payload(4 + string_bytes(error.message),
                        [&error](bytes::Writer& w) {
                          w.u32(static_cast<std::uint32_t>(error.status));
                          w.str(error.message);
                        });
}

bool decode_error(std::string_view payload, EvalError& out) {
  Reader r(payload);
  std::uint32_t status;
  if (!r.get_u32(status) ||
      status > static_cast<std::uint32_t>(EvalStatus::kInternal)) {
    return false;
  }
  if (!r.get_string(out.message)) return false;
  if (!r.exhausted()) return false;
  out.status = static_cast<EvalStatus>(status);
  return true;
}

std::uint64_t request_shard_hash(const EvalRequest& request) {
  return shard_hash(static_cast<std::uint32_t>(request.app),
                    config::feature_vector(request.config));
}

}  // namespace adse::eval::wire
