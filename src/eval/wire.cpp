#include "eval/wire.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "eval/result_store.hpp"

namespace adse::eval::wire {

namespace {

using bytes::put_double;
using bytes::put_string;
using bytes::put_u32;
using bytes::put_u64;
using bytes::string_bytes;

/// Frame trailer: the word-wise hash (common/hash.hpp) of header + payload.
std::uint64_t frame_checksum(const char* data, std::size_t n) {
  return hash::fnv1a_words(data, n);
}

/// True if `features` survive config_from_features' casts: every feature is
/// finite, and every one but the four real-valued clocks/latency is an
/// integer within int range (a cast of anything else is undefined).
bool castable(const std::array<double, config::kNumParams>& features) {
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

  bool get_u32(std::uint32_t& v) { return get_raw(&v, sizeof(v)); }
  bool get_u64(std::uint64_t& v) { return get_raw(&v, sizeof(v)); }

  bool get_double(double& v) {
    std::uint64_t bits;
    if (!get_u64(bits)) return false;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
  }

  bool get_string(std::string& s) {
    std::uint32_t n;
    if (!get_u32(n)) return false;
    if (n > data_.size() - pos_) return false;
    s.assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  /// Whole payload consumed — trailing garbage is a decode failure too.
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  bool get_raw(void* out, std::size_t n) {
    if (n > data_.size() - pos_) return false;
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

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
  const std::size_t start = out.size();
  out.reserve(start + kHeaderBytes + payload.size() + kTrailerBytes);
  put_u32(out, kMagic);
  put_u32(out, kVersion);
  put_u32(out, static_cast<std::uint32_t>(type));
  put_u64(out, id);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  put_u64(out, frame_checksum(out.data() + start, out.size() - start));
}

DecodeStatus try_decode(std::string_view buffer, Frame& out,
                        std::size_t& consumed) {
  consumed = 0;
  if (buffer.size() < kHeaderBytes) return DecodeStatus::kNeedMore;

  Reader header(buffer.substr(0, kHeaderBytes));
  std::uint32_t magic, version, type, payload_len;
  std::uint64_t id;
  header.get_u32(magic);
  header.get_u32(version);
  header.get_u32(type);
  header.get_u64(id);
  header.get_u32(payload_len);

  // Order matters: magic proves we are looking at a frame boundary at all,
  // version proves the rest of the header means what we think, and only
  // then is the declared length trusted enough to wait for.
  if (magic != kMagic) return DecodeStatus::kBadMagic;
  if (version != kVersion) return DecodeStatus::kBadVersion;
  if (payload_len > kMaxPayload) return DecodeStatus::kBadLength;

  const std::size_t total = kHeaderBytes + payload_len + kTrailerBytes;
  if (buffer.size() < total) return DecodeStatus::kNeedMore;

  const std::size_t body = kHeaderBytes + payload_len;
  std::uint64_t trailer;
  std::memcpy(&trailer, buffer.data() + body, sizeof(trailer));
  if (frame_checksum(buffer.data(), body) != trailer) {
    return DecodeStatus::kBadChecksum;
  }

  out.type = static_cast<FrameType>(type);
  out.id = id;
  out.payload = buffer.substr(kHeaderBytes, payload_len);
  consumed = total;
  return DecodeStatus::kOk;
}

std::string encode_request(const EvalRequest& request) {
  std::string out;
  out.reserve(4 + 4 + string_bytes(request.config.name) +
              8 * config::kNumParams);
  put_u32(out, static_cast<std::uint32_t>(request.app));
  put_u32(out, request.allow_surrogate ? 1u : 0u);
  put_string(out, request.config.name);
  // The feature vector IS the configuration on the wire — the same 30
  // doubles the memo and the result store key on, so a request round-trips
  // onto exactly the memo entry its in-process twin would hit.
  for (double f : config::feature_vector(request.config)) put_double(out, f);
  return out;
}

bool decode_request(std::string_view payload, EvalRequest& out) {
  Reader r(payload);
  std::uint32_t app, allow;
  std::string name;
  if (!r.get_u32(app) || app >= static_cast<std::uint32_t>(kernels::kNumApps)) {
    return false;
  }
  if (!r.get_u32(allow) || allow > 1) return false;
  if (!r.get_string(name)) return false;
  std::array<double, config::kNumParams> features;
  for (double& f : features) {
    if (!r.get_double(f)) return false;
  }
  if (!r.exhausted() || !castable(features)) return false;
  out.app = static_cast<kernels::App>(app);
  out.allow_surrogate = allow == 1;
  out.config = config::config_from_features(features);
  out.config.name = std::move(name);
  // An out-of-range design would otherwise reach the engine, which sizes
  // its caches from the config before anything validates it.
  return config::is_valid(out.config);
}

std::string encode_response(const EvalResponse& response) {
  std::string out;
  out.reserve(4 + 4 + string_bytes(response.error) +
              string_bytes(response.run.app) +
              string_bytes(response.run.config_name) +
              8 * (ResultStore::num_run_counters() + 3));
  put_u32(out, static_cast<std::uint32_t>(response.status));
  put_u32(out, static_cast<std::uint32_t>(response.source));
  put_string(out, response.error);
  put_string(out, response.run.app);
  put_string(out, response.run.config_name);
  // Counter blocks in the result store's frozen v2 visitation order — the
  // single layout contract shared by disk and wire.
  ResultStore::visit_run_counters(response.run.core, response.run.mem,
                                  [&out](std::uint64_t v) { put_u64(out, v); });
  put_double(out, response.run.power.dynamic_j);
  put_double(out, response.run.power.leakage_j);
  put_double(out, response.run.power.area_mm2);
  return out;
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
  bool ok = true;
  ResultStore::visit_run_counters(
      out.run.core, out.run.mem,
      [&r, &ok](std::uint64_t& v) { ok = ok && r.get_u64(v); });
  if (!ok) return false;
  if (!r.get_double(out.run.power.dynamic_j)) return false;
  if (!r.get_double(out.run.power.leakage_j)) return false;
  if (!r.get_double(out.run.power.area_mm2)) return false;
  if (!r.exhausted()) return false;
  out.status = static_cast<EvalStatus>(status);
  out.source = static_cast<ResultSource>(source);
  return true;
}

std::string encode_error(const EvalError& error) {
  std::string out;
  out.reserve(4 + string_bytes(error.message));
  put_u32(out, static_cast<std::uint32_t>(error.status));
  put_string(out, error.message);
  return out;
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
  std::uint64_t h = hash::mix_word(hash::kFnvOffset,
                                   static_cast<std::uint32_t>(request.app));
  for (double f : config::feature_vector(request.config)) {
    h = hash::mix_double(h, f);
  }
  return h;
}

}  // namespace adse::eval::wire
