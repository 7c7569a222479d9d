#include "eval/result_store.hpp"

#include <cstring>
#include <filesystem>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "common/require.hpp"
#include "obs/log.hpp"

namespace adse::eval {

namespace {

constexpr char kMagic[8] = {'A', 'D', 'S', 'E', 'V', 'A', 'L', '2'};
constexpr std::uint32_t kVersion = 2;
/// Doubles in the power block (dynamic_j, leakage_j, area_mm2).
constexpr std::size_t kPowerDoubles = 3;

/// Record checksum: byte-wise FNV-1a, frozen so every existing store loads.
std::uint64_t checksum(const void* data, std::size_t n) {
  return hash::fnv1a_bytes(data, n);
}

std::string encode(const StoreRecord& record) {
  std::string out;
  bytes::Writer w(out, ResultStore::record_bytes());
  w.u64(record.backend_tag);
  w.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(record.app)));
  for (double f : record.features) w.f64(f);
  ResultStore::visit_run_counters(record.core, record.mem,
                                  [&w](std::uint64_t v) { w.u64(v); });
  w.f64(record.power.dynamic_j);
  w.f64(record.power.leakage_j);
  w.f64(record.power.area_mm2);
  w.u64(checksum(out.data(), out.size() - sizeof(std::uint64_t)));
  return out;
}

/// Decodes one record; returns false on checksum mismatch (torn write).
bool decode(const unsigned char* data, std::size_t size, StoreRecord& record) {
  const std::size_t body = size - sizeof(std::uint64_t);
  if (checksum(data, body) != bytes::Cursor(data + body).u64()) return false;
  bytes::Cursor c(data);
  record.backend_tag = c.u64();
  record.app = static_cast<std::int32_t>(static_cast<std::int64_t>(c.u64()));
  for (double& f : record.features) f = c.f64();
  ResultStore::visit_run_counters(record.core, record.mem,
                                  [&c](std::uint64_t& v) { v = c.u64(); });
  record.power.dynamic_j = c.f64();
  record.power.leakage_j = c.f64();
  record.power.area_mm2 = c.f64();
  return true;
}

std::string encode_header() {
  std::string out(kMagic, sizeof(kMagic));
  const std::uint32_t fields[3] = {
      kVersion, static_cast<std::uint32_t>(config::kNumParams),
      static_cast<std::uint32_t>(ResultStore::record_bytes())};
  out.append(reinterpret_cast<const char*>(fields), sizeof(fields));
  return out;
}

}  // namespace

std::size_t ResultStore::num_run_counters() {
  static const std::size_t n = [] {
    std::size_t count = 0;
    const core::CoreStats core;
    const mem::MemStats mem;
    visit_run_counters(core, mem, [&count](std::uint64_t) { ++count; });
    return count;
  }();
  return n;
}

std::size_t ResultStore::record_bytes() {
  // tag + app + features + counters + power block + checksum, 8-byte slots.
  return 8 * (2 + config::kNumParams + num_run_counters() + kPowerDoubles + 1);
}

std::uint64_t ResultStore::tag(const std::string& backend_key) {
  return hash::fnv1a_bytes(backend_key.data(), backend_key.size());
}

ResultStore::ResultStore(std::string path, bool verbose)
    : path_(std::move(path)) {
  namespace fs = std::filesystem;
  const fs::path p(path_);
  if (p.has_parent_path()) {
    std::error_code ec;
    fs::create_directories(p.parent_path(), ec);
  }

  // Load phase: swallow the whole file, keep the intact prefix.
  std::string contents;
  if (std::FILE* in = std::fopen(path_.c_str(), "rb")) {
    char buffer[1 << 16];
    std::size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
      contents.append(buffer, n);
    }
    std::fclose(in);
  }

  const std::string header = encode_header();
  std::size_t good = 0;
  if (contents.size() >= header.size() &&
      std::memcmp(contents.data(), header.data(), header.size()) == 0) {
    good = header.size();
    const std::size_t rec = record_bytes();
    const auto* data = reinterpret_cast<const unsigned char*>(contents.data());
    while (good + rec <= contents.size()) {
      StoreRecord record;
      if (!decode(data + good, rec, record)) break;
      loaded_.push_back(record);
      good += rec;
    }
    if (good < contents.size() && verbose) {
      obs::logf(obs::LogLevel::kWarn,
                "[eval-store] %s: dropping %zu torn trailing bytes "
                "(%zu records intact)\n",
                path_.c_str(), contents.size() - good, loaded_.size());
    }
  } else if (!contents.empty() && verbose) {
    obs::logf(obs::LogLevel::kWarn,
              "[eval-store] %s: stale or foreign header; rebuilding\n",
              path_.c_str());
  }

  // Publish phase: rewrite header + intact records if anything was torn or
  // stale, then hold an append handle.
  if (good != contents.size() || contents.empty()) {
    std::FILE* out = std::fopen(path_.c_str(), "wb");
    ADSE_REQUIRE_MSG(out != nullptr, "cannot open eval store " << path_);
    std::fwrite(header.data(), 1, header.size(), out);
    for (const StoreRecord& record : loaded_) {
      const std::string bytes = encode(record);
      std::fwrite(bytes.data(), 1, bytes.size(), out);
    }
    std::fclose(out);
  }
  file_ = std::fopen(path_.c_str(), "ab");
  ADSE_REQUIRE_MSG(file_ != nullptr,
                   "cannot open eval store " << path_ << " for append");
}

ResultStore::~ResultStore() {
  // Close under the append lock: a pool thread finishing its last run while
  // static destruction tears the service down must find either an open
  // handle or a clean nullptr — never a freed FILE*.
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
}

std::size_t ResultStore::appended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return appended_;
}

void ResultStore::append(const StoreRecord& record) {
  const std::string bytes = encode(record);
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return;
  std::fwrite(bytes.data(), 1, bytes.size(), file_);
  std::fflush(file_);
  ++appended_;
}

void ResultStore::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) std::fflush(file_);
}

}  // namespace adse::eval
