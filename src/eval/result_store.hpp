#pragma once
/// \file result_store.hpp
/// Persistent, append-only binary store of evaluation results under the
/// cache dir — the cross-run half of the eval service's memo. One record per
/// (backend, app, configuration): the full counter blocks of a RunResult,
/// keyed by the 30-feature vector. The format is deliberately dumb and
/// crash-tolerant:
///
///   header : magic "ADSEVAL2", format version, feature count, record size
///   records: fixed-size, each ending in an FNV-1a checksum of its bytes
///
/// A record is published with a single buffered append, so a killed writer
/// can only ever leave a torn *tail*. The loader verifies each record's
/// checksum and truncates the file back to the last intact record — a
/// truncated store loses at most the torn record, never the run.
///
/// A file with any other header — a foreign file, or the pre-power v1
/// format ("ADSEVAL1") — is stale: it is rebuilt empty (a cache may always
/// be dropped).

#include <array>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "config/cpu_config.hpp"
#include "core/core_stats.hpp"
#include "isa/microop.hpp"
#include "mem/hierarchy.hpp"
#include "power/power_model.hpp"

namespace adse::eval {

/// One persisted evaluation: identity (backend tag + app + features) plus
/// the simulator's full counter blocks and the power-model result.
struct StoreRecord {
  std::uint64_t backend_tag = 0;  ///< ResultStore::tag(backend.key())
  std::int32_t app = 0;           ///< kernels::App as int
  std::array<double, config::kNumParams> features{};
  core::CoreStats core;
  mem::MemStats mem;
  power::PowerResult power;
};

class ResultStore {
 public:
  /// Opens (or creates) the store at `path`, loading every intact record and
  /// truncating any torn tail. The parent directory is created on demand.
  explicit ResultStore(std::string path, bool verbose = false);
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  const std::string& path() const { return path_; }

  /// Records found intact on disk at open time.
  const std::vector<StoreRecord>& loaded() const { return loaded_; }

  /// Records appended by this process since open.
  std::size_t appended() const;

  /// Persists one record (thread-safe; one buffered write + flush). A store
  /// whose handle was already closed (exit-time teardown racing a late
  /// append) drops the record instead of crashing — losing one memo entry
  /// beats corrupting the file.
  void append(const StoreRecord& record);

  /// Flushes the append handle (thread-safe; no-op when closed). Appends
  /// flush themselves — this exists for drain paths that want an explicit
  /// barrier before reporting "flushed".
  void flush();

  /// Stable 64-bit tag for a backend key string (byte-wise FNV-1a; frozen,
  /// since tags are persisted in every record).
  static std::uint64_t tag(const std::string& backend_key);

  /// On-disk size of one record, for tests and capacity estimates.
  static std::size_t record_bytes();

  /// Number of counters visit_run_counters visits.
  static std::size_t num_run_counters();

  /// Applies `fn` to every persisted counter of a record's stat blocks, in
  /// the frozen on-disk order shared by the writer and the loader. Public so
  /// the wire codec (eval/wire.cpp) serializes EvalResponse counter blocks
  /// bit-for-bit the way the store does — one visitation order, two
  /// consumers. The blocks may be const (encoders) or mutable (decoders).
  /// Adding/removing a field here changes record_bytes(), which the header
  /// check turns into a clean "stale store" rebuild instead of silent
  /// misparsing.
  template <typename Core, typename Mem, typename Fn>
  static void visit_run_counters(Core& core, Mem& mem, Fn&& fn) {
    fn(core.cycles);
    fn(core.retired);
    fn(core.retired_sve);
    for (int g = 0; g < isa::kNumInstrGroups; ++g) fn(core.retired_by_group[g]);
    fn(core.cycles_entered);
    fn(core.cycles_skipped);
    for (int s = 0; s < core::kNumStages; ++s) fn(core.stage_active_cycles[s]);
    fn(core.rs_wakeups);
    fn(core.stall_fetch_bytes);
    for (int c = 0; c < isa::kNumRegClasses; ++c) fn(core.stall_no_phys[c]);
    fn(core.stall_rob_full);
    fn(core.stall_rs_full);
    fn(core.stall_lq_full);
    fn(core.stall_sq_full);
    fn(core.loads_forwarded);
    fn(core.loads_sent);
    fn(core.stores_sent);
    fn(core.loop_buffer_ops);
    for (int c = 0; c < isa::kNumRegClasses; ++c) fn(core.regfile_reads[c]);
    for (int c = 0; c < isa::kNumRegClasses; ++c) fn(core.regfile_writes[c]);
    fn(core.sve_lane_ops);

    fn(mem.loads);
    fn(mem.stores);
    fn(mem.line_requests);
    fn(mem.l1_hits);
    fn(mem.l1_misses);
    fn(mem.l2_hits);
    fn(mem.l2_misses);
    fn(mem.ram_requests);
    fn(mem.dirty_writebacks);
    fn(mem.prefetch_fills);
    fn(mem.tlb_misses);
    fn(mem.bank_conflicts);
    fn(mem.l1_reads);
    fn(mem.l1_writes);
    fn(mem.l2_reads);
    fn(mem.l2_writes);
  }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;  ///< append handle, owned
  std::vector<StoreRecord> loaded_;
  mutable std::mutex mutex_;
  std::size_t appended_ = 0;
};

}  // namespace adse::eval
