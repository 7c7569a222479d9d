#include "core/batched_core.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <numeric>
#include <queue>

#include "common/check.hpp"
#include "common/require.hpp"
#include "isa/microop.hpp"
#include "isa/ports.hpp"

namespace adse::core {

namespace {

bool ranges_overlap(std::uint64_t a, std::uint32_t a_size, std::uint64_t b,
                    std::uint32_t b_size) {
  return a < b + b_size && b < a + a_size;
}

int arch_regs(isa::RegClass cls) {
  switch (cls) {
    case isa::RegClass::kGp: return config::kArchGpRegs;
    case isa::RegClass::kFp: return config::kArchFpRegs;
    case isa::RegClass::kPred: return config::kArchPredRegs;
    case isa::RegClass::kCond: return config::kArchCondRegs;
    case isa::RegClass::kNone: break;
  }
  ADSE_REQUIRE_MSG(false, "arch_regs of kNone");
  return 0;
}

}  // namespace

/// The trace, decoded once per batch: everything every lane's per-cycle loop
/// reads about a µop, flattened to 32 bytes with the out-of-line lookups
/// (execution latency, SVE-ness, memory-ness) precomputed. Register indices
/// fit a byte (architectural counts are <= 32).
struct BatchedCore::DecodedOp {
  // Decoded-info bits (precomputed predicates).
  static constexpr std::uint8_t kIsSve = 1u << 0;
  static constexpr std::uint8_t kIsMemory = 1u << 1;
  static constexpr std::uint8_t kIsLoad = 1u << 2;
  static constexpr std::uint8_t kIsStore = 1u << 3;
  static constexpr std::uint8_t kIsBranch = 1u << 4;
  /// loop_body_size > 0 and not the first iteration: streams from the loop
  /// buffer iff the body also fits the lane's configured buffer.
  static constexpr std::uint8_t kLoopCandidate = 1u << 5;
  static constexpr std::uint8_t kHasDest = 1u << 6;

  std::uint64_t mem_addr = 0;
  std::uint32_t mem_size = 0;
  std::uint16_t loop_body_size = 0;
  std::uint8_t group = 0;    ///< isa::InstrGroup
  std::uint8_t latency = 1;  ///< isa::execution_latency(group)
  std::uint8_t flags = 0;    ///< raw MicroOp flags (loop-exit bit)
  std::uint8_t info = 0;     ///< k* predicate bits above
  std::uint8_t dest_cls = 0;
  std::uint8_t dest_idx = 0;
  std::uint8_t src_cls[3] = {0, 0, 0};  ///< isa::RegClass (kNone = unused)
  std::uint8_t src_idx[3] = {0, 0, 0};

  bool has(std::uint8_t bit) const { return (info & bit) != 0; }
};

/// Per-config pipeline state, one instance per lane. Register renaming
/// follows the merged-register-file scheme: a rename allocates a new physical
/// register, and committing the op frees the *previous* mapping of its
/// destination. Each physical register keeps the RS operands waiting on it as
/// one intrusive linked list over RS operand slots, so a lane's whole wakeup
/// machinery is two flat arrays.
struct BatchedCore::Lane {
  enum class RobState : std::uint8_t { kWaiting, kIssued, kCompleted };
  enum class LsqState : std::uint8_t { kWaitAgu, kReadyToSend, kInFlight, kDone };

  struct RobEntry {
    std::uint32_t op = 0;  ///< index into the decoded trace
    RobState state = RobState::kWaiting;
    isa::RegClass dest_cls = isa::RegClass::kNone;
    std::int32_t dest_phys = -1;
    std::int32_t prev_phys = -1;
    std::int32_t lsq_index = -1;
    std::uint64_t seq = 0;
  };

  struct RsEntry {
    std::uint64_t seq = 0;
    std::uint32_t rob_slot = 0;
    std::uint8_t group = 0;
    /// Source operands still pending. The entry sits on one waiter list per
    /// pending source; when the count hits zero it moves to the seq-ordered
    /// ready list and is never polled again.
    std::uint8_t not_ready = 0;
  };

  struct LsqEntry {
    bool valid = false;
    LsqState state = LsqState::kWaitAgu;
    std::uint64_t addr = 0;
    std::uint32_t size = 0;
    std::uint32_t rob_slot = 0;
    std::uint64_t seq = 0;
    /// Loads only: SQ slot/seq of the youngest older overlapping store,
    /// resolved once at dispatch (addresses are known then and older stores
    /// can only *leave* the SQ afterwards — in order, youngest-overlap last —
    /// so the cache stays exact). -1 = no older overlapping store.
    std::int32_t dep_slot = -1;
    std::uint64_t dep_seq = 0;
  };

  struct FeqOp {
    static constexpr std::uint8_t kNoCls =
        static_cast<std::uint8_t>(isa::RegClass::kNone);
    std::uint32_t op = 0;
    isa::RegClass dest_cls = isa::RegClass::kNone;
    std::int32_t dest_phys = -1;
    std::int32_t prev_phys = -1;
    std::uint8_t src_cls[3] = {kNoCls, kNoCls, kNoCls};
    std::int32_t src_phys[3] = {-1, -1, -1};
  };

  struct ExecDone {
    std::uint32_t rob_slot;
    bool is_mem_agu;
  };

  struct MemDone {
    std::uint64_t ready = 0;
    std::uint32_t rob_slot = 0;
    bool operator>(const MemDone& o) const { return ready > o.ready; }
  };

  /// Inline physical register file: mapping + ready bits + free stack, with
  /// waiters as an intrusive list threaded through `waiter_next` (node id =
  /// RS slot * 3 + source ordinal).
  struct RegFile {
    std::array<std::int32_t, 32> map{};  // arch counts are <= 32
    std::vector<std::uint8_t> ready;
    std::vector<std::int32_t> free_list;
    std::vector<std::int32_t> waiter_head;  // phys -> node, -1 = none
  };

  Lane(const config::CpuConfig& config, mem::MemoryHierarchy* hier,
       const CoreFidelity& fidelity)
      : ports(config.backend.ls_ports, config.backend.vec_ports,
              config.backend.pred_ports, config.backend.mix_ports),
        hierarchy(hier) {
    config::validate(config);
    commit_width = config.core.commit_width;
    lsq_completion_width = config.core.lsq_completion_width;
    frontend_width = config.core.frontend_width;
    dispatch_width = config.backend.dispatch_width;
    fetch_block_bytes = config.core.fetch_block_bytes;
    loop_buffer_size = config.core.loop_buffer_size;
    mem_requests_per_cycle = config.core.mem_requests_per_cycle;
    mem_loads_per_cycle = config.core.mem_loads_per_cycle;
    mem_stores_per_cycle = config.core.mem_stores_per_cycle;
    load_bandwidth_bytes = config.core.load_bandwidth_bytes;
    store_bandwidth_bytes = config.core.store_bandwidth_bytes;
    rs_cap = config.backend.reservation_station_size;
    sve_lanes =
        static_cast<std::uint64_t>(config.core.vector_length_bits) / 64;
    mispredict_interval = fidelity.mispredict_interval;
    mispredict_penalty = fidelity.mispredict_penalty;
    mispredict_loop_exits = fidelity.mispredict_loop_exits;
    forward_latency = fidelity.forward_latency;

    rob.resize(static_cast<std::size_t>(config.core.rob_size));
    rs.resize(static_cast<std::size_t>(rs_cap));
    lq.resize(static_cast<std::size_t>(config.core.load_queue_size));
    sq.resize(static_cast<std::size_t>(config.core.store_queue_size));
    feq.resize(static_cast<std::size_t>(
        std::max(16, 2 * std::max(config.core.frontend_width,
                                  config.backend.dispatch_width))));
    rob_cap = static_cast<std::uint32_t>(rob.size());
    lq_cap = static_cast<std::uint32_t>(lq.size());
    sq_cap = static_cast<std::uint32_t>(sq.size());
    feq_cap = static_cast<std::uint32_t>(feq.size());
    free_rs.reserve(rs.size());
    for (std::uint32_t i = static_cast<std::uint32_t>(rs.size()); i > 0; --i) {
      free_rs.push_back(i - 1);
    }
    ready_rs.reserve(rs.size());
    waiter_next.assign(rs.size() * 3, -1);

    const int phys_counts[isa::kNumRegClasses] = {
        config.core.gp_phys_regs, config.core.fp_phys_regs,
        config.core.pred_phys_regs, config.core.cond_phys_regs};
    for (int c = 0; c < isa::kNumRegClasses; ++c) {
      const auto cls = static_cast<isa::RegClass>(c);
      const int arch = arch_regs(cls);
      const int phys = phys_counts[c];
      ADSE_REQUIRE_MSG(phys > arch, "physical registers ("
                                        << phys
                                        << ") must exceed architectural ("
                                        << arch << ")");
      RegFile& f = regs[static_cast<std::size_t>(c)];
      for (int a = 0; a < arch; ++a) f.map[static_cast<std::size_t>(a)] = a;
      f.ready.assign(static_cast<std::size_t>(phys), 1);
      f.free_list.reserve(static_cast<std::size_t>(phys - arch));
      for (int p = phys - 1; p >= arch; --p) f.free_list.push_back(p);
      f.waiter_head.assign(static_cast<std::size_t>(phys), -1);
    }
  }

  // ---- configuration (flattened from CpuConfig / CoreFidelity) ----
  int commit_width = 0, lsq_completion_width = 0;
  int frontend_width = 0, dispatch_width = 0;
  int fetch_block_bytes = 0, loop_buffer_size = 0;
  int mem_requests_per_cycle = 0, mem_loads_per_cycle = 0,
      mem_stores_per_cycle = 0;
  int load_bandwidth_bytes = 0, store_bandwidth_bytes = 0;
  int rs_cap = 0;
  std::uint32_t rob_cap = 0, lq_cap = 0, sq_cap = 0, feq_cap = 0;
  std::uint64_t sve_lanes = 2;
  int mispredict_interval = 0, mispredict_penalty = 12, forward_latency = 1;
  bool mispredict_loop_exits = false;
  isa::PortLayout ports;
  mem::MemoryHierarchy* hierarchy;

  // ---- dynamic state ----
  std::array<RegFile, isa::kNumRegClasses> regs;
  std::vector<std::int32_t> waiter_next;  ///< RS operand slot -> next node

  std::uint64_t cycle = 0, seq = 0;
  std::size_t fetch_cursor = 0;
  bool activity = false, mem_send_capped = false;
  std::uint64_t frontend_flush_until = 0, branch_counter = 0;

  std::vector<RobEntry> rob;
  std::uint32_t rob_head = 0, rob_count = 0;
  std::vector<RsEntry> rs;
  int rs_count = 0;
  std::vector<std::uint32_t> free_rs, ready_rs;
  int sq_unresolved = 0;
  std::vector<LsqEntry> lq;
  std::uint32_t lq_head = 0, lq_count = 0;
  std::vector<LsqEntry> sq;
  std::uint32_t sq_head = 0, sq_count = 0;
  // Slots currently in kReadyToSend, ascending seq. An entry enters on AGU
  // completion and leaves only by being sent or forwarded, never by commit
  // (commit requires kDone), so mem send never scans the queues.
  std::vector<std::uint32_t> ready_lq, ready_sq;
  std::vector<FeqOp> feq;
  std::uint32_t feq_head = 0, feq_count = 0;
  // Execution completion event wheel (latencies are small constants). Bit b
  // of the occupancy mask is set iff bucket b is non-empty, so the next
  // occupied bucket is one rotate + countr_zero away.
  static constexpr std::uint32_t kBucketCount = 32;
  std::array<std::vector<ExecDone>, kBucketCount> exec_buckets;
  std::uint32_t exec_bucket_mask = 0;
  std::priority_queue<MemDone, std::vector<MemDone>, std::greater<MemDone>>
      mem_done;
  CoreStats stats;

  bool finished(std::size_t program_size) const {
    return fetch_cursor >= program_size && rob_count == 0 && feq_count == 0;
  }
};

namespace {

using Lane = BatchedCore::Lane;

// Rings use conditional wrapping instead of `% size()`: the sizes are
// runtime values, so modulo would be an integer division per use.
std::uint32_t ring_next(std::uint32_t i, std::uint32_t cap) {
  const std::uint32_t n = i + 1;
  return n == cap ? 0 : n;
}

std::uint32_t ring_add(std::uint32_t head, std::uint32_t count,
                       std::uint32_t cap) {
  const std::uint32_t s = head + count;  // count <= cap, head < cap
  return s >= cap ? s - cap : s;
}

void insert_ready(Lane& l, std::uint32_t rs_index) {
  const std::uint64_t seq = l.rs[rs_index].seq;
  auto it = l.ready_rs.end();
  while (it != l.ready_rs.begin() && l.rs[*(it - 1)].seq > seq) --it;
  l.ready_rs.insert(it, rs_index);
}

void insert_lsq_ready(std::vector<std::uint32_t>& list,
                      const std::vector<Lane::LsqEntry>& queue,
                      std::uint32_t slot) {
  const std::uint64_t seq = queue[slot].seq;
  auto it = list.end();
  while (it != list.begin() && queue[*(it - 1)].seq > seq) --it;
  list.insert(it, slot);
}

/// Marks a destination ready and delivers the wakeups. Delivery order (last
/// registered first) cannot be observed: wakeups only decrement
/// pending-source counts, and the ready list is ordered by seq, not by
/// insertion.
void wake_consumers(Lane& l, isa::RegClass cls, std::int32_t phys) {
  Lane::RegFile& f = l.regs[static_cast<std::size_t>(cls)];
  f.ready[static_cast<std::size_t>(phys)] = 1;
  std::int32_t node = f.waiter_head[static_cast<std::size_t>(phys)];
  f.waiter_head[static_cast<std::size_t>(phys)] = -1;
  while (node >= 0) {
    l.stats.rs_wakeups++;
    const auto rs_index = static_cast<std::uint32_t>(node) / 3;
    node = l.waiter_next[static_cast<std::size_t>(node)];
    if (--l.rs[rs_index].not_ready == 0) insert_ready(l, rs_index);
  }
}

void complete_rob_entry(Lane& l, std::span<const BatchedCore::DecodedOp> ops,
                        std::uint32_t rob_slot) {
  Lane::RobEntry& e = l.rob[rob_slot];
  ADSE_REQUIRE_MSG(e.state == Lane::RobState::kIssued,
                   "completing unissued op");
  e.state = Lane::RobState::kCompleted;
  if (e.dest_cls != isa::RegClass::kNone) {
    l.stats.regfile_writes[static_cast<int>(e.dest_cls)]++;
    wake_consumers(l, e.dest_cls, e.dest_phys);
  }
  if (e.lsq_index >= 0) {
    const bool is_load = ops[e.op].has(BatchedCore::DecodedOp::kIsLoad);
    Lane::LsqEntry& q = is_load ? l.lq[static_cast<std::size_t>(e.lsq_index)]
                                : l.sq[static_cast<std::size_t>(e.lsq_index)];
    q.state = Lane::LsqState::kDone;
  }
  l.activity = true;
}

void stage_commit(Lane& l, std::span<const BatchedCore::DecodedOp> ops) {
  int committed = 0;
  while (committed < l.commit_width && l.rob_count > 0) {
    Lane::RobEntry& e = l.rob[l.rob_head];
    if (e.state != Lane::RobState::kCompleted) break;
    if (e.dest_cls != isa::RegClass::kNone && e.prev_phys >= 0) {
      l.regs[static_cast<std::size_t>(e.dest_cls)].free_list.push_back(
          e.prev_phys);
    }
    const BatchedCore::DecodedOp& op = ops[e.op];
    if (e.lsq_index >= 0) {
      if (op.has(BatchedCore::DecodedOp::kIsLoad)) {
        ADSE_REQUIRE(static_cast<std::uint32_t>(e.lsq_index) == l.lq_head);
        l.lq[l.lq_head].valid = false;
        l.lq_head = ring_next(l.lq_head, l.lq_cap);
        l.lq_count--;
      } else {
        ADSE_REQUIRE(static_cast<std::uint32_t>(e.lsq_index) == l.sq_head);
        l.sq[l.sq_head].valid = false;
        l.sq_head = ring_next(l.sq_head, l.sq_cap);
        l.sq_count--;
      }
    }
    l.stats.retired++;
    l.stats.retired_by_group[op.group]++;
    if (op.has(BatchedCore::DecodedOp::kIsSve)) {
      l.stats.retired_sve++;
      l.stats.sve_lane_ops += l.sve_lanes;
    }
    l.rob_head = ring_next(l.rob_head, l.rob_cap);
    l.rob_count--;
    committed++;
  }
  if (committed > 0) {
    l.activity = true;
    l.stats.stage_active_cycles[static_cast<int>(Stage::kCommit)]++;
  }
}

void stage_complete(Lane& l, std::span<const BatchedCore::DecodedOp> ops) {
  const auto bucket_index =
      static_cast<std::uint32_t>(l.cycle % Lane::kBucketCount);
  auto& bucket = l.exec_buckets[bucket_index];
  const bool had_exec = !bucket.empty();
  for (const Lane::ExecDone& done : bucket) {
    if (done.is_mem_agu) {
      Lane::RobEntry& e = l.rob[done.rob_slot];
      const bool is_load = ops[e.op].has(BatchedCore::DecodedOp::kIsLoad);
      const auto slot = static_cast<std::uint32_t>(e.lsq_index);
      Lane::LsqEntry& q = is_load ? l.lq[slot] : l.sq[slot];
      q.state = Lane::LsqState::kReadyToSend;
      if (is_load) {
        insert_lsq_ready(l.ready_lq, l.lq, slot);
      } else {
        insert_lsq_ready(l.ready_sq, l.sq, slot);
        l.sq_unresolved--;
      }
      l.activity = true;
    } else {
      complete_rob_entry(l, ops, done.rob_slot);
    }
  }
  bucket.clear();
  l.exec_bucket_mask &= ~(1u << bucket_index);

  int drained = 0;
  while (!l.mem_done.empty() && l.mem_done.top().ready <= l.cycle &&
         drained < l.lsq_completion_width) {
    complete_rob_entry(l, ops, l.mem_done.top().rob_slot);
    l.mem_done.pop();
    drained++;
  }
  if (had_exec || drained > 0) {
    l.stats.stage_active_cycles[static_cast<int>(Stage::kComplete)]++;
  }
}

void stage_mem_send(Lane& l) {
  if (l.ready_lq.empty() && l.ready_sq.empty()) return;
  int requests = 0;
  int loads = 0;
  int stores = 0;
  int load_budget = l.load_bandwidth_bytes;
  int store_budget = l.store_bandwidth_bytes;
  bool loads_blocked = false;
  bool stores_blocked = false;
  bool progressed = false;

  std::size_t li = 0, si = 0;
  while (requests < l.mem_requests_per_cycle) {
    Lane::LsqEntry* load = (!loads_blocked && li < l.ready_lq.size())
                               ? &l.lq[l.ready_lq[li]]
                               : nullptr;
    Lane::LsqEntry* store = (!stores_blocked && si < l.ready_sq.size())
                                ? &l.sq[l.ready_sq[si]]
                                : nullptr;
    if (load == nullptr && store == nullptr) break;

    const bool pick_load =
        store == nullptr || (load != nullptr && load->seq < store->seq);
    if (pick_load) {
      Lane::LsqEntry* dep = nullptr;
      if (load->dep_slot >= 0) {
        Lane::LsqEntry& st = l.sq[static_cast<std::size_t>(load->dep_slot)];
        if (st.valid && st.seq == load->dep_seq) {
          dep = &st;
        } else {
          load->dep_slot = -1;
        }
      }
      if (dep != nullptr && l.sq_unresolved > 0 &&
          dep->state == Lane::LsqState::kWaitAgu) {
        loads_blocked = true;
        continue;
      }
      if (dep != nullptr) {
        load->state = Lane::LsqState::kInFlight;
        l.mem_done.push(Lane::MemDone{
            l.cycle + static_cast<std::uint64_t>(l.forward_latency),
            load->rob_slot});
        l.stats.loads_forwarded++;
        l.activity = true;
        progressed = true;
        li++;
        continue;
      }
      if (loads >= l.mem_loads_per_cycle ||
          load_budget < static_cast<int>(load->size)) {
        loads_blocked = true;
        l.mem_send_capped = true;
        continue;
      }
      const auto result = l.hierarchy->access(load->addr, load->size,
                                              /*is_store=*/false, l.cycle);
      load->state = Lane::LsqState::kInFlight;
      l.mem_done.push(Lane::MemDone{result.ready_cycle, load->rob_slot});
      l.stats.loads_sent++;
      loads++;
      requests++;
      load_budget -= static_cast<int>(load->size);
      l.activity = true;
      progressed = true;
      li++;
    } else {
      if (stores >= l.mem_stores_per_cycle ||
          store_budget < static_cast<int>(store->size)) {
        stores_blocked = true;
        l.mem_send_capped = true;
        continue;
      }
      const auto result = l.hierarchy->access(store->addr, store->size,
                                              /*is_store=*/true, l.cycle);
      store->state = Lane::LsqState::kInFlight;
      l.mem_done.push(Lane::MemDone{result.ready_cycle, store->rob_slot});
      l.stats.stores_sent++;
      stores++;
      requests++;
      store_budget -= static_cast<int>(store->size);
      l.activity = true;
      progressed = true;
      si++;
    }
    if (loads_blocked && stores_blocked) break;
  }
  if (li > 0) {
    l.ready_lq.erase(l.ready_lq.begin(),
                     l.ready_lq.begin() + static_cast<std::ptrdiff_t>(li));
  }
  if (si > 0) {
    l.ready_sq.erase(l.ready_sq.begin(),
                     l.ready_sq.begin() + static_cast<std::ptrdiff_t>(si));
  }
  if (requests >= l.mem_requests_per_cycle) {
    l.mem_send_capped = true;
  }
  if (progressed) {
    l.stats.stage_active_cycles[static_cast<int>(Stage::kMemSend)]++;
  }
}

int pick_port(const Lane& l, std::uint64_t free_ports, isa::InstrGroup group) {
  const isa::PortLayout::GroupMasks& m = l.ports.masks_for(group);
  std::uint64_t avail = free_ports & m.primary;
  if (avail == 0) avail = free_ports & m.fallback;
  if (avail == 0) return -1;
  return std::countr_zero(avail);
}

void stage_issue(Lane& l, std::span<const BatchedCore::DecodedOp> ops) {
  if (l.ready_rs.empty()) return;
  std::uint64_t free_ports = l.ports.all_ports_mask();
  int issued = 0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < l.ready_rs.size(); ++i) {
    const std::uint32_t idx = l.ready_rs[i];
    Lane::RsEntry& e = l.rs[idx];
    const auto group = static_cast<isa::InstrGroup>(e.group);
    const int port = pick_port(l, free_ports, group);
    if (port < 0) {
      l.ready_rs[kept++] = idx;
      continue;
    }
    free_ports &= ~(1ULL << port);

    Lane::RobEntry& rob = l.rob[e.rob_slot];
    rob.state = Lane::RobState::kIssued;
    const BatchedCore::DecodedOp& op = ops[rob.op];
    const bool is_mem = op.has(BatchedCore::DecodedOp::kIsMemory);
    const auto bucket_index = static_cast<std::uint32_t>(
        (l.cycle + op.latency) % Lane::kBucketCount);
    l.exec_buckets[bucket_index].push_back(Lane::ExecDone{e.rob_slot, is_mem});
    l.exec_bucket_mask |= 1u << bucket_index;

    if (op.has(BatchedCore::DecodedOp::kIsBranch)) {
      bool mispredicted = false;
      if (l.mispredict_interval > 0) {
        l.branch_counter++;
        mispredicted =
            l.branch_counter %
                static_cast<std::uint64_t>(l.mispredict_interval) ==
            0;
      }
      if (l.mispredict_loop_exits &&
          (op.flags & isa::kFlagLoopExit) != 0) {
        mispredicted = true;
      }
      if (mispredicted) {
        l.frontend_flush_until = std::max(
            l.frontend_flush_until,
            l.cycle + static_cast<std::uint64_t>(l.mispredict_penalty));
      }
    }

    l.rs_count--;
    l.free_rs.push_back(idx);
    issued++;
    l.activity = true;
  }
  l.ready_rs.resize(kept);
  if (issued > 0) {
    l.stats.stage_active_cycles[static_cast<int>(Stage::kIssue)]++;
  }
}

void stage_dispatch(Lane& l, std::span<const BatchedCore::DecodedOp> ops) {
  int dispatched = 0;
  while (dispatched < l.dispatch_width && l.feq_count > 0) {
    const Lane::FeqOp& f = l.feq[l.feq_head];
    const BatchedCore::DecodedOp& op = ops[f.op];
    const bool is_load = op.has(BatchedCore::DecodedOp::kIsLoad);
    const bool is_store = op.has(BatchedCore::DecodedOp::kIsStore);

    if (l.rob_count >= l.rob_cap) {
      if (dispatched == 0) l.stats.stall_rob_full++;
      break;
    }
    if (l.rs_count >= l.rs_cap) {
      if (dispatched == 0) l.stats.stall_rs_full++;
      break;
    }
    if (is_load && l.lq_count >= l.lq_cap) {
      if (dispatched == 0) l.stats.stall_lq_full++;
      break;
    }
    if (is_store && l.sq_count >= l.sq_cap) {
      if (dispatched == 0) l.stats.stall_sq_full++;
      break;
    }

    const std::uint32_t rob_slot = ring_add(l.rob_head, l.rob_count, l.rob_cap);
    Lane::RobEntry& rob = l.rob[rob_slot];
    rob.op = f.op;
    rob.state = Lane::RobState::kWaiting;
    rob.dest_cls = f.dest_cls;
    rob.dest_phys = f.dest_phys;
    rob.prev_phys = f.prev_phys;
    rob.lsq_index = -1;
    rob.seq = l.seq++;
    l.rob_count++;

    if (is_load || is_store) {
      auto& queue = is_load ? l.lq : l.sq;
      const std::uint32_t slot =
          is_load ? ring_add(l.lq_head, l.lq_count, l.lq_cap)
                  : ring_add(l.sq_head, l.sq_count, l.sq_cap);
      Lane::LsqEntry& entry = queue[slot];
      entry.valid = true;
      entry.state = Lane::LsqState::kWaitAgu;
      entry.addr = op.mem_addr;
      entry.size = op.mem_size;
      entry.rob_slot = rob_slot;
      entry.seq = rob.seq;
      entry.dep_slot = -1;
      entry.dep_seq = 0;
      rob.lsq_index = static_cast<std::int32_t>(slot);
      if (is_load) {
        std::uint32_t sq_slot = l.sq_head;
        for (std::uint32_t s = 0; s < l.sq_count; ++s) {
          const Lane::LsqEntry& st = l.sq[sq_slot];
          if (ranges_overlap(entry.addr, entry.size, st.addr, st.size)) {
            entry.dep_slot = static_cast<std::int32_t>(sq_slot);
            entry.dep_seq = st.seq;
          }
          sq_slot = ring_next(sq_slot, l.sq_cap);
        }
        l.lq_count++;
      } else {
        l.sq_unresolved++;
        l.sq_count++;
      }
    }

    ADSE_REQUIRE_MSG(!l.free_rs.empty(), "RS free list out of sync");
    const std::uint32_t rs_slot = l.free_rs.back();
    l.free_rs.pop_back();
    Lane::RsEntry& e = l.rs[rs_slot];
    e.rob_slot = rob_slot;
    e.seq = rob.seq;
    e.group = op.group;
    e.not_ready = 0;
    for (int s = 0; s < 3; ++s) {
      const auto cls = static_cast<isa::RegClass>(f.src_cls[s]);
      if (cls == isa::RegClass::kNone) continue;
      l.stats.regfile_reads[static_cast<int>(cls)]++;
      Lane::RegFile& rf = l.regs[static_cast<std::size_t>(cls)];
      const auto phys = static_cast<std::size_t>(f.src_phys[s]);
      if (rf.ready[phys] == 0) {
        const auto node = static_cast<std::int32_t>(rs_slot * 3 +
                                                    static_cast<std::uint32_t>(s));
        l.waiter_next[static_cast<std::size_t>(node)] = rf.waiter_head[phys];
        rf.waiter_head[phys] = node;
        e.not_ready++;
      }
    }
    l.rs_count++;
    if (e.not_ready == 0) l.ready_rs.push_back(rs_slot);

    l.feq_head = ring_next(l.feq_head, l.feq_cap);
    l.feq_count--;
    dispatched++;
    l.activity = true;
  }
  if (dispatched > 0) {
    l.stats.stage_active_cycles[static_cast<int>(Stage::kDispatch)]++;
  }
}

void stage_frontend(Lane& l, std::span<const BatchedCore::DecodedOp> ops) {
  if (l.cycle < l.frontend_flush_until) return;
  int bytes = l.fetch_block_bytes;
  int slots = l.frontend_width;
  int fetched = 0;

  while (slots > 0 && l.fetch_cursor < ops.size() && l.feq_count < l.feq_cap) {
    const BatchedCore::DecodedOp& op = ops[l.fetch_cursor];
    const bool from_loop_buffer =
        op.has(BatchedCore::DecodedOp::kLoopCandidate) &&
        op.loop_body_size <= l.loop_buffer_size;

    if (!from_loop_buffer) {
      if (bytes < static_cast<int>(isa::kInstrBytes)) {
        l.stats.stall_fetch_bytes++;
        break;
      }
    }

    Lane::FeqOp f;
    f.op = static_cast<std::uint32_t>(l.fetch_cursor);
    for (int s = 0; s < 3; ++s) {
      const auto cls = static_cast<isa::RegClass>(op.src_cls[s]);
      if (cls != isa::RegClass::kNone) {
        f.src_cls[s] = op.src_cls[s];
        f.src_phys[s] =
            l.regs[static_cast<std::size_t>(cls)].map[op.src_idx[s]];
      }
    }
    if (op.has(BatchedCore::DecodedOp::kHasDest)) {
      const auto cls = static_cast<isa::RegClass>(op.dest_cls);
      Lane::RegFile& rf = l.regs[static_cast<std::size_t>(cls)];
      if (rf.free_list.empty()) {
        l.stats.stall_no_phys[static_cast<int>(cls)]++;
        break;
      }
      const std::int32_t phys = rf.free_list.back();
      rf.free_list.pop_back();
      f.dest_cls = cls;
      f.dest_phys = phys;
      f.prev_phys = rf.map[op.dest_idx];
      rf.map[op.dest_idx] = phys;
      rf.ready[static_cast<std::size_t>(phys)] = 0;
    }

    if (!from_loop_buffer) {
      bytes -= static_cast<int>(isa::kInstrBytes);
    } else {
      l.stats.loop_buffer_ops++;
    }

    const std::uint32_t slot = ring_add(l.feq_head, l.feq_count, l.feq_cap);
    l.feq[slot] = f;
    l.feq_count++;
    l.fetch_cursor++;
    slots--;
    fetched++;
    l.activity = true;
  }
  if (fetched > 0) {
    l.stats.stage_active_cycles[static_cast<int>(Stage::kFrontend)]++;
  }
}

std::uint64_t next_event_cycle(const Lane& l) {
  std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
  if (!l.mem_done.empty()) next = std::min(next, l.mem_done.top().ready);
  if (l.exec_bucket_mask != 0) {
    const int base = static_cast<int>((l.cycle + 1) % Lane::kBucketCount);
    const std::uint32_t rotated = std::rotr(l.exec_bucket_mask, base);
    next = std::min(
        next, l.cycle + 1 +
                  static_cast<std::uint64_t>(std::countr_zero(rotated)));
  }
  if (l.mem_send_capped) next = std::min(next, l.cycle + 1);
  if (l.frontend_flush_until > l.cycle) {
    next = std::min(next, l.frontend_flush_until);
  }
  return next;
}

void check_invariants(const Lane& l, std::size_t program_size) {
  ADSE_REQUIRE_MSG(l.rob_count <= l.rob_cap,
                   "ROB occupancy " << l.rob_count << " exceeds capacity "
                                    << l.rob_cap << " at cycle " << l.cycle);
  ADSE_REQUIRE_MSG(l.lq_count <= l.lq_cap,
                   "LQ occupancy " << l.lq_count << " exceeds capacity "
                                   << l.lq_cap << " at cycle " << l.cycle);
  ADSE_REQUIRE_MSG(l.sq_count <= l.sq_cap,
                   "SQ occupancy " << l.sq_count << " exceeds capacity "
                                   << l.sq_cap << " at cycle " << l.cycle);
  ADSE_REQUIRE_MSG(l.rs_count >= 0 && l.rs_count <= l.rs_cap,
                   "RS occupancy " << l.rs_count << " exceeds capacity "
                                   << l.rs_cap << " at cycle " << l.cycle);
  ADSE_REQUIRE_MSG(l.free_rs.size() + static_cast<std::size_t>(l.rs_count) ==
                       l.rs.size(),
                   "RS free list out of sync: "
                       << l.free_rs.size() << " free + " << l.rs_count
                       << " used != " << l.rs.size());
  ADSE_REQUIRE_MSG(l.ready_rs.size() <= static_cast<std::size_t>(l.rs_count),
                   "RS ready list (" << l.ready_rs.size()
                                     << ") larger than occupancy "
                                     << l.rs_count);
  ADSE_REQUIRE_MSG(l.feq_count <= l.feq_cap,
                   "frontend queue occupancy " << l.feq_count
                                               << " exceeds capacity "
                                               << l.feq_cap);
  ADSE_REQUIRE_MSG(l.sq_unresolved >= 0 &&
                       l.sq_unresolved <= static_cast<int>(l.sq_count),
                   "unresolved-store counter " << l.sq_unresolved
                                               << " outside [0, " << l.sq_count
                                               << "]");
  ADSE_REQUIRE_MSG(l.stats.retired + l.rob_count + l.feq_count +
                           (program_size - l.fetch_cursor) ==
                       program_size,
                   "µop conservation broken: retired " << l.stats.retired
                                                       << ", in flight "
                                                       << l.rob_count);
}

}  // namespace

BatchedCore::BatchedCore(std::span<const config::CpuConfig> configs,
                         std::span<mem::MemoryHierarchy* const> hierarchies,
                         const CoreFidelity& fidelity) {
  ADSE_REQUIRE_MSG(!configs.empty(), "empty config batch");
  ADSE_REQUIRE_MSG(configs.size() == hierarchies.size(),
                   "config/hierarchy count mismatch: " << configs.size()
                                                       << " vs "
                                                       << hierarchies.size());
  const int vl = configs[0].core.vector_length_bits;
  for (const config::CpuConfig& config : configs) {
    ADSE_REQUIRE_MSG(config.core.vector_length_bits == vl,
                     "mixed vector lengths in batch ("
                         << vl << " vs " << config.core.vector_length_bits
                         << "): configs sharing a trace pass must share VL");
  }
  lanes_.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ADSE_REQUIRE_MSG(hierarchies[i] != nullptr, "null hierarchy for lane " << i);
    lanes_.push_back(std::make_unique<Lane>(configs[i], hierarchies[i],
                                            fidelity));
  }
}

BatchedCore::~BatchedCore() = default;

void BatchedCore::step_cycle(Lane& l, std::span<const DecodedOp> ops) {
  ADSE_REQUIRE_MSG(l.cycle < max_cycles_,
                   "simulation exceeded " << max_cycles_ << " cycles ("
                                          << program_name_ << ")");
  l.stats.cycles_entered++;
  l.activity = false;
  l.mem_send_capped = false;

  stage_commit(l, ops);
  stage_complete(l, ops);
  stage_mem_send(l);
  stage_issue(l, ops);
  stage_dispatch(l, ops);
  stage_frontend(l, ops);

  if (check_) check_invariants(l, ops.size());

  if (l.activity) {
    l.cycle++;
  } else {
    const std::uint64_t next = next_event_cycle(l);
    ADSE_REQUIRE_MSG(next != std::numeric_limits<std::uint64_t>::max(),
                     "core deadlock at cycle "
                         << l.cycle << " in '" << program_name_ << "' (rob="
                         << l.rob_count << ", rs=" << l.rs_count
                         << ", feq=" << l.feq_count << ")");
    const std::uint64_t target = std::max(l.cycle + 1, next);
    l.stats.cycles_skipped += target - (l.cycle + 1);
    l.cycle = target;
  }
}

namespace {

void decode_program(const isa::Program& program,
                    std::vector<BatchedCore::DecodedOp>& decoded) {
  using DecodedOp = BatchedCore::DecodedOp;
  decoded.resize(program.ops.size());
  for (std::size_t i = 0; i < program.ops.size(); ++i) {
    const isa::MicroOp& op = program.ops[i];
    DecodedOp& d = decoded[i];
    d.mem_addr = op.mem_addr;
    d.mem_size = op.mem_size_bytes;
    d.loop_body_size = op.loop_body_size;
    d.group = static_cast<std::uint8_t>(op.group);
    d.latency = static_cast<std::uint8_t>(isa::execution_latency(op.group));
    d.flags = op.flags;
    d.info = 0;
    if (op.is_sve()) d.info |= DecodedOp::kIsSve;
    if (op.is_memory()) d.info |= DecodedOp::kIsMemory;
    if (op.group == isa::InstrGroup::kLoad) d.info |= DecodedOp::kIsLoad;
    if (op.group == isa::InstrGroup::kStore) d.info |= DecodedOp::kIsStore;
    if (op.group == isa::InstrGroup::kBranch) d.info |= DecodedOp::kIsBranch;
    if (op.loop_body_size > 0 &&
        (op.flags & isa::kFlagFirstLoopIteration) == 0) {
      d.info |= DecodedOp::kLoopCandidate;
    }
    if (op.dest.valid()) {
      d.info |= DecodedOp::kHasDest;
      d.dest_cls = static_cast<std::uint8_t>(op.dest.cls);
      d.dest_idx = static_cast<std::uint8_t>(op.dest.index);
    }
    for (int s = 0; s < 3; ++s) {
      const isa::RegRef& src = op.srcs[static_cast<std::size_t>(s)];
      d.src_cls[s] = static_cast<std::uint8_t>(src.cls);
      d.src_idx[s] = static_cast<std::uint8_t>(src.index);
    }
  }
}

}  // namespace

struct DecodedTrace::Impl {
  std::vector<BatchedCore::DecodedOp> ops;
};

DecodedTrace::DecodedTrace(const isa::Program& program)
    : impl_(std::make_unique<Impl>()), name_(program.name) {
  ADSE_REQUIRE_MSG(!program.ops.empty(), "empty program");
  decode_program(program, impl_->ops);
}

DecodedTrace::~DecodedTrace() = default;

std::size_t DecodedTrace::size() const { return impl_->ops.size(); }

std::vector<CoreStats> BatchedCore::run(const DecodedTrace& trace,
                                        std::uint64_t max_cycles) {
  ADSE_REQUIRE_MSG(!ran_, "BatchedCore::run is single-use");
  ran_ = true;
  check_ = CheckContext::enabled();
  max_cycles_ = max_cycles;
  program_name_ = trace.name().c_str();
  const std::span<const DecodedOp> ops(trace.impl_->ops);
  const std::size_t n = ops.size();
  std::vector<std::uint32_t> active(lanes_.size());
  std::iota(active.begin(), active.end(), 0u);
  std::vector<CoreStats> out(lanes_.size());
  std::size_t window_end = 0;

  while (!active.empty()) {
    info_.windows++;
    info_.lane_windows += active.size();
    if (window_end < n) {
      window_end = std::min(window_end + kWindowOps, n);
      if (window_end < n) {
        // Interior window: every lane runs until its fetch cursor crosses the
        // boundary, so the decoded window stays hot while K lanes sweep it. A
        // lane cannot finish here (its fetch is incomplete).
        for (std::uint32_t lane_index : active) {
          Lane& lane = *lanes_[lane_index];
          while (lane.fetch_cursor < window_end) step_cycle(lane, ops);
        }
        continue;
      }
      // Final window: fall through to quantum rounds, which fetch the tail
      // and drain in-flight state.
    }
    for (std::size_t i = 0; i < active.size();) {
      Lane& lane = *lanes_[active[i]];
      const std::uint64_t until = lane.cycle + kDrainCycles;
      while (!lane.finished(n) && lane.cycle < until) step_cycle(lane, ops);
      if (lane.finished(n)) {
        lane.stats.cycles = lane.cycle;
        out[active[i]] = lane.stats;
        // Early lane retirement: compact the active set so finished configs
        // cost nothing in later rounds.
        active[i] = active.back();
        active.pop_back();
      } else {
        ++i;
      }
    }
  }
  return out;
}

}  // namespace adse::core
