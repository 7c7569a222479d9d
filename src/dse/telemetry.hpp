#pragma once
/// \file telemetry.hpp
/// Per-round search journal. Every round of the propose→score→simulate→refit
/// loop appends one record; the journal is published atomically as a CSV
/// under the cache dir after each round, so a running (or killed) search is
/// introspectable from outside and a finished one is re-loadable for
/// plotting without re-running anything.

#include <string>
#include <vector>

#include "common/csv.hpp"

namespace adse::dse {

/// One row of the journal — the telemetry the search loop records per round.
struct RoundRecord {
  int round = 0;             ///< 0 = the initial uniform batch
  int sims_total = 0;        ///< configurations simulated so far (cumulative)
  int pool_size = 0;         ///< candidates the surrogate scored this round
  double best_objective = 0; ///< best (lowest) objective so far
  /// Forest OOB MAE after the refit, in the surrogate's target space
  /// (the log of the objective).
  double surrogate_oob_mae = 0;
  double acquisition_entropy = 0;   ///< ranking entropy over the pool (nats)
  double round_seconds = 0;         ///< wall-clock cost of the round
  /// Dominated hypervolume of all evaluations so far against the run's
  /// frozen reference point (multi-objective runs; 0 otherwise). Monotone
  /// non-decreasing over rounds by construction.
  double hypervolume = 0;
};

struct Journal {
  std::vector<RoundRecord> rounds;

  CsvTable to_table() const;
  static Journal from_table(const CsvTable& table);
};

/// Journal file for a search label ("<cache_dir>/dse_<label>_journal.csv").
std::string journal_path(const std::string& label);

/// Atomically (re)writes the journal CSV, creating the cache dir on demand.
void write_journal(const std::string& path, const Journal& journal);

/// Loads a journal written by write_journal; throws on missing file or
/// schema mismatch.
Journal load_journal(const std::string& path);

}  // namespace adse::dse
