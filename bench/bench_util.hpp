#pragma once
/// \file bench_util.hpp
/// Shared plumbing for the per-table/per-figure harness binaries: the
/// process-wide evaluation service, the paper's campaigns and the
/// "[shape-check]" reporting convention. Absolute cycle counts cannot match
/// the paper's testbed, so every bench asserts the *shape* of its result
/// (who wins, where the knee is, orderings) and prints PASS/FAIL lines that
/// EXPERIMENTS.md records.

#include <cstdio>
#include <string>

#include "campaign/campaign.hpp"
#include "eval/service.hpp"
#include "sim/stats_report.hpp"

namespace adse::bench {

/// The shared evaluation service every bench dispatches through: env-default
/// thread count (ADSE_THREADS), persistent result store under ADSE_CACHE_DIR
/// — so re-running a bench reuses every simulation a previous run paid for.
inline eval::EvalService& evaluator() { return eval::EvalService::shared(); }

/// Runs the main campaign (served from the result store once warm).
inline campaign::CampaignResult main_campaign() {
  return campaign::run_campaign(campaign::main_campaign_spec(), evaluator());
}

/// Runs a VL-pinned campaign (Figs. 4/5).
inline campaign::CampaignResult pinned_campaign(int vl) {
  return campaign::run_campaign(campaign::constrained_campaign_spec(vl),
                                evaluator());
}

/// Prints the service's cache decomposition (the "[eval] ..." line is the
/// stable hook CI's cache-reuse smoke step greps).
inline void report_eval_stats() {
  std::printf("%s\n", evaluator().summary_line().c_str());
}

/// Prints a shape-check verdict; returns 0/1 for exit-code accumulation.
inline int shape_check(bool ok, const std::string& claim) {
  std::printf("[shape-check] %s: %s\n", ok ? "PASS" : "FAIL", claim.c_str());
  return ok ? 0 : 1;
}

}  // namespace adse::bench
