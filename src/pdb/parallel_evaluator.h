// Multi-chain parallel query evaluation (paper §5.4).
//
// Runs B independent Metropolis–Hastings chains, each over its own
// copy-on-write snapshot of the world, and averages their marginal counts.
// Cross-chain samples are far more independent than within-chain samples,
// which is why the paper observes super-linear error reduction in the
// number of chains.
//
// Chains are scheduled onto a fixed-size thread pool capped at the hardware
// concurrency (never one thread per chain), each chain's world/proposal/
// evaluator are built inside its pool task and freed when it ends, and every
// finished chain folds its answer into the merged result under a mutex.
// Consequences: chain counts far beyond the core count are safe, peak
// memory is O(#threads) worlds rather than O(#chains), and merging overlaps
// sampling instead of running as a serial post-pass. Marginal counts are
// integers, so the merged answer is identical regardless of completion
// order — threaded and sequential runs agree bitwise for fixed seeds.
#ifndef FGPDB_PDB_PARALLEL_EVALUATOR_H_
#define FGPDB_PDB_PARALLEL_EVALUATOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "infer/proposal.h"
#include "pdb/convergence_stats.h"
#include "pdb/probabilistic_database.h"
#include "pdb/query_evaluator.h"
#include "pdb/shard_plan.h"
#include "ra/plan.h"

namespace fgpdb {
namespace pdb {

struct ParallelOptions {
  size_t num_chains = 4;
  uint64_t samples_per_chain = 100;
  EvaluatorOptions chain_options;
  /// Run chains on worker threads; false = sequential (deterministic order,
  /// useful with a single core or in tests).
  bool use_threads = true;
  /// Worker threads when use_threads is set. 0 = min(num_chains, hardware
  /// concurrency); never more threads than chains.
  size_t max_threads = 0;
  /// Also fold per-chain answer counts into CrossChainStats (per plan), so
  /// the caller can read Monte-Carlo standard errors — the until(confidence,
  /// eps) policy's stopping signal. Off by default: fixed-count callers
  /// should not pay for the per-tuple maps.
  bool track_chain_stats = false;
  /// Optional intra-chain sharding: every replica chain steps S shard-local
  /// sub-chains from the plan instead of one serial sampler (the factory in
  /// the plan replaces `make_proposal`). Chain seeds salt exactly as in the
  /// serial case, and each chain's shard streams derive from its salted
  /// seed, so B×S composition is deterministic. Shard stepping inside a
  /// chain runs sequentially whenever the chains themselves are threaded
  /// (no nested pools); results are identical either way. Borrowed; must
  /// outlive the evaluation.
  const ShardPlan* shard_plan = nullptr;
};

/// Factory producing a fresh per-chain proposal (proposals hold chain-local
/// state such as the §5.1 document batch, so they cannot be shared). Invoked
/// on pool worker threads, possibly concurrently — it must be safe to call
/// from several threads at once (both in-tree proposal factories are: they
/// only read shared immutable setup state).
using ProposalFactory =
    std::function<std::unique_ptr<infer::Proposal>(ProbabilisticDatabase&)>;

/// Result of a multi-query parallel evaluation: one merged answer per plan
/// (index-aligned with the input), plus aggregate chain statistics for
/// progress reporting.
struct MultiQueryAnswer {
  std::vector<QueryAnswer> answers;
  /// Per-plan cross-chain standard-error statistics (index-aligned with
  /// `answers`). Empty unless ParallelOptions::track_chain_stats was set.
  /// Integer-sum state, so the streaming completion-order merge yields
  /// bitwise-identical statistics run to run.
  std::vector<CrossChainStats> stats;
  uint64_t total_proposed = 0;
  uint64_t total_accepted = 0;

  double acceptance_rate() const {
    return total_proposed == 0
               ? 0.0
               : static_cast<double>(total_accepted) /
                     static_cast<double>(total_proposed);
  }
};

/// Snapshots `pdb` into `options.num_chains` copy-on-write worlds, runs each
/// chain for `samples_per_chain` samples on a hardware-sized thread pool,
/// and returns the merged (averaged) answer per plan. `pdb` itself is never
/// mutated. Every chain runs Algorithm 1 and maintains ALL the plans' views
/// on its single sampler (one delta drain fanned out per interval) — the
/// §4.2 economy extended to §5.4 — so K queries over B chains cost B
/// sampling passes instead of K·B. Per-plan merged answers are
/// bitwise-identical to K separate single-plan calls with the same options,
/// because the chain trajectory never depends on the registered queries.
/// `plans` must be non-empty; `seed_salt` offsets every chain's seed
/// (distinct salts give independent chain batches, e.g. across successive
/// Session::Run epochs).
MultiQueryAnswer EvaluateParallelMulti(
    const ProbabilisticDatabase& pdb,
    const std::vector<const ra::PlanNode*>& plans,
    const ProposalFactory& make_proposal, const ParallelOptions& options,
    uint64_t seed_salt = 0);

}  // namespace pdb
}  // namespace fgpdb

#endif  // FGPDB_PDB_PARALLEL_EVALUATOR_H_
