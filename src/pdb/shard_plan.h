// ShardPlan: how one world is split into shard-local chains.
//
// A plan names the partition (VarId → shard index), the shard count, and a
// factory for per-shard proposals. It is consumed by
// SharedChainEvaluator::EnableSharding, which builds one MetropolisHastings
// chain per shard over the SAME world (infer/shard_runner.h) and merges the
// shards' accepted-jump streams in fixed shard order into the one delta
// fan-out every view and statistic already consumes.
//
// The locality contract: sharding is only *exact* when no factor and no
// proposal crosses a part boundary. BuildShardPlan enforces the factor half
// by asking Model::FactorsRespectPartition and falling back to a single
// shard when the model declines (e.g. the cross-document pairwise
// affinities of EntityResolutionModel); the proposal half is the factory's
// responsibility (per-shard proposals must confine their moves to their
// shard — shard_runner checks this in debug builds).
#ifndef FGPDB_PDB_SHARD_PLAN_H_
#define FGPDB_PDB_SHARD_PLAN_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "factor/model.h"
#include "infer/proposal.h"

namespace fgpdb {
namespace pdb {

class ProbabilisticDatabase;

/// Threading knobs for shard-local stepping (how a plan runs, not what it
/// computes — results are bitwise-identical threaded or sequential).
struct ShardedExecution {
  bool use_threads = true;
  /// 0 = min(num_shards, hardware concurrency).
  size_t max_threads = 0;
};

struct ShardPlan {
  /// Produces the proposal for shard `shard` of a given world. Invoked once
  /// per shard per chain (replica chains under the parallel policy each
  /// build their own set, against their own COW snapshot). Must confine its
  /// proposals to the variables of `shard`'s part; with a single-shard plan
  /// (including every locality fallback) it is invoked only with shard 0
  /// and must cover the whole world. A proposal it returns may borrow
  /// state the factory owns (ie::BuildDocumentShardPlan's proposals point
  /// into document lists its closure holds), so whoever keeps a proposal
  /// must keep a copy of the factory alive as long as the proposal;
  /// SharedChainEvaluator::EnableSharding does.
  using ProposalFactory = std::function<std::unique_ptr<infer::Proposal>(
      ProbabilisticDatabase&, size_t shard)>;

  size_t num_shards = 1;
  /// VarId → shard index. Empty means single-shard (everything is shard 0).
  std::vector<uint32_t> partition;
  ProposalFactory make_proposal;

  /// A default-constructed ShardPlan (no factory) means "not sharded".
  bool has_plan() const { return static_cast<bool>(make_proposal); }
};

/// Validates `partition` against `model`'s locality contract and returns a
/// plan: `num_shards` shard-local chains when the model certifies that no
/// factor crosses the partition, otherwise the exact single-shard fallback
/// (one chain over the whole world — sharding silently degrades to the
/// serial trajectory rather than to an approximation).
inline ShardPlan BuildShardPlan(const factor::Model& model,
                                std::vector<uint32_t> partition,
                                size_t num_shards,
                                ShardPlan::ProposalFactory make_proposal) {
  ShardPlan plan;
  plan.make_proposal = std::move(make_proposal);
  if (num_shards > 1 && model.FactorsRespectPartition(partition)) {
    plan.num_shards = num_shards;
    plan.partition = std::move(partition);
  }
  return plan;
}

}  // namespace pdb
}  // namespace fgpdb

#endif  // FGPDB_PDB_SHARD_PLAN_H_
