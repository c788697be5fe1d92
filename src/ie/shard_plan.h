// Document-sharded execution plans for the TOKEN world (paper §5.1).
//
// docs[d] is the natural shard key: skip-chain factors are same-document by
// construction and the §5.1 proposal kernel batches whole documents, so a
// partition assigning each document's variables to one shard satisfies the
// Model locality contract — shard-local chains are exact, not approximate.
// BuildDocumentShardPlan blocks the documents into `num_shards` contiguous
// ranges, asks the model to certify the partition (FactorsRespectPartition),
// and falls back to the exact single-shard plan when it declines (e.g. a
// cross-document EntityResolutionModel standing in for the NER CRF).
#ifndef FGPDB_IE_SHARD_PLAN_H_
#define FGPDB_IE_SHARD_PLAN_H_

#include "ie/ner_proposal.h"
#include "ie/token_pdb.h"
#include "pdb/shard_plan.h"

namespace fgpdb {
namespace ie {

struct DocumentShardOptions {
  /// Requested shard count; clamped to the document count, and to 1 when
  /// the model does not certify the document partition.
  size_t num_shards = 1;
  /// Per-shard §5.1 proposal kernel configuration (each shard batches
  /// documents from its own block).
  NerProposalOptions proposal = {};
};

/// Builds a ShardPlan whose shard s owns the contiguous document block
/// [s·D/S, (s+1)·D/S) and proposes via a DocumentBatchProposal over that
/// block. The plan owns the per-shard document lists (the factory closure
/// keeps them alive), so it may outlive `tokens`' docs vector but NOT the
/// database/model. Each proposal points into those lists: it is valid only
/// while some copy of `make_proposal` lives. A single-shard plan (requested
/// or fallen back to) proposes over all documents — bitwise-identical to
/// the serial kernel.
pdb::ShardPlan BuildDocumentShardPlan(const TokenPdb& tokens,
                                      const factor::Model& model,
                                      DocumentShardOptions options = {});

}  // namespace ie
}  // namespace fgpdb

#endif  // FGPDB_IE_SHARD_PLAN_H_
