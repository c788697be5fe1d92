// The paper's §5.1 proposal distribution:
//
//   "first a label variable is selected uniformly at random from L, then
//    the label is randomly changed to one of the nine CoNLL labels. This
//    process is repeated for 2000 proposals before L is changed by loading
//    a new batch of variables from the database: up to five documents worth
//    of variables may be selected (uniformly at random)."
//
// The batch models the paper's disk-locality optimization (variables of a
// few documents are resident in memory at a time). The kernel is symmetric
// within a batch, so the proposal ratio is 1.
#ifndef FGPDB_IE_NER_PROPOSAL_H_
#define FGPDB_IE_NER_PROPOSAL_H_

#include <vector>

#include "ie/token_pdb.h"
#include "infer/proposal.h"

namespace fgpdb {
namespace ie {

struct NerProposalOptions {
  size_t proposals_per_batch = 2000;
  size_t docs_per_batch = 5;
};

class DocumentBatchProposal final : public infer::Proposal {
 public:
  /// `docs` is the document→variables structure of the TokenPdb; it must
  /// outlive the proposal.
  DocumentBatchProposal(const std::vector<std::vector<factor::VarId>>* docs,
                        NerProposalOptions options = {});

  using infer::Proposal::Propose;
  void Propose(const factor::World& world, Rng& rng, factor::Change* change,
               double* log_ratio) override;

  /// Variables in the current batch (empty before the first proposal).
  const std::vector<factor::VarId>& batch() const { return batch_; }

 private:
  void ReloadBatch(Rng& rng);

  const std::vector<std::vector<factor::VarId>>* docs_;
  NerProposalOptions options_;
  std::vector<factor::VarId> batch_;
  size_t proposals_since_reload_ = 0;
};

}  // namespace ie
}  // namespace fgpdb

#endif  // FGPDB_IE_NER_PROPOSAL_H_
