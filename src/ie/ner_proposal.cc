#include "ie/ner_proposal.h"

#include "ie/labels.h"
#include "util/logging.h"

namespace fgpdb {
namespace ie {

DocumentBatchProposal::DocumentBatchProposal(
    const std::vector<std::vector<factor::VarId>>* docs,
    NerProposalOptions options)
    : docs_(docs), options_(options) {
  FGPDB_CHECK(docs_ != nullptr);
  FGPDB_CHECK(!docs_->empty());
  FGPDB_CHECK_GT(options_.proposals_per_batch, 0u);
  FGPDB_CHECK_GT(options_.docs_per_batch, 0u);
}

void DocumentBatchProposal::ReloadBatch(Rng& rng) {
  batch_.clear();
  for (size_t i = 0; i < options_.docs_per_batch; ++i) {
    const auto& doc = (*docs_)[rng.UniformInt(docs_->size())];
    batch_.insert(batch_.end(), doc.begin(), doc.end());
  }
  proposals_since_reload_ = 0;
}

void DocumentBatchProposal::Propose(const factor::World& /*world*/, Rng& rng,
                                    factor::Change* change,
                                    double* log_ratio) {
  *log_ratio = 0.0;
  change->Clear();
  if (batch_.empty() || proposals_since_reload_ >= options_.proposals_per_batch) {
    ReloadBatch(rng);
  }
  ++proposals_since_reload_;
  // The batch IS the dense variable addressing: sites resolve by one index
  // into the preloaded VarId array, no hashing, and the caller's Change
  // buffer is reused — propose allocates only on the (rare) batch reload.
  const factor::VarId var = batch_[rng.UniformInt(batch_.size())];
  const uint32_t label = static_cast<uint32_t>(rng.UniformInt(kNumLabels));
  change->Set(var, label);
}

}  // namespace ie
}  // namespace fgpdb
