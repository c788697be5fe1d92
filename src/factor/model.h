// Model: the scoring interface MCMC inference runs against.
//
// The key operation is LogScoreDelta — log π(w')/π(w) for a hypothesized
// Change — which by the cancellation argument of paper Appendix 9.2 only
// needs the factors whose arguments the change touches. Explicitly
// instantiated FactorGraphs implement it via variable→factor adjacency;
// templated models (e.g. the skip-chain CRF in src/ie) implement it lazily
// without ever materializing the graph, exactly as §3.4 prescribes.
//
// Scratch-reuse protocol: a walk takes millions of steps, and the touched-
// factor enumeration needs working buffers whose contents never outlive one
// call. Models expose an opaque per-caller ScoreScratch (MakeScratch());
// the *caller* — one MetropolisHastings chain, one SampleRank trainer —
// owns it and passes it to every scoring call, so buffers are reused
// allocation-free across steps while a model shared by parallel COW chains
// stays race-free (each chain brings its own scratch).
#ifndef FGPDB_FACTOR_MODEL_H_
#define FGPDB_FACTOR_MODEL_H_

#include <memory>
#include <vector>

#include "factor/feature_vector.h"
#include "factor/world.h"

namespace fgpdb {
namespace factor {

/// Opaque reusable working memory for a model's scoring calls. Concrete
/// models define their own subtype; a scratch may only be passed back to
/// the model that created it. Scratch contents carry no state between
/// calls — it is purely an allocation cache.
class ScoreScratch {
 public:
  virtual ~ScoreScratch() = default;
};

class Model {
 public:
  virtual ~Model() = default;

  /// log π(w') − log π(w) for world w and hypothesized change to w'.
  /// ZX cancels (Eq. 3), so this is a plain factor-score difference.
  virtual double LogScoreDelta(const World& world, const Change& change) const = 0;

  /// Allocation-free variant: `scratch` must come from this model's
  /// MakeScratch() (nullptr is allowed and falls back to the plain
  /// overload). Hot loops — the MH sampler, Gibbs conditionals — call
  /// this; the default forwards for models without scratch needs.
  virtual double LogScoreDelta(const World& world, const Change& change,
                               ScoreScratch* scratch) const {
    (void)scratch;
    return LogScoreDelta(world, change);
  }

  /// Creates reusable scoring scratch for one caller (one chain). Returns
  /// nullptr for models whose scoring needs no working buffers.
  virtual std::unique_ptr<ScoreScratch> MakeScratch() const { return nullptr; }

  /// Batched Gibbs conditional: fills `out[v]` with
  /// LogScoreDelta(world, {var ← v}) for every candidate value
  /// v ∈ [0, domain_size(var)) as ONE contiguous reduction, instead of
  /// domain_size separate delta calls. Each out[v] must be bitwise-equal to
  /// the per-candidate path (so out[world.Get(var)] == 0), which keeps a
  /// Gibbs chain's trajectory independent of which path computed the row.
  /// Returns false when the model has no fast path (the default); callers
  /// then fall back to per-candidate LogScoreDelta. `scratch` follows the
  /// LogScoreDelta contract (nullptr allowed).
  virtual bool ConditionalRow(const World& world, VarId var, double* out,
                              ScoreScratch* scratch) const {
    (void)world;
    (void)var;
    (void)out;
    (void)scratch;
    return false;
  }

  /// Unnormalized log π(w) over the *entire* graph. Potentially expensive —
  /// used by exact inference, tests, and diagnostics, never by the sampler.
  virtual double LogScore(const World& world) const = 0;

  /// Locality contract for sharded execution: returns true iff EVERY factor
  /// of this model scores variables of a single part of `partition`
  /// (partition[v] = part index of variable v; partition.size() must equal
  /// num_variables()). When this holds, part-local MCMC chains are *exact* —
  /// a change confined to one part has a score delta computable from that
  /// part alone, so shard-local walks compose into one valid chain. Models
  /// whose factors can cross arbitrary parts (e.g. pairwise coreference
  /// affinities) keep the conservative default and force the sharded
  /// executor to fall back to a single shard.
  virtual bool FactorsRespectPartition(
      const std::vector<uint32_t>& partition) const {
    (void)partition;
    return false;
  }

  /// Number of hidden variables this model scores.
  virtual size_t num_variables() const = 0;

  /// Domain size of variable `var` (candidate values are [0, size)).
  virtual size_t domain_size(VarId var) const = 0;
};

/// A model whose score is φ(w)·θ for a sparse feature map φ and trainable
/// weights θ. SampleRank trains anything implementing this.
class FeatureModel : public Model {
 public:
  /// φ(w') − φ(w) restricted to factors touched by `change`.
  virtual void FeatureDelta(const World& world, const Change& change,
                            SparseVector* out) const = 0;

  /// Allocation-free variant; same scratch contract as LogScoreDelta.
  virtual void FeatureDelta(const World& world, const Change& change,
                            SparseVector* out, ScoreScratch* scratch) const {
    (void)scratch;
    FeatureDelta(world, change, out);
  }

  /// The trainable weights.
  virtual Parameters& parameters() = 0;
  virtual const Parameters& parameters() const = 0;
};

}  // namespace factor
}  // namespace fgpdb

#endif  // FGPDB_FACTOR_MODEL_H_
