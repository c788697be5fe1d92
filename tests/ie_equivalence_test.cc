// Equivalence of the lazily-scored (templated) skip-chain model with an
// explicitly instantiated factor graph — the §3.3 "unrolling" correspondence
// — plus MCMC-vs-exact marginal convergence on a small document, which ties
// the whole inference stack to ground truth.
#include <gtest/gtest.h>

#include <cmath>

#include "factor/factor_graph.h"
#include "ie/corpus.h"
#include "ie/labels.h"
#include "ie/ner_proposal.h"
#include "ie/skip_chain_model.h"
#include "ie/token_pdb.h"
#include "infer/exact.h"
#include "infer/marginal_estimator.h"
#include "infer/metropolis_hastings.h"

namespace fgpdb {
namespace {

// Builds the explicit factor graph corresponding to the templated model:
// unary (emission+bias) factors, chain transition factors, and skip factors,
// all reading the same Parameters store.
factor::FactorGraph UnrollModel(const ie::SkipChainNerModel& model,
                                const ie::TokenPdb& tokens) {
  factor::FactorGraph graph;
  auto domain = std::make_shared<factor::Domain>(
      factor::Domain::OfRange(static_cast<int64_t>(ie::kNumLabels)));
  const factor::Parameters& params = model.parameters();
  for (size_t v = 0; v < tokens.num_tokens(); ++v) {
    graph.AddVariable(domain);
  }
  for (size_t v = 0; v < tokens.num_tokens(); ++v) {
    const uint32_t sid = tokens.string_ids[v];
    graph.AddFactor(std::make_unique<factor::LambdaFactor>(
        std::vector<factor::VarId>{static_cast<factor::VarId>(v)},
        [&params, sid](const std::vector<uint32_t>& y) {
          return params.Get(factor::MakeFeatureId("emission", sid, y[0])) +
                 params.Get(factor::MakeFeatureId("bias", y[0]));
        }));
  }
  for (const auto& doc : tokens.docs) {
    for (size_t i = 0; i + 1 < doc.size(); ++i) {
      graph.AddFactor(std::make_unique<factor::LambdaFactor>(
          std::vector<factor::VarId>{doc[i], doc[i + 1]},
          [&params](const std::vector<uint32_t>& y) {
            return params.Get(
                factor::MakeFeatureId("transition", y[0], y[1]));
          }));
    }
  }
  // Skip factors: one per unordered partner pair.
  for (size_t v = 0; v < tokens.num_tokens(); ++v) {
    for (factor::VarId p : model.SkipPartners(static_cast<factor::VarId>(v))) {
      if (p <= v) continue;
      graph.AddFactor(std::make_unique<factor::LambdaFactor>(
          std::vector<factor::VarId>{static_cast<factor::VarId>(v), p},
          [&params](const std::vector<uint32_t>& y) {
            if (y[0] != y[1]) return 0.0;
            return params.Get(factor::MakeFeatureId("skip_same")) +
                   params.Get(
                       factor::MakeFeatureId("skip_same_label", y[0]));
          }));
    }
  }
  return graph;
}

struct SmallDoc {
  ie::TokenPdb tokens;
  std::unique_ptr<ie::SkipChainNerModel> model;

  /// `repeat_capitalized` rewrites the second and the last token to the
  /// same capitalized string, so the document is sure to carry a skip edge.
  explicit SmallDoc(size_t num_tokens, uint64_t seed = 23,
                    bool repeat_capitalized = false) {
    // One small document so exact inference stays feasible.
    ie::SyntheticCorpus corpus = ie::GenerateCorpus(
        {.num_tokens = 1, .tokens_per_doc = 2 * num_tokens, .seed = seed});
    corpus.tokens.resize(std::min(corpus.tokens.size(), num_tokens));
    corpus.doc_ranges = {{0, corpus.tokens.size()}};
    corpus.num_docs = 1;
    if (repeat_capitalized) {
      for (const size_t i : {size_t{1}, corpus.tokens.size() - 1}) {
        corpus.tokens[i].text = ie::kBostonString;
        corpus.tokens[i].truth_label = ie::LabelIndex("B-LOC");
      }
    }
    tokens = ie::BuildTokenPdb(corpus);
    model = std::make_unique<ie::SkipChainNerModel>(tokens);
    model->InitializeFromCorpusStatistics(tokens, /*skip_weight=*/0.8,
                                          /*emission_scale=*/1.0);
    tokens.pdb->set_model(model.get());
  }
};

TEST(ModelUnrollingTest, TemplatedAndExplicitScoresAgree) {
  SmallDoc doc(30);
  factor::FactorGraph graph = UnrollModel(*doc.model, doc.tokens);
  Rng rng(5);
  factor::World world(doc.tokens.num_tokens());
  for (int trial = 0; trial < 30; ++trial) {
    for (size_t v = 0; v < world.size(); ++v) {
      world.Set(static_cast<factor::VarId>(v),
                static_cast<uint32_t>(rng.UniformInt(ie::kNumLabels)));
    }
    ASSERT_NEAR(doc.model->LogScore(world), graph.LogScore(world), 1e-9)
        << "trial " << trial;
  }
}

TEST(ModelUnrollingTest, TemplatedAndExplicitDeltasAgree) {
  SmallDoc doc(30);
  factor::FactorGraph graph = UnrollModel(*doc.model, doc.tokens);
  Rng rng(7);
  factor::World world(doc.tokens.num_tokens());
  for (int trial = 0; trial < 60; ++trial) {
    factor::Change change;
    change.Set(
        static_cast<factor::VarId>(rng.UniformInt(doc.tokens.num_tokens())),
        static_cast<uint32_t>(rng.UniformInt(ie::kNumLabels)));
    ASSERT_NEAR(doc.model->LogScoreDelta(world, change),
                graph.LogScoreDelta(world, change), 1e-9);
    world.Apply(change);
  }
}

TEST(ModelUnrollingTest, McmcMatchesExactMarginalsOnTinyDocument) {
  // 6 label variables over 9 labels: 531441 worlds — brute-forceable.
  SmallDoc doc(6);
  factor::FactorGraph graph = UnrollModel(*doc.model, doc.tokens);
  const infer::ExactResult exact = infer::ExactInference(graph);

  ie::DocumentBatchProposal proposal(&doc.tokens.docs,
                                     {.proposals_per_batch = 1000000});
  auto sampler = doc.tokens.pdb->MakeSampler(&proposal, /*seed=*/11);
  infer::MarginalEstimator estimator(doc.tokens.pdb->binding().DomainSizes());
  sampler->Run(20000);
  for (int i = 0; i < 400000; ++i) {
    sampler->Step();
    if (i % 3 == 0) estimator.Observe(doc.tokens.pdb->world());
  }
  doc.tokens.pdb->DiscardDeltas();
  double max_err = 0.0;
  for (size_t v = 0; v < doc.tokens.num_tokens(); ++v) {
    for (uint32_t y = 0; y < ie::kNumLabels; ++y) {
      max_err = std::max(
          max_err,
          std::abs(estimator.Estimate(static_cast<factor::VarId>(v), y) -
                   exact.marginals[v][y]));
    }
  }
  EXPECT_LT(max_err, 0.02)
      << "sampler must converge to the unrolled graph's exact marginals";
}

TEST(ModelUnrollingTest, SkipEdgesCoupleLabels) {
  // The defining skip-chain behaviour: identical strings in a document pull
  // each other toward the same label. Compare the exact probability of
  // same-label configurations with and without skip factors.
  SmallDoc doc(6, /*seed=*/101, /*repeat_capitalized=*/true);
  factor::VarId a = 0, b = 0;
  bool found = false;
  for (size_t v = 0; v < doc.tokens.num_tokens() && !found; ++v) {
    const auto& partners =
        doc.model->SkipPartners(static_cast<factor::VarId>(v));
    if (!partners.empty()) {
      a = static_cast<factor::VarId>(v);
      b = partners.front();
      found = true;
    }
  }
  ASSERT_TRUE(found)
      << "the repeated capitalized string must yield a skip edge";
  auto same_label_probability = [&](bool use_skip) {
    ie::SkipChainNerModel model(doc.tokens, {.use_skip_edges = use_skip});
    model.parameters() = doc.model->parameters();
    factor::FactorGraph graph = UnrollModel(model, doc.tokens);
    const infer::ExactResult exact = infer::ExactInference(graph);
    // Sum over worlds where a and b agree.
    double p_same = 0.0;
    size_t index = 0;
    // Re-enumerate worlds in the same mixed-radix order as ExactInference.
    const size_t n = doc.tokens.num_tokens();
    std::vector<uint32_t> w(n, 0);
    while (true) {
      if (w[a] == w[b]) p_same += exact.world_probabilities[index];
      ++index;
      size_t i = n;
      bool done = true;
      while (i > 0) {
        --i;
        if (w[i] + 1 < ie::kNumLabels) {
          ++w[i];
          done = false;
          break;
        }
        w[i] = 0;
        if (i == 0) break;
      }
      if (done) break;
    }
    return p_same;
  };
  EXPECT_GT(same_label_probability(true), same_label_probability(false));
}

}  // namespace
}  // namespace fgpdb
