// Sharded execution correctness (document-sharded inference):
//
//   * the shard-step split and locality contract primitives,
//   * S = 1 bitwise-differential oracle — a single-shard plan must replay
//     the serial shared chain exactly on Queries 1–4,
//   * fixed S > 1 bitwise reproducibility: repeated threaded runs, and
//     threaded vs sequential stepping, must agree bitwise (the fixed-order
//     merge discipline),
//   * locality fallback — a cross-partition model (EntityResolutionModel)
//     refuses sharding and degrades to the exact single-shard plan,
//   * plan lifetime — a chain sharded from a temporary plan keeps the
//     proposal factory its shard proposals borrow from,
//   * concurrent shard stepping under TSan (this suite runs in the
//     FGPDB_SANITIZE=thread CI leg via the ShardedInference name).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "api/session.h"
#include "ie/corpus.h"
#include "ie/entity_resolution.h"
#include "ie/ner_proposal.h"
#include "ie/queries.h"
#include "ie/shard_plan.h"
#include "ie/skip_chain_model.h"
#include "ie/token_pdb.h"
#include "infer/shard_runner.h"
#include "pdb/probabilistic_database.h"
#include "pdb/shard_plan.h"
#include "pdb/shared_chain.h"
#include "sql/binder.h"

namespace fgpdb {
namespace {

constexpr size_t kProposalsPerBatch = 300;

struct NerFixture {
  ie::TokenPdb tokens;
  std::unique_ptr<ie::SkipChainNerModel> model;

  explicit NerFixture(size_t num_tokens, uint64_t seed = 21) {
    ie::SyntheticCorpus corpus = ie::GenerateCorpus(
        {.num_tokens = num_tokens, .tokens_per_doc = 60, .seed = seed});
    tokens = ie::BuildTokenPdb(corpus);
    model = std::make_unique<ie::SkipChainNerModel>(tokens);
    model->InitializeFromCorpusStatistics(tokens);
    tokens.pdb->set_model(model.get());
  }

  pdb::ProposalFactory MakeFactory() {
    return [this](pdb::ProbabilisticDatabase&) -> std::unique_ptr<infer::Proposal> {
      return std::make_unique<ie::DocumentBatchProposal>(
          &tokens.docs,
          ie::NerProposalOptions{.proposals_per_batch = kProposalsPerBatch});
    };
  }

  pdb::ShardPlan MakePlan(size_t num_shards) {
    return ie::BuildDocumentShardPlan(
        tokens, *model,
        {.num_shards = num_shards,
         .proposal = {.proposals_per_batch = kProposalsPerBatch}});
  }
};

const std::vector<const char*>& PaperQueries() {
  static const std::vector<const char*> kQueries = {
      ie::kQuery1, ie::kQuery2, ie::kQuery3, ie::kQuery4};
  return kQueries;
}

void ExpectBitwiseEqual(const pdb::QueryAnswer& got,
                        const pdb::QueryAnswer& want, const char* label) {
  EXPECT_EQ(got.num_samples(), want.num_samples()) << label;
  const auto got_sorted = got.Sorted();
  const auto want_sorted = want.Sorted();
  ASSERT_EQ(got_sorted.size(), want_sorted.size()) << label;
  for (size_t i = 0; i < got_sorted.size(); ++i) {
    EXPECT_EQ(got_sorted[i].first, want_sorted[i].first) << label;
    EXPECT_EQ(got_sorted[i].second, want_sorted[i].second)
        << label << " tuple " << got_sorted[i].first.ToString();
  }
  EXPECT_EQ(got.SquaredError(want), 0.0) << label;
}

TEST(ShardedInferenceTest, ShardStepSplitCoversAllSteps) {
  // n/S plus one for the first n%S shards, exhaustively for small cases.
  for (size_t n : {0u, 1u, 9u, 10u, 4096u}) {
    for (size_t num_shards : {1u, 2u, 3u, 7u, 32u}) {
      size_t total = 0;
      for (size_t s = 0; s < num_shards; ++s) {
        const size_t steps = infer::ShardRunner::ShardSteps(n, s, num_shards);
        EXPECT_LE(steps, n / num_shards + 1);
        total += steps;
      }
      EXPECT_EQ(total, n) << "n=" << n << " S=" << num_shards;
    }
  }
  EXPECT_EQ(infer::ShardRunner::ShardSteps(10, 0, 3), 4u);
  EXPECT_EQ(infer::ShardRunner::ShardSteps(10, 1, 3), 3u);
  EXPECT_EQ(infer::ShardRunner::ShardSteps(10, 2, 3), 3u);
}

TEST(ShardedInferenceTest, SkipChainCertifiesDocumentPartition) {
  NerFixture fixture(360);  // 6 documents of 60 tokens.
  ASSERT_GE(fixture.tokens.docs.size(), 2u);

  // Document-aligned partition: first half of the docs vs the rest.
  std::vector<uint32_t> by_doc(fixture.tokens.num_tokens(), 0);
  const size_t half = fixture.tokens.docs.size() / 2;
  for (size_t d = half; d < fixture.tokens.docs.size(); ++d) {
    for (const factor::VarId v : fixture.tokens.docs[d]) by_doc[v] = 1;
  }
  EXPECT_TRUE(fixture.model->FactorsRespectPartition(by_doc));

  // Splitting one document breaks a transition edge.
  std::vector<uint32_t> mid_doc(fixture.tokens.num_tokens(), 0);
  const auto& doc0 = fixture.tokens.docs[0];
  mid_doc[doc0[doc0.size() / 2]] = 1;
  EXPECT_FALSE(fixture.model->FactorsRespectPartition(mid_doc));

  // Wrong arity is never certified.
  EXPECT_FALSE(fixture.model->FactorsRespectPartition({0, 1}));

  // The builder degrades to one shard rather than shard a refused
  // partition: request more shards than documents exist for one doc.
  ie::SyntheticCorpus one_doc = ie::GenerateCorpus(
      {.num_tokens = 60, .tokens_per_doc = 60, .seed = 3});
  ie::TokenPdb tokens = ie::BuildTokenPdb(one_doc);
  ie::SkipChainNerModel model(tokens);
  const pdb::ShardPlan plan =
      ie::BuildDocumentShardPlan(tokens, model, {.num_shards = 8});
  EXPECT_EQ(plan.num_shards, 1u);
  EXPECT_TRUE(plan.partition.empty());
}

TEST(ShardedInferenceTest, SingleShardSessionBitwiseMatchesSerial) {
  const pdb::EvaluatorOptions options{
      .steps_per_sample = 400, .burn_in = 800, .seed = 2024};

  NerFixture serial_fixture(500);
  auto serial = api::Session::Open(
      {.database = serial_fixture.tokens.pdb.get(),
       .proposal_factory = serial_fixture.MakeFactory(),
       .evaluator = options});
  std::vector<api::ResultHandle> serial_handles;
  for (const char* query : PaperQueries()) {
    serial_handles.push_back(serial->Register(query));
  }
  serial->Run(25);

  NerFixture sharded_fixture(500);
  auto sharded = api::Session::Open(
      {.database = sharded_fixture.tokens.pdb.get(),
       .shard_plan = sharded_fixture.MakePlan(1),
       .evaluator = options,
       .policy = api::ExecutionPolicy::Sharded(1)});
  EXPECT_EQ(sharded->num_shards(), 1u);
  std::vector<api::ResultHandle> sharded_handles;
  for (const char* query : PaperQueries()) {
    sharded_handles.push_back(sharded->Register(query));
  }
  sharded->Run(25);

  for (size_t q = 0; q < PaperQueries().size(); ++q) {
    const api::QueryProgress want = serial_handles[q].Snapshot();
    const api::QueryProgress got = sharded_handles[q].Snapshot();
    ExpectBitwiseEqual(got.answer, want.answer, PaperQueries()[q]);
    EXPECT_EQ(got.acceptance_rate, want.acceptance_rate);
  }
}

// One sharded run's per-query answers at a fixed seed (fresh world, fresh
// session). S > 1 and thread toggles vary; the answers must not.
std::vector<pdb::QueryAnswer> RunShardedBundle(size_t num_shards,
                                               bool use_threads,
                                               uint64_t corpus_seed,
                                               uint64_t chain_seed) {
  NerFixture fixture(480, corpus_seed);  // 8 documents.
  api::ExecutionPolicy policy = api::ExecutionPolicy::Sharded(num_shards);
  policy.use_threads = use_threads;
  auto session = api::Session::Open(
      {.database = fixture.tokens.pdb.get(),
       .shard_plan = fixture.MakePlan(num_shards),
       .evaluator = {.steps_per_sample = 400,
                     .burn_in = 800,
                     .seed = chain_seed},
       .policy = policy});
  EXPECT_EQ(session->num_shards(), num_shards);
  std::vector<api::ResultHandle> handles;
  for (const char* query : PaperQueries()) {
    handles.push_back(session->Register(query));
  }
  session->Run(20);
  std::vector<pdb::QueryAnswer> answers;
  for (const api::ResultHandle& handle : handles) {
    answers.push_back(handle.Snapshot().answer);
  }
  return answers;
}

TEST(ShardedInferenceTest, FixedShardCountReproducibleAcrossThreadedRuns) {
  const auto first = RunShardedBundle(4, /*use_threads=*/true, 21, 99);
  const auto second = RunShardedBundle(4, /*use_threads=*/true, 21, 99);
  const auto sequential = RunShardedBundle(4, /*use_threads=*/false, 21, 99);
  ASSERT_EQ(first.size(), PaperQueries().size());
  for (size_t q = 0; q < first.size(); ++q) {
    ExpectBitwiseEqual(second[q], first[q], "threaded re-run");
    ExpectBitwiseEqual(sequential[q], first[q], "sequential vs threaded");
  }
}

TEST(ShardedInferenceTest, ParallelReplicaChainsComposeWithShards) {
  // B replica chains × S shard chains: two fresh runs must agree bitwise
  // (per-chain seeds salt deterministically; shard streams derive from
  // them; merges are integer-count folds).
  auto run = [] {
    NerFixture fixture(480);
    auto session = api::Session::Open(
        {.database = fixture.tokens.pdb.get(),
         .shard_plan = fixture.MakePlan(2),
         .evaluator = {.steps_per_sample = 300, .burn_in = 600, .seed = 7},
         .policy = api::ExecutionPolicy::Parallel(3).WithShards(2)});
    api::ResultHandle handle = session->Register(ie::kQuery1);
    session->Run(10);
    return handle.Snapshot().answer;
  };
  const pdb::QueryAnswer first = run();
  const pdb::QueryAnswer second = run();
  ExpectBitwiseEqual(second, first, "parallel×sharded re-run");
}

TEST(ShardedInferenceTest, UntilPolicyComposesWithShards) {
  // Run-until-error-bound on one sharded logical chain: stopping decisions
  // are functions of the sample stream, so two fresh runs agree bitwise.
  auto run = [] {
    NerFixture fixture(480);
    auto session = api::Session::Open(
        {.database = fixture.tokens.pdb.get(),
         .shard_plan = fixture.MakePlan(4),
         .evaluator = {.steps_per_sample = 300, .burn_in = 600, .seed = 13},
         .policy = api::ExecutionPolicy::Until(0.9, 0.2, /*num_chains=*/1)
                       .WithShards(4)});
    api::ResultHandle handle = session->Register(ie::kQuery1);
    session->Run(200);
    return handle.Snapshot();
  };
  const api::QueryProgress first = run();
  const api::QueryProgress second = run();
  EXPECT_EQ(first.converged, second.converged);
  ExpectBitwiseEqual(second.answer, first.answer, "until×sharded re-run");
}

// Builds the example MENTION world: the cross-document pairwise-affinity
// model that must REFUSE document sharding.
struct ErFixture {
  std::vector<std::string> names = {"John Smith", "J. Smith", "Acme Corp",
                                    "Acme",       "Kunming",  "J. Simms"};
  ie::EntityResolutionModel model{names};
  pdb::ProbabilisticDatabase db;

  ErFixture() {
    Schema schema({Attribute{"ID", ValueType::kInt64},
                   Attribute{"NAME", ValueType::kString},
                   Attribute{"CLUSTER", ValueType::kInt64}},
                  0);
    Table* table = db.db().CreateTable("MENTION", std::move(schema));
    auto cluster_domain = std::make_shared<factor::Domain>(
        factor::Domain::OfRange(static_cast<int64_t>(names.size())));
    for (size_t i = 0; i < names.size(); ++i) {
      const RowId row = table->Insert(
          Tuple{Value::Int(static_cast<int64_t>(i)), Value::String(names[i]),
                Value::Int(static_cast<int64_t>(i))});
      db.binding().Bind("MENTION", row, 2, cluster_domain);
    }
    db.SyncWorldFromDatabase();
    db.set_model(&model);
  }

  pdb::ShardPlan::ProposalFactory MakeShardFactory() {
    return [this](pdb::ProbabilisticDatabase&,
                  size_t) -> std::unique_ptr<infer::Proposal> {
      return std::make_unique<ie::SplitMergeProposal>(model);
    };
  }
};

TEST(ShardedInferenceTest, EntityResolutionFallsBackToSingleShard) {
  ErFixture fixture;
  // Any split of the mentions crosses a pairwise affinity factor.
  std::vector<uint32_t> partition(fixture.names.size(), 0);
  for (size_t i = fixture.names.size() / 2; i < partition.size(); ++i) {
    partition[i] = 1;
  }
  EXPECT_FALSE(fixture.model.FactorsRespectPartition(partition));

  const pdb::ShardPlan plan = pdb::BuildShardPlan(
      fixture.model, partition, /*num_shards=*/2, fixture.MakeShardFactory());
  EXPECT_EQ(plan.num_shards, 1u);
  EXPECT_TRUE(plan.partition.empty());
  EXPECT_TRUE(plan.has_plan());

  const char* kCoreferenceQuery =
      "SELECT M1.NAME, M2.NAME FROM MENTION M1, MENTION M2 "
      "WHERE M1.CLUSTER = M2.CLUSTER AND M1.ID < M2.ID";
  const pdb::EvaluatorOptions options{
      .steps_per_sample = 50, .burn_in = 200, .seed = 5};

  // The fallback plan's answers are the serial chain's answers, bitwise.
  ErFixture serial_fixture;
  auto serial = api::Session::Open(
      {.database = &serial_fixture.db,
       .proposal_factory =
           [&serial_fixture](pdb::ProbabilisticDatabase&)
           -> std::unique_ptr<infer::Proposal> {
         return std::make_unique<ie::SplitMergeProposal>(serial_fixture.model);
       },
       .evaluator = options});
  api::ResultHandle serial_handle = serial->Register(kCoreferenceQuery);
  serial->Run(40);

  auto sharded = api::Session::Open({.database = &fixture.db,
                                     .shard_plan = plan,
                                     .evaluator = options,
                                     .policy = api::ExecutionPolicy::Sharded(2)});
  EXPECT_EQ(sharded->num_shards(), 1u);
  api::ResultHandle sharded_handle = sharded->Register(kCoreferenceQuery);
  sharded->Run(40);

  ExpectBitwiseEqual(sharded_handle.Snapshot().answer,
                     serial_handle.Snapshot().answer, "ER fallback");
}

// Hot-block layout under sharding (PR 10): S = 4 shard chains advancing a
// shadow-carrying world (the default BuildTokenPdb layout — write-through
// label lane + shared TokenHotBlock) must answer the paper queries bitwise
// like the same plan on a world with the shadow stripped, and like a fresh
// shadowed re-run. The shadow writes land on shard-disjoint bytes, so the
// threaded legs also exercise the race-freedom argument under TSan.
TEST(ShardedInferenceTest, ShardedHotBlockLayoutBitwiseParity) {
  auto run = [](bool strip_shadow) {
    NerFixture fixture(480, 21);  // 8 documents.
    if (strip_shadow) {
      fixture.tokens.pdb->world().DisableLabelShadow();
    }
    EXPECT_EQ(fixture.tokens.pdb->world().has_label_shadow(), !strip_shadow);
    auto session = api::Session::Open(
        {.database = fixture.tokens.pdb.get(),
         .shard_plan = fixture.MakePlan(4),
         .evaluator = {.steps_per_sample = 400, .burn_in = 800, .seed = 77},
         .policy = api::ExecutionPolicy::Sharded(4)});
    EXPECT_EQ(session->num_shards(), 4u);
    std::vector<api::ResultHandle> handles;
    for (const char* query : PaperQueries()) {
      handles.push_back(session->Register(query));
    }
    session->Run(20);
    EXPECT_TRUE(fixture.tokens.pdb->world().LabelShadowConsistent());
    std::vector<pdb::QueryAnswer> answers;
    for (const api::ResultHandle& handle : handles) {
      answers.push_back(handle.Snapshot().answer);
    }
    return answers;
  };
  const auto shadowed = run(/*strip_shadow=*/false);
  const auto plain = run(/*strip_shadow=*/true);
  const auto shadowed_again = run(/*strip_shadow=*/false);
  ASSERT_EQ(shadowed.size(), PaperQueries().size());
  for (size_t q = 0; q < shadowed.size(); ++q) {
    ExpectBitwiseEqual(plain[q], shadowed[q], "shadow-off vs shadow-on");
    ExpectBitwiseEqual(shadowed_again[q], shadowed[q], "shadowed re-run");
  }
}

// The shard proposals borrow their document lists from the plan's proposal
// factory, so a chain sharded from a temporary plan must keep that factory
// alive itself: it has to answer bitwise like the same chain sharded from a
// plan that outlives it. A dangling borrow shows as a use-after-free under
// FGPDB_SANITIZE=address.
TEST(ShardedInferenceTest, TemporaryPlanMatchesLongLivedPlanBitwise) {
  NerFixture fixture(480);
  auto run = [&fixture](bool temporary_plan) {
    auto world = fixture.tokens.pdb->Snapshot();
    ra::PlanPtr plan = sql::PlanQuery(ie::kQuery1, world->db());
    const pdb::ShardPlan long_lived = fixture.MakePlan(4);
    pdb::SharedChainEvaluator chain(
        world.get(), /*proposal=*/nullptr,
        {.steps_per_sample = 300, .burn_in = 600, .seed = 41});
    const pdb::ShardedExecution sequential{.use_threads = false};
    if (temporary_plan) {
      chain.EnableSharding(fixture.MakePlan(4), sequential);
    } else {
      chain.EnableSharding(long_lived, sequential);
    }
    EXPECT_EQ(chain.num_shards(), 4u);
    chain.AddQuery(plan.get());
    chain.Run(12);
    return chain.answer(0);
  };
  const pdb::QueryAnswer long_lived = run(/*temporary_plan=*/false);
  const pdb::QueryAnswer temporary = run(/*temporary_plan=*/true);
  EXPECT_EQ(temporary.num_samples(), 12u);
  ExpectBitwiseEqual(temporary, long_lived, "temporary vs long-lived plan");
}

TEST(ShardedInferenceTest, ConcurrentShardSteppingIsRaceFree) {
  // The TSan exercise: 4 shard chains advance one world on pool threads
  // while views, the mirror, and convergence stats consume the merged
  // stream. Run under FGPDB_SANITIZE=thread in CI; here also asserts the
  // chain made progress and the counters fold sanely.
  NerFixture fixture(480);
  auto session = api::Session::Open(
      {.database = fixture.tokens.pdb.get(),
       .shard_plan = fixture.MakePlan(4),
       .evaluator = {.steps_per_sample = 500, .burn_in = 1000, .seed = 31},
       .policy = api::ExecutionPolicy::Sharded(4)});
  ASSERT_EQ(session->num_shards(), 4u);
  api::ResultHandle q1 = session->Register(ie::kQuery1);
  api::ResultHandle q4 = session->Register(ie::kQuery4);
  session->Run(15);
  const api::QueryProgress progress = q1.Snapshot();
  EXPECT_EQ(progress.samples, 15u);
  EXPECT_GT(progress.acceptance_rate, 0.0);
  EXPECT_EQ(q4.Snapshot().samples, 15u);
}

}  // namespace
}  // namespace fgpdb
