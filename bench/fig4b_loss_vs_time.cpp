// Figure 4(b): normalized squared-error loss versus wall-clock time for the
// naive and materialized evaluators on Query 1 (paper: 1M tuples; default
// here 100k, scaled by FGPDB_BENCH_SCALE).
//
// Expected shape: both decrease ~monotonically (the any-time property); the
// materialized curve reaches near-zero before the naive curve halves.
// Also prints the DESIGN.md thinning ablation (the materialized evaluator's
// convergence for several k) and the adaptive run-until-error-bound rows:
// ExecutionPolicy::Until stopping on its own error estimate versus the same
// multi-chain evaluator provisioned with a conservative fixed sample count.
//
// Reproducibility: every stochastic stream (corpus, ground truth, each
// evaluator, each ablation row) derives from ONE master seed — settable via
// --seed=N or FGPDB_BENCH_SEED — through DeriveSeed. Rerunning with the
// printed seed reproduces every number bitwise.
#include <iostream>

#include "api/session.h"
#include "bench_common.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace fgpdb;
using namespace fgpdb::bench;

namespace {

struct LossPoint {
  double seconds;
  double loss;
};

std::vector<LossPoint> LossCurve(pdb::SharedChainEvaluator& evaluator,
                                 const pdb::QueryAnswer& truth,
                                 uint64_t samples) {
  std::vector<LossPoint> curve;
  Stopwatch timer;
  evaluator.Initialize();
  for (uint64_t i = 0; i < samples; ++i) {
    evaluator.DrawSample();
    curve.push_back({timer.ElapsedSeconds(),
                     evaluator.answer(0).SquaredError(truth)});
  }
  return curve;
}

// Largest |p̂(t) − truth(t)| over the union of both answers' tuples — the
// per-tuple accuracy the until() bound advertises.
double MaxMarginalGap(const pdb::QueryAnswer& a, const pdb::QueryAnswer& b) {
  double gap = 0.0;
  for (const auto& [tuple, p] : a.Sorted()) {
    gap = std::max(gap, std::abs(p - b.Probability(tuple)));
  }
  for (const auto& [tuple, p] : b.Sorted()) {
    gap = std::max(gap, std::abs(p - a.Probability(tuple)));
  }
  return gap;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t n = static_cast<size_t>(100000 * BenchScale());
  const uint64_t k = std::max<uint64_t>(100, n / 1000);
  const uint64_t samples = 200;
  const uint64_t master = MasterSeed(argc, argv);
  const uint64_t corpus_seed = DeriveSeed(master, 0);
  const uint64_t truth_seed = DeriveSeed(master, 1);
  const uint64_t curve_seed = DeriveSeed(master, 2);
  const uint64_t ablation_seed = DeriveSeed(master, 3);

  std::cout << "=== Figure 4(b): loss vs time, Query 1, "
            << HumanCount(static_cast<double>(n))
            << " tuples (master seed " << master << ") ===\n\n";
  NerBench bench(n, corpus_seed);
  const auto make_proposal =
      [&bench](pdb::ProbabilisticDatabase&) -> std::unique_ptr<infer::Proposal> {
    return bench.MakeProposal();
  };

  // Ground truth: 8 independent post-burn-in chains at near-independence
  // thinning (2 proposals per token between samples), 400 samples each —
  // 3200 near-i.i.d. draws make the truth's AGGREGATE loss metric far
  // tighter than any curve compared against it. (Individual multimodal
  // tuples are a different story: their per-tuple error is set by the
  // cross-chain spread, ~0.5/sqrt(8) — which is why the adaptive section
  // below measures per-tuple gaps against a 256-chain reference instead.)
  Stopwatch truth_timer;
  auto truth_session = api::Session::Open(
      {.database = bench.tokens.pdb.get(),
       .proposal_factory = make_proposal,
       .evaluator = {.steps_per_sample = 2 * n,
                     .burn_in = DefaultBurnIn(n),
                     .seed = truth_seed},
       .policy = api::ExecutionPolicy::Parallel(8)});
  api::ResultHandle truth_handle = truth_session->Register(ie::kQuery1);
  truth_session->Run(400);
  const pdb::QueryAnswer truth = truth_handle.Snapshot().answer;
  std::cout << "(ground truth: 8 chains x 400 samples, "
            << FormatDouble(truth_timer.ElapsedSeconds(), 2) << "s)\n\n";

  const pdb::EvaluatorOptions options{.steps_per_sample = k, .burn_in = 0,
                                      .seed = curve_seed};
  auto world_naive = bench.tokens.pdb->Clone();
  ra::PlanPtr plan_naive = sql::PlanQuery(ie::kQuery1, world_naive->db());
  auto prop_naive = bench.MakeProposal();
  pdb::SharedChainEvaluator naive(world_naive.get(), prop_naive.get(), options,
                                  /*materialized=*/false);
  naive.AddQuery(plan_naive.get());
  const auto naive_curve = LossCurve(naive, truth, samples);

  auto world_mat = bench.tokens.pdb->Clone();
  ra::PlanPtr plan_mat = sql::PlanQuery(ie::kQuery1, world_mat->db());
  auto prop_mat = bench.MakeProposal();
  pdb::SharedChainEvaluator materialized(world_mat.get(), prop_mat.get(),
                                         options);
  materialized.AddQuery(plan_mat.get());
  const auto mat_curve = LossCurve(materialized, truth, samples);

  const double norm = std::max(naive_curve.front().loss, 1e-12);
  TablePrinter table({"sample", "naive time (s)", "naive loss (norm)",
                      "mat time (s)", "mat loss (norm)"});
  for (uint64_t i = 0; i < samples; i += 10) {
    table.AddRow({std::to_string(i + 1),
                  FormatDouble(naive_curve[i].seconds, 4),
                  FormatDouble(naive_curve[i].loss / norm, 4),
                  FormatDouble(mat_curve[i].seconds, 4),
                  FormatDouble(mat_curve[i].loss / norm, 4)});
  }
  table.Print(std::cout);
  std::cout << "\nCSV:\n";
  table.PrintCsv(std::cout);

  std::cout << "\nTotal wall-clock for " << samples
            << " samples: naive " << FormatDouble(naive_curve.back().seconds, 4)
            << "s vs materialized "
            << FormatDouble(mat_curve.back().seconds, 4) << "s ("
            << FormatDouble(
                   naive_curve.back().seconds / mat_curve.back().seconds, 3)
            << "x)\n";

  // --- Adaptive: run-until-error-bound vs the fixed sample count -----------
  // A production stopping rule only makes sense on mixed, decorrelated
  // chains, so this comparison runs post-burn-in at near-independence
  // thinning (2 proposals per token between samples) on the §5.4
  // multi-chain evaluator: B independent chains feed the cross-chain error
  // estimator. (At the figure's light thinning the per-tuple indicator
  // streams flip far too rarely for a few hundred samples to certify a
  // bound — which the estimators correctly report by never converging; run
  // with --seed to reproduce that regime at k.) The fixed baseline is the
  // same evaluator provisioned the way one provisions WITHOUT error bars: a
  // conservative guessed count. until() spends samples until its own bound
  // is met, escalating the chain count while it is not.
  const size_t base_chains = 4;
  const size_t fixed_chains = 256;  // 2x the default escalation cap's 128
  const uint64_t samples_per_round = 32;
  const uint64_t fixed_total = fixed_chains * samples_per_round;
  const pdb::EvaluatorOptions ad_options{.steps_per_sample = 2 * n,
                                         .burn_in = DefaultBurnIn(n),
                                         .seed = curve_seed};

  // The exhaustive reference: one round of 256 chains (no escalation), with
  // the same estimator tracking so it reports its own half-width — the
  // honest comparison band for the adaptive answers.
  api::ExecutionPolicy fixed_policy =
      api::ExecutionPolicy::Until(0.95, /*eps=*/1e-9, fixed_chains);
  fixed_policy.max_escalations = 0;
  auto fixed_session = api::Session::Open(
      {.database = bench.tokens.pdb.get(),
       .proposal_factory = make_proposal,
       .evaluator = ad_options,
       .policy = fixed_policy});
  api::ResultHandle fixed_handle = fixed_session->Register(ie::kQuery1);
  Stopwatch fixed_timer;
  fixed_session->Run(fixed_total);
  const double fixed_seconds = fixed_timer.ElapsedSeconds();
  const api::QueryProgress fixed_progress = fixed_handle.Snapshot();

  std::cout << "\n=== Adaptive: until(0.95, eps) vs fixed " << fixed_total
            << " samples (" << fixed_chains << " chains x "
            << samples_per_round
            << ", burn-in + near-independence thinning) ===\n";
  TablePrinter adaptive_table({"eps", "samples", "of fixed", "rounds",
                               "chains", "seconds", "converged",
                               "half-width", "max |p-fixed|", "loss (norm)"});
  for (const double eps : {0.10, 0.05}) {
    auto session = api::Session::Open(
        {.database = bench.tokens.pdb.get(),
         .proposal_factory = make_proposal,
         .evaluator = ad_options,
         .policy = api::ExecutionPolicy::Until(0.95, eps, base_chains)});
    api::ResultHandle handle = session->Register(ie::kQuery1);
    Stopwatch timer;
    session->Run(fixed_total);  // budget: never draw more than the fixed run
    const double seconds = timer.ElapsedSeconds();
    const api::QueryProgress progress = handle.Snapshot();
    adaptive_table.AddRow(
        {FormatDouble(eps, 2), std::to_string(progress.samples),
         FormatDouble(static_cast<double>(progress.samples) /
                          static_cast<double>(fixed_total), 3),
         std::to_string(progress.rounds), std::to_string(progress.chains),
         FormatDouble(seconds, 4), progress.converged ? "yes" : "no",
         FormatDouble(progress.max_half_width, 4),
         FormatDouble(MaxMarginalGap(progress.answer, fixed_progress.answer),
                      4),
         FormatDouble(progress.answer.SquaredError(truth) / norm, 4)});
  }
  adaptive_table.Print(std::cout);
  std::cout << "fixed-" << fixed_total << " reference: "
            << FormatDouble(fixed_seconds, 4) << "s, own half-width "
            << FormatDouble(fixed_progress.max_half_width, 4)
            << ", max |p-truth| "
            << FormatDouble(MaxMarginalGap(fixed_progress.answer, truth), 4)
            << ", loss (norm) "
            << FormatDouble(fixed_progress.answer.SquaredError(truth) / norm,
                            4)
            << "\n"
            << "(the per-tuple bound held when max |p-fixed| <= eps + the "
               "reference's own half-width; multimodal tuples put a floor "
               "under both sides' spread that only chain count lowers)\n";

  // --- Ablation: thinning interval k (DESIGN.md) ---------------------------
  std::cout << "\n=== Ablation: thinning interval k (materialized) ===\n";
  TablePrinter ablation({"k", "samples to half error", "seconds"});
  for (uint64_t k_ab : {k / 4, k, k * 4}) {
    if (k_ab == 0) continue;
    auto world = bench.tokens.pdb->Clone();
    ra::PlanPtr plan = sql::PlanQuery(ie::kQuery1, world->db());
    auto proposal = bench.MakeProposal();
    pdb::SharedChainEvaluator evaluator(
        world.get(), proposal.get(),
        {.steps_per_sample = k_ab, .burn_in = 0, .seed = ablation_seed});
    evaluator.AddQuery(plan.get());
    Stopwatch timer;
    evaluator.Initialize();
    evaluator.DrawSample();
    const double target = evaluator.answer(0).SquaredError(truth) / 2.0;
    uint64_t used = 1;
    while (used < 2000 &&
           evaluator.answer(0).SquaredError(truth) > target) {
      evaluator.DrawSample();
      ++used;
    }
    ablation.AddRow({std::to_string(k_ab), std::to_string(used),
                     FormatDouble(timer.ElapsedSeconds(), 4)});
  }
  ablation.Print(std::cout);
  std::cout << "\nPaper shape check: both evaluators trace the same "
               "monotonically decreasing (any-time) loss curve — they draw "
               "identical samples — but the materialized evaluator finishes "
               "the trajectory an order of magnitude sooner in wall-clock; "
               "larger k needs fewer samples (more independent) at more walk "
               "time per sample. The adaptive rows stop the SAME chain when "
               "the batched-means bound is met instead of at a guessed count.\n";
  return 0;
}
