// Figure 7 (Appendix 9.1): the answer to aggregate Query 2 as a histogram —
// the distribution of person-mention counts across sampled worlds. The
// paper's observation: the mass is approximately normal and concentrated
// around a small subset of values, which is why MCMC converges quickly on
// such aggregates.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "pdb/aggregate_distribution.h"
#include "util/math_util.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace fgpdb;
using namespace fgpdb::bench;

int main(int argc, char** argv) {
  const uint64_t master = InitBenchSeed(&argc, argv, "fig7");
  const size_t n = static_cast<size_t>(100000 * BenchScale());
  const uint64_t k = std::max<uint64_t>(100, n / 1000);

  std::cout << "=== Figure 7: distribution of Query 2 (person mention count) "
            << "over " << HumanCount(static_cast<double>(n))
            << " tuples (master seed " << master << ") ===\n\n";
  NerBench bench(n, DeriveSeed(master, 0));
  auto world = bench.tokens.pdb->Clone();
  ra::PlanPtr plan = sql::PlanQuery(ie::kQuery2, world->db());
  auto proposal = bench.MakeProposal();
  pdb::SharedChainEvaluator evaluator(
      world.get(), proposal.get(),
      {.steps_per_sample = 10 * k,
       .burn_in = DefaultBurnIn(n),
       .seed = DeriveSeed(master, 1)});
  evaluator.AddQuery(plan.get());
  evaluator.Run(2000);

  // The answer: one tuple per observed count value, with probability —
  // summarized by the library's aggregate-distribution API.
  const pdb::AggregateDistribution dist(evaluator.answer(0));
  const auto bins = dist.Histogram(18);
  TablePrinter table({"count range", "probability", "bar"});
  double max_mass = 1e-12;
  for (const auto& bin : bins) max_mass = std::max(max_mass, bin.mass);
  for (const auto& bin : bins) {
    const size_t bar_len = static_cast<size_t>(40.0 * bin.mass / max_mass);
    table.AddRow({std::to_string(static_cast<int64_t>(bin.lo)) + "-" +
                      std::to_string(static_cast<int64_t>(bin.hi)),
                  FormatDouble(bin.mass, 4), std::string(bar_len, '#')});
  }
  table.Print(std::cout);

  // Shape summary: unimodality and concentration, the properties the paper
  // highlights.
  std::cout << "\nmean=" << FormatDouble(dist.Mean(), 6)
            << " stddev=" << FormatDouble(dist.StdDev(), 4)
            << " mode=" << FormatDouble(dist.Mode(), 6)
            << " median=" << FormatDouble(dist.Quantile(0.5), 6)
            << " mass within 2 stddev="
            << FormatDouble(dist.MassWithin(2 * dist.StdDev()), 4) << "\n";
  std::cout << "Paper shape check: unimodal, approximately normal, mass "
               "clustered around a small subset of the answer set.\n";
  return 0;
}
