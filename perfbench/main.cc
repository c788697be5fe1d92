// fgpdb_perfbench — the repo benchmark (see README.md in this directory).
//
// Four workloads drive the paper's Queries 1–4 over the synthetic NER
// corpus through the public front doors, api::Session and serve::Server,
// check the answers after the timed region, and print one JSON object as
// the last line of standard output:
//
//   fgpdb_perfbench --workload views_200k --seed 7 --seconds 20 --trace 0
//   fgpdb_perfbench --self-test
//
// --trace 0 reports the end-to-end metrics (what a user waits for).
// --trace 1 runs the same workload composed from the layers' public calls
// (MetropolisHastings::Step / ShardRunner::Step, TakeDeltas,
// MaterializedView::Apply, QueryAnswer::ObserveSampleContaining) with spans
// at those boundaries, and reports per-layer metrics whose self times add
// up to the traced run's wall time.
//
// --self-test runs every workload at a reduced size with every check on,
// then shows each check rejecting a deliberately corrupted answer.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "ie/corpus.h"
#include "ie/ner_proposal.h"
#include "ie/queries.h"
#include "ie/shard_plan.h"
#include "ie/skip_chain_model.h"
#include "ie/token_pdb.h"
#include "infer/convergence.h"
#include "infer/shard_runner.h"
#include "pdb/convergence_stats.h"
#include "ra/executor.h"
#include "serve/server.h"
#include "sql/binder.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "view/incremental.h"

namespace fgpdb {
namespace perfbench {
namespace {

constexpr size_t kNumQueries = 4;
const char* const kQueries[kNumQueries] = {ie::kQuery1, ie::kQuery2,
                                           ie::kQuery3, ie::kQuery4};

// Seed streams. Pass p of a run is the workload at master seed
// DeriveSeed(--seed, p); every stream of a pass derives from that.
constexpr uint64_t kCorpusStream = 0;
constexpr uint64_t kChainStream = 1;
constexpr uint64_t kTenantStream = 100;  // + tenant index

// A run with fewer passes than this adds set-up-only passes, so setup_s is
// always a median of several full set-ups.
constexpr size_t kMinSetups = 3;

// ---------------------------------------------------------------------------
// Workloads.

enum class Kind { kSession, kServe };

struct Workload {
  const char* name = "";
  Kind kind = Kind::kSession;
  size_t tokens = 0;
  api::ExecutionPolicy policy;
  /// Thinning k, in steps per sample.
  uint64_t steps_per_sample = 0;
  /// Burn-in steps per token (per chain).
  uint64_t burn_in_per_token = 0;
  /// Session: samples per query (under Until, the budget). Serve: rounds.
  uint64_t budget = 0;
  /// Session: refreshes between two bursts of snapshot reads, and the
  /// reads per burst (Until has few refreshes, so it reads more per burst).
  uint64_t snapshot_every = 1;
  int snapshot_reads = 1;
  // Serve only.
  size_t tenants = 0;
  size_t server_threads = 0;
  uint64_t samples_per_submit = 0;
  uint64_t quantum_samples = 0;
  uint64_t tenant_burn_in = 0;
};

std::vector<Workload> AllWorkloads() {
  std::vector<Workload> out(4);
  Workload& sharded = out[0];
  sharded.name = "sharded_200k";
  sharded.tokens = 200000;
  // Four shards stepped in shard order on the calling thread: with a
  // thread per shard, every merge waits for the slowest shard, and on a
  // shared host that wait grows with the CPU other guests steal (README.md,
  // "Threads").
  sharded.policy = api::ExecutionPolicy::Sharded(4, /*max_threads=*/1);
  sharded.steps_per_sample = 100000;
  sharded.burn_in_per_token = 40;
  sharded.budget = 400;
  sharded.snapshot_every = 10;

  Workload& views = out[1];
  views.name = "views_200k";
  views.tokens = 200000;
  views.policy = api::ExecutionPolicy::Serial();
  views.steps_per_sample = 100;
  views.burn_in_per_token = 40;
  views.budget = 20000;
  views.snapshot_every = 100;

  Workload& until = out[2];
  until.name = "until_100k";
  until.tokens = 100000;
  until.policy = api::ExecutionPolicy::Until(0.95, 0.20, 4);
  until.steps_per_sample = 200000;
  until.burn_in_per_token = 4;
  until.budget = 1000000;
  until.snapshot_reads = 16;

  Workload& serve = out[3];
  serve.name = "serve_100k";
  serve.kind = Kind::kServe;
  serve.tokens = 100000;
  serve.steps_per_sample = 200;
  serve.budget = 100;
  serve.tenants = 16;
  // One scheduler thread beside the client thread, for the same reason as
  // the sharded workload's single stepping thread.
  serve.server_threads = 1;
  serve.samples_per_submit = 16;
  serve.quantum_samples = 8;
  serve.tenant_burn_in = 10000;
  return out;
}

/// The self-test's copy of a workload: same shape, a fraction of the work.
Workload Reduced(Workload w) {
  w.tokens = 4000;
  if (w.kind == Kind::kServe) {
    w.budget = 4;
  } else if (w.policy.mode != api::ExecutionPolicy::Mode::kUntil) {
    w.steps_per_sample = std::min<uint64_t>(w.steps_per_sample, 2000);
    w.budget = 40;
  } else {
    w.steps_per_sample = 8000;
  }
  return w;
}

bool IsUntil(const Workload& w) {
  return w.policy.mode == api::ExecutionPolicy::Mode::kUntil;
}

// ---------------------------------------------------------------------------
// Small helpers.

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Exact percentile (linear interpolation between closest ranks) of the raw
/// timings — never a histogram bucket.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Refreshes per window of the tail estimate: at p95, 5 beyond it.
constexpr size_t kTailWindow = 100;

/// The median over consecutive windows of kTailWindow values (one window
/// when there are fewer) of each window's exact percentile: a burst of
/// stolen CPU that covers a minority of the windows does not set the tail.
double WindowedPercentile(const std::vector<double>& v, double p) {
  if (v.size() < 2 * kTailWindow) return Percentile(v, p);
  std::vector<double> per_window;
  for (size_t begin = 0; begin + kTailWindow <= v.size();
       begin += kTailWindow) {
    per_window.push_back(Percentile(
        std::vector<double>(v.begin() + begin, v.begin() + begin + kTailWindow),
        p));
  }
  return Median(per_window);
}

/// Wall time per window of the sampling-rate estimate.
constexpr double kRateWindowS = 0.25;

/// samples_per_s over consecutive windows of at least `window_s` of wall
/// time after the first answer (reads and loop included), one value per
/// closed window; a pass that closes none contributes its whole rate. A
/// burst of stolen CPU that covers a minority of the windows does not set
/// the run's median.
class RateWindows {
 public:
  RateWindows(const Stopwatch& clock, double window_s, std::vector<double>* out)
      : clock_(clock), window_s_(window_s), out_(out) {}

  /// The window opens at the first answer, with `samples` collected.
  void Start(uint64_t samples) {
    start_s_ = clock_.ElapsedSeconds();
    start_samples_ = samples;
  }
  /// Closes the window once it has lasted `window_s`.
  void Mark(uint64_t samples) {
    const double now = clock_.ElapsedSeconds();
    if (now - start_s_ < window_s_) return;
    Close(now, samples);
    ++closed_;
    Start(samples);
  }
  /// At the final answer: the whole rate when no window closed.
  void Finish(uint64_t samples) {
    if (closed_ == 0) Close(clock_.ElapsedSeconds(), samples);
  }

 private:
  void Close(double now, uint64_t samples) {
    out_->push_back(static_cast<double>(samples - start_samples_) /
                    (now - start_s_));
  }

  const Stopwatch& clock_;
  double window_s_;
  std::vector<double>* out_;
  double start_s_ = 0.0;
  uint64_t start_samples_ = 0;
  int closed_ = 0;
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Set-up: corpus → TokenPdb → model.

struct Fixture {
  ie::TokenPdb tokens;
  std::unique_ptr<ie::SkipChainNerModel> model;

  std::unique_ptr<infer::Proposal> MakeProposal() const {
    return std::make_unique<ie::DocumentBatchProposal>(&tokens.docs);
  }
  pdb::ProposalFactory Factory() const {
    return [this](pdb::ProbabilisticDatabase&) { return MakeProposal(); };
  }
};

struct SetupTimes {
  double corpus_s = 0.0;
  double token_pdb_s = 0.0;
  double model_init_s = 0.0;
};

std::unique_ptr<Fixture> BuildFixture(size_t tokens, uint64_t seed,
                                      SetupTimes* times) {
  auto fixture = std::make_unique<Fixture>();
  Stopwatch timer;
  const ie::SyntheticCorpus corpus = ie::GenerateCorpus(
      {.num_tokens = tokens, .seed = DeriveSeed(seed, kCorpusStream)});
  times->corpus_s = timer.ElapsedSeconds();
  timer.Reset();
  fixture->tokens = ie::BuildTokenPdb(corpus);
  times->token_pdb_s = timer.ElapsedSeconds();
  timer.Reset();
  fixture->model = std::make_unique<ie::SkipChainNerModel>(fixture->tokens);
  fixture->model->InitializeFromCorpusStatistics(fixture->tokens);
  fixture->tokens.pdb->set_model(fixture->model.get());
  times->model_init_s = timer.ElapsedSeconds();
  return fixture;
}

pdb::EvaluatorOptions ChainOptions(const Workload& w, uint64_t seed) {
  pdb::EvaluatorOptions options;
  options.steps_per_sample = w.steps_per_sample;
  options.burn_in = w.burn_in_per_token * w.tokens;
  options.seed = DeriveSeed(seed, kChainStream);
  return options;
}

pdb::ShardPlan ShardPlanFor(const Workload& w, const Fixture& fixture) {
  if (w.policy.num_shards <= 1) return {};
  return ie::BuildDocumentShardPlan(fixture.tokens, *fixture.model,
                                    {.num_shards = w.policy.num_shards});
}

// ---------------------------------------------------------------------------
// Output checks. They read a plain copy of each answer (sample count plus
// per-tuple counts) so the self-test can corrupt one and watch the check
// fail. Each returns an empty string on success, else what went wrong.

struct Counts {
  uint64_t samples = 0;
  std::map<Tuple, uint64_t> counts;
};

Counts CountsOf(const pdb::QueryAnswer& answer) {
  Counts out;
  out.samples = answer.num_samples();
  answer.ForEachCount(
      [&](const Tuple& t, uint64_t c) { out.counts.emplace(t, c); });
  return out;
}

std::string CheckMarginals(const Counts& a, uint64_t min_samples,
                           uint64_t max_samples) {
  if (a.samples < min_samples || a.samples > max_samples) {
    return "sample count " + std::to_string(a.samples) + " outside [" +
           std::to_string(min_samples) + ", " + std::to_string(max_samples) +
           "]";
  }
  for (const auto& [t, c] : a.counts) {
    if (c == 0 || c > a.samples) {
      return "marginal of " + t.ToString() + " is " + std::to_string(c) +
             "/" + std::to_string(a.samples) + ", outside (0, 1]";
    }
  }
  return "";
}

std::string CheckQ2Distribution(const Counts& q2) {
  uint64_t total = 0;
  for (const auto& [t, c] : q2.counts) total += c;
  if (total != q2.samples) {
    return "Q2 count distribution sums to " + std::to_string(total) + "/" +
           std::to_string(q2.samples) + ", not 1";
  }
  return "";
}

/// On one shared chain every sample whose world puts t in Q4 also puts t in
/// Q1 (Q4's strings are labeled B-PER), so count_Q4(t) ≤ count_Q1(t).
std::string CheckQ4WithinQ1(const Counts& q1, const Counts& q4) {
  for (const auto& [t, c] : q4.counts) {
    const auto it = q1.counts.find(t);
    const uint64_t in_q1 = it == q1.counts.end() ? 0 : it->second;
    if (c > in_q1) {
      return "count_Q4(" + t.ToString() + ") = " + std::to_string(c) +
             " > count_Q1 = " + std::to_string(in_q1);
    }
  }
  return "";
}

struct Bound {
  bool converged = false;
  double max_half_width = 0.0;
};

std::string CheckBound(const Bound& b, double eps) {
  if (!b.converged || !(b.max_half_width <= eps)) {
    return "bound not held: converged=" + std::to_string(b.converged) +
           " half_width=" + std::to_string(b.max_half_width);
  }
  return "";
}

struct Accounting {
  uint64_t admitted = 0;
  uint64_t drawn = 0;
  uint64_t yielded = 0;
  uint64_t pending = 0;
};

std::string CheckAccounting(const Accounting& a) {
  if (a.drawn + a.yielded != a.admitted || a.pending != 0) {
    return "drawn " + std::to_string(a.drawn) + " + yielded " +
           std::to_string(a.yielded) + " != admitted " +
           std::to_string(a.admitted) + " (pending " +
           std::to_string(a.pending) + ")";
  }
  return "";
}

std::string CheckEqual(const Counts& a, const Counts& b) {
  if (a.samples != b.samples || a.counts != b.counts) {
    return "served and standalone answers differ";
  }
  return "";
}

using Bag = std::map<Tuple, int64_t>;

Bag BagOf(const view::DeltaMultiset& contents) {
  Bag out;
  contents.ForEach([&](const Tuple& t, int64_t c) {
    if (c != 0) out[t] += c;
  });
  return out;
}

/// Queries 1–4 recomputed by plain loops over the TOKEN rows — no sql, ra
/// or view code — as bags (SELECT keeps duplicates).
std::vector<Bag> RecomputeQueries(const Database& db) {
  struct DocTally {
    int64_t per = 0;
    int64_t org = 0;
    int64_t boston_org = 0;
    std::vector<std::string> per_strings;
  };
  std::map<int64_t, DocTally> docs;
  db.RequireTable(ie::kTokenTable)->Scan([&](RowId, const Tuple& row) {
    const std::string& str = row.at(ie::kColString).AsString();
    const std::string& label = row.at(ie::kColLabel).AsString();
    DocTally& tally = docs[row.at(ie::kColDocId).AsInt()];
    if (label == "B-PER") {
      ++tally.per;
      tally.per_strings.push_back(str);
    } else if (label == "B-ORG") {
      ++tally.org;
      if (str == ie::kBostonString) ++tally.boston_org;
    }
  });
  std::vector<Bag> out(kNumQueries);
  int64_t per_total = 0;
  for (const auto& [doc, tally] : docs) {
    for (const std::string& s : tally.per_strings) {
      out[0][Tuple{Value(s)}] += 1;
      if (tally.boston_org > 0) out[3][Tuple{Value(s)}] += tally.boston_org;
    }
    per_total += tally.per;
    if (tally.per == tally.org) out[2][Tuple{Value(doc)}] += 1;
  }
  out[1][Tuple{Value(per_total)}] = 1;
  return out;
}

std::string CheckViewsMatchRecompute(const std::vector<Bag>& views,
                                     const std::vector<Bag>& expected) {
  for (size_t q = 0; q < kNumQueries; ++q) {
    if (views[q] != expected[q]) {
      return "view Q" + std::to_string(q + 1) + " (" +
             std::to_string(views[q].size()) +
             " tuples) differs from its plain-loop recompute (" +
             std::to_string(expected[q].size()) + " tuples)";
    }
  }
  return "";
}

/// World-level Q4 ⊆ Q1: every string in the world's Q4 answer is labeled
/// B-PER in that world.
std::string CheckQ4ViewWithinQ1(const Bag& q1, const Bag& q4) {
  for (const auto& [t, c] : q4) {
    if (q1.count(t) == 0) return t.ToString() + " in Q4 but not in Q1";
  }
  return "";
}

// ---------------------------------------------------------------------------
// The run ledger: operations, check outcomes, and the last inputs every
// check saw (the self-test corrupts copies of those).

struct Captured {
  std::vector<Counts> answers;  // one session's four queries
  std::vector<Bound> bounds;    // until only
  Accounting accounting;        // serve only
  Counts served;                // serve: tenant 0 ...
  Counts standalone;            // ... and its standalone replay
  std::vector<Bag> views;       // traced: final view contents ...
  std::vector<Bag> recomputed;  // ... and the plain-loop recompute
};

struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  Captured captured;

  /// A Run/RunQuantum refresh, a snapshot read or a serve Submit.
  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      errors.push_back(what);
    }
  }
  /// A final answer check; a failing one makes the run incorrect.
  void Check(const std::string& error, const char* name) {
    Op(error.empty(), std::string(name) + ": " + error);
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(const Ledger& ledger, const std::vector<Metric>& metrics) {
  for (const std::string& e : ledger.errors) {
    std::fprintf(stderr, "FAILED: %s\n", e.c_str());
  }
  std::string json = "{\"correct\": ";
  json += ledger.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted);
  json += ", \"failed\": " + std::to_string(ledger.failed);
  json += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// The answer checks shared by the traced and untraced session passes.
void CheckSessionAnswers(const Workload& w, std::vector<Counts> counts,
                         std::vector<Bound> bounds, uint64_t round_samples,
                         Ledger* ledger) {
  const bool until = IsUntil(w);
  for (const Counts& c : counts) {
    ledger->Check(CheckMarginals(c, until ? 1 : w.budget,
                                 until ? w.budget + round_samples : w.budget),
                  "marginals");
  }
  ledger->Check(CheckQ2Distribution(counts[1]), "q2_distribution");
  ledger->Check(CheckQ4WithinQ1(counts[0], counts[3]), "q4_within_q1");
  for (const Bound& b : bounds) {
    ledger->Check(CheckBound(b, w.policy.eps), "until_bound");
  }
  ledger->captured.answers = std::move(counts);
  ledger->captured.bounds = std::move(bounds);
}

// ---------------------------------------------------------------------------
// End-to-end (untraced) runs.

struct Timings {
  std::vector<double> setup_s;
  std::vector<double> first_answer_s;
  std::vector<double> answer_s;
  std::vector<double> samples_per_s;
  std::vector<double> refresh_ms;
  std::vector<double> snapshot_us;
};

std::vector<Metric> EndToEndMetrics(const Timings& t) {
  return {
      {"setup_s", Median(t.setup_s), "s"},
      {"first_answer_s", Median(t.first_answer_s), "s"},
      {"answer_s", Median(t.answer_s), "s"},
      {"samples_per_s", Median(t.samples_per_s), "1/s"},
      {"refresh_p50_ms", Percentile(t.refresh_ms, 50), "ms"},
      {"refresh_p95_ms", WindowedPercentile(t.refresh_ms, 95), "ms"},
      {"snapshot_p50_us", Percentile(t.snapshot_us, 50), "us"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// One snapshot read: the progress of every registered query, as a client
/// refreshing its view of all its answers sees it. Returns its seconds.
double ReadAll(const std::vector<api::ResultHandle>& handles,
               uint64_t* samples) {
  Stopwatch read;
  *samples = 0;
  for (const api::ResultHandle& h : handles) {
    const api::QueryProgress p = h.Snapshot();
    *samples = std::max(*samples, p.samples);
  }
  return read.ElapsedSeconds();
}

/// Opens the workload's Session and prepares and registers Queries 1–4.
std::unique_ptr<api::Session> OpenSession(
    const Workload& w, const Fixture& fixture, uint64_t seed,
    std::vector<api::ResultHandle>* handles) {
  api::SessionOptions options;
  options.database = fixture.tokens.pdb.get();
  options.proposal_factory = fixture.Factory();
  options.shard_plan = ShardPlanFor(w, fixture);
  options.evaluator = ChainOptions(w, seed);
  options.policy = w.policy;
  std::unique_ptr<api::Session> session = api::Session::Open(options);
  for (const char* q : kQueries) {
    handles->push_back(session->Register(session->Prepare(q)));
  }
  return session;
}

/// One pass of a session workload on a fixture built under `setup`: open,
/// prepare and register, sample to the final answer, check.
void SessionPass(const Workload& w, const Fixture& fixture, uint64_t seed,
                 const Stopwatch& setup, Timings* t, Ledger* ledger) {
  std::vector<api::ResultHandle> handles;
  std::unique_ptr<api::Session> session =
      OpenSession(w, fixture, seed, &handles);
  t->setup_s.push_back(setup.ElapsedSeconds());

  const bool until = IsUntil(w);
  Stopwatch clock;
  // Under Until a pass has a handful of rounds of unequal size: its rate is
  // taken over the whole pass.
  RateWindows rate(clock,
                   until ? std::numeric_limits<double>::infinity()
                         : kRateWindowS,
                   &t->samples_per_s);
  double first_answer_s = 0.0;
  uint64_t samples = 0;
  uint64_t refreshes = 0;
  uint64_t max_round = 0;
  bool done = false;
  while (!done) {
    // One refresh: Run(1) on a resident chain, one estimator round under
    // Until (RunQuantum's unit there).
    Stopwatch refresh;
    uint64_t drawn = 1;
    if (until) {
      drawn = session->RunQuantum(w.budget);
    } else {
      session->Run(1);
    }
    const double refresh_s = refresh.ElapsedSeconds();
    ledger->Op(drawn > 0, "refresh drew no samples");
    samples += drawn;
    max_round = std::max(max_round, drawn);
    if (refreshes++ == 0) {
      first_answer_s = clock.ElapsedSeconds();
      rate.Start(samples);
    } else {
      t->refresh_ms.push_back(refresh_s * 1e3);
    }
    done = until ? session->converged() || samples >= w.budget
                 : samples >= w.budget;
    if (refreshes % w.snapshot_every == 0) {
      // Session is externally synchronized: reads come between refreshes.
      // Under Until they follow every round, the last one too, so the
      // median read falls inside one round's cluster, not between two.
      for (int r = 0; r < w.snapshot_reads; ++r) {
        uint64_t read_samples = 0;
        t->snapshot_us.push_back(ReadAll(handles, &read_samples) * 1e6);
        ledger->Op(read_samples == samples, "snapshot lags the chain");
      }
    }
    if (refreshes > 1) rate.Mark(samples);
  }
  rate.Finish(samples);
  t->first_answer_s.push_back(first_answer_s);
  t->answer_s.push_back(clock.ElapsedSeconds());

  std::vector<Counts> counts;
  std::vector<Bound> bounds;
  for (const api::ResultHandle& h : handles) {
    const api::QueryProgress p = h.Snapshot();
    counts.push_back(CountsOf(p.answer));
    if (until) bounds.push_back({p.converged, p.max_half_width});
  }
  CheckSessionAnswers(w, std::move(counts), std::move(bounds), max_round,
                      ledger);
}

// --- Serve -------------------------------------------------------------------

pdb::EvaluatorOptions TenantChainOptions(const Workload& w, uint64_t seed,
                                         size_t tenant) {
  pdb::EvaluatorOptions options;
  options.steps_per_sample = w.steps_per_sample;
  options.burn_in = w.tenant_burn_in;
  options.seed = DeriveSeed(seed, kTenantStream + tenant);
  return options;
}

struct ServeRig {
  std::unique_ptr<serve::Server> server;
  std::vector<serve::TenantId> tenants;
};

/// Client-thread spans of the serve loop (traced run only).
struct ServeSpans {
  double create_tenant_s = 0.0;
  double register_s = 0.0;
  double submit_s = 0.0;
  double snapshot_s = 0.0;
  double drain_s = 0.0;
  uint64_t submits = 0;
  uint64_t rounds = 0;
};

ServeRig OpenServer(const Workload& w, const Fixture& fixture, uint64_t seed,
                    Ledger* ledger, ServeSpans* spans) {
  ServeRig rig;
  serve::ServerOptions options;
  options.database = fixture.tokens.pdb.get();
  options.proposal_factory = fixture.Factory();
  options.quantum_samples = w.quantum_samples;
  options.max_outstanding_samples = 4 * w.samples_per_submit;
  options.num_threads = w.server_threads;
  rig.server = std::make_unique<serve::Server>(options);
  rig.tenants.assign(w.tenants, 0);
  for (size_t t = 0; t < w.tenants; ++t) {
    serve::TenantOptions tenant;
    tenant.has_evaluator = true;
    tenant.evaluator = TenantChainOptions(w, seed, t);
    Stopwatch span;
    serve::Status status = rig.server->CreateTenant(&rig.tenants[t], tenant);
    if (spans != nullptr) spans->create_tenant_s += span.ElapsedSeconds();
    ledger->Op(status.ok(), "CreateTenant: " + status.message);
    span.Reset();
    serve::QueryId query = 0;
    status = rig.server->RegisterQuery(rig.tenants[t],
                                       kQueries[t % kNumQueries], &query);
    if (spans != nullptr) spans->register_s += span.ElapsedSeconds();
    ledger->Op(status.ok(), "RegisterQuery: " + status.message);
  }
  return rig;
}

/// One closed-loop serve round: every tenant submits, the client reads
/// every tenant's snapshot while the scheduler runs, then drains.
void ServeRound(const Workload& w, ServeRig* rig, Timings* t, Ledger* ledger,
                ServeSpans* spans) {
  Stopwatch phase;
  for (serve::TenantId id : rig->tenants) {
    const serve::Status status = rig->server->Submit(id, w.samples_per_submit);
    ledger->Op(status.ok(), "Submit: " + status.message);
  }
  const double submit_s = phase.ElapsedSeconds();
  phase.Reset();
  for (serve::TenantId id : rig->tenants) {
    api::QueryProgress progress;
    Stopwatch read;
    const serve::Status status = rig->server->Snapshot(id, 0, &progress);
    if (t != nullptr) t->snapshot_us.push_back(read.ElapsedSeconds() * 1e6);
    ledger->Op(status.ok(), "Snapshot: " + status.message);
  }
  const double snapshot_s = phase.ElapsedSeconds();
  phase.Reset();
  rig->server->Drain();
  if (spans != nullptr) {
    spans->submit_s += submit_s;
    spans->snapshot_s += snapshot_s;
    spans->drain_s += phase.ElapsedSeconds();
    spans->submits += rig->tenants.size();
    ++spans->rounds;
  }
}

void CheckServe(const Workload& w, const Fixture& fixture, uint64_t seed,
                ServeRig* rig, Ledger* ledger) {
  const uint64_t per_tenant = w.budget * w.samples_per_submit;
  Accounting accounting;
  for (size_t t = 0; t < w.tenants; ++t) {
    serve::TenantStats stats;
    const serve::Status status =
        rig->server->GetTenantStats(rig->tenants[t], &stats);
    ledger->Op(status.ok(), "GetTenantStats: " + status.message);
    accounting.admitted += stats.submitted;
    accounting.drawn += stats.samples_drawn;
    accounting.yielded += stats.yielded;
    accounting.pending += stats.pending;
    api::QueryProgress progress;
    ledger->Op(rig->server->Snapshot(rig->tenants[t], 0, &progress).ok(),
               "Snapshot");
    const Counts counts = CountsOf(progress.answer);
    ledger->Check(CheckMarginals(counts, per_tenant, per_tenant), "marginals");
    if (t % kNumQueries == 1) {
      ledger->Check(CheckQ2Distribution(counts), "q2_distribution");
    }
    if (t == 0) ledger->captured.served = counts;
  }
  ledger->Check(CheckAccounting(accounting), "serve_accounting");
  ledger->captured.accounting = accounting;

  // The scheduler must not perturb a chain: tenant 0 equals a standalone
  // Session at its seed and budget.
  api::SessionOptions options;
  options.database = fixture.tokens.pdb.get();
  options.proposal_factory = fixture.Factory();
  options.evaluator = TenantChainOptions(w, seed, 0);
  std::unique_ptr<api::Session> standalone = api::Session::Open(options);
  api::ResultHandle handle = standalone->Register(kQueries[0]);
  standalone->Run(per_tenant);
  ledger->captured.standalone = CountsOf(handle.Snapshot().answer);
  ledger->Check(
      CheckEqual(ledger->captured.served, ledger->captured.standalone),
      "serve_bitwise");
}

void ServePass(const Workload& w, const Fixture& fixture, uint64_t seed,
               const Stopwatch& setup, Timings* t, Ledger* ledger) {
  ServeRig rig = OpenServer(w, fixture, seed, ledger, nullptr);
  t->setup_s.push_back(setup.ElapsedSeconds());

  Stopwatch clock;
  RateWindows rate(clock, kRateWindowS, &t->samples_per_s);
  const uint64_t per_round = w.tenants * w.samples_per_submit;
  double first_answer_s = 0.0;
  for (uint64_t round = 0; round < w.budget; ++round) {
    Stopwatch refresh;
    ServeRound(w, &rig, t, ledger, nullptr);
    if (round == 0) {
      first_answer_s = clock.ElapsedSeconds();
      rate.Start(per_round);
    } else {
      t->refresh_ms.push_back(refresh.ElapsedSeconds() * 1e3);
      rate.Mark((round + 1) * per_round);
    }
  }
  rate.Finish(w.budget * per_round);
  t->first_answer_s.push_back(first_answer_s);
  t->answer_s.push_back(clock.ElapsedSeconds());
  CheckServe(w, fixture, seed, &rig, ledger);
}

/// Runs whole passes of the same work while the next one still fits before
/// `run` reaches `seconds` (always at least one).
template <typename Pass>
int RunPasses(const Stopwatch& run, double seconds, const Pass& pass) {
  int passes = 0;
  double longest = 0.0;
  do {
    Stopwatch one;
    pass();
    longest = std::max(longest, one.ElapsedSeconds());
    ++passes;
  } while (run.ElapsedSeconds() + longest <= seconds);
  return passes;
}

Ledger RunEndToEnd(const Workload& w, uint64_t seed, double seconds,
                   std::vector<Metric>* metrics) {
  Ledger ledger;
  Timings t;
  Stopwatch run;
  // Every pass builds its own inputs, so a run's medians span several
  // corpora and no one corpus's answer sizes set them.
  uint64_t pass = 0;
  const int passes = RunPasses(run, seconds, [&] {
    const uint64_t pass_seed = DeriveSeed(seed, pass++);
    Stopwatch setup;
    SetupTimes times;
    const std::unique_ptr<Fixture> fixture =
        BuildFixture(w.tokens, pass_seed, &times);
    if (w.kind == Kind::kServe) {
      ServePass(w, *fixture, pass_seed, setup, &t, &ledger);
    } else {
      SessionPass(w, *fixture, pass_seed, setup, &t, &ledger);
    }
    std::fprintf(stderr,
                 "[%s] pass: setup %.4fs first answer %.4fs answer %.4fs "
                 "%.1f samples/s (last window)\n",
                 w.name, t.setup_s.back(), t.first_answer_s.back(),
                 t.answer_s.back(), t.samples_per_s.back());
  });
  while (t.setup_s.size() < kMinSetups) {
    Stopwatch setup;
    SetupTimes times;
    const uint64_t pass_seed = DeriveSeed(seed, pass++);
    const std::unique_ptr<Fixture> fixture =
        BuildFixture(w.tokens, pass_seed, &times);
    if (w.kind == Kind::kServe) {
      const ServeRig rig = OpenServer(w, *fixture, pass_seed, &ledger, nullptr);
      t.setup_s.push_back(setup.ElapsedSeconds());
    } else {
      std::vector<api::ResultHandle> handles;
      const std::unique_ptr<api::Session> session =
          OpenSession(w, *fixture, pass_seed, &handles);
      t.setup_s.push_back(setup.ElapsedSeconds());
    }
  }
  std::fprintf(stderr, "[%s] seed %llu: %d passes\n", w.name,
               static_cast<unsigned long long>(seed), passes);
  *metrics = EndToEndMetrics(t);
  return ledger;
}

// ---------------------------------------------------------------------------
// Traced runs: the same workloads composed from the layers' public calls.

/// Self seconds and counters per layer. Every span on the driving thread is
/// charged to exactly one layer, so their sum is the traced wall time less
/// the benchmark's own loop overhead (reported as trace.unattributed_share).
struct Trace {
  std::map<std::string, double> self_s;
  std::map<std::string, double> count;
  std::vector<double> round_s;

  void Add(const std::string& layer, double s) { self_s[layer] += s; }
  void Count(const std::string& name, double n) { count[name] += n; }
};

/// The benchmark's own answer checks: timed so they can be left out of both
/// the traced wall time and the layer sum.
constexpr const char* kCheckLayer = "bench.check";

/// Runs `fn` and charges its wall time to `layer`.
template <typename Fn>
void Span(Trace* trace, const std::string& layer, const Fn& fn) {
  Stopwatch timer;
  fn();
  trace->Add(layer, timer.ElapsedSeconds());
}

std::string Q(size_t q) { return ".q" + std::to_string(q + 1); }

/// One chain composed the way SharedChainEvaluator runs it: a COW snapshot
/// of the base, a serial sampler or a shard runner, burn-in, one exhaustive
/// view evaluation per query, then per sample: step, drain, route, fold.
class TracedChain {
 public:
  TracedChain(const Workload& w, const Fixture& fixture,
              const pdb::ShardPlan& shard_plan,
              const std::vector<ra::PlanPtr>& plans, uint64_t chain_seed,
              Trace* trace)
      : w_(w), shard_plan_(shard_plan), trace_(trace) {
    Span(trace, "storage.snapshot", [&] {
      world_ = fixture.tokens.pdb->Snapshot();
    });
    trace->Count("storage.snapshots", 1);
    Span(trace, "infer.chain_open", [&] {
      if (shard_plan_.num_shards > 1) {
        std::vector<std::unique_ptr<infer::Proposal>> proposals;
        for (size_t s = 0; s < shard_plan_.num_shards; ++s) {
          proposals.push_back(shard_plan_.make_proposal(*world_, s));
        }
        runner_ = std::make_unique<infer::ShardRunner>(
            world_->model(), &world_->world(), std::move(proposals),
            shard_plan_.partition,
            infer::ShardRunnerOptions{chain_seed, w.policy.use_threads,
                                      w.policy.max_threads});
      } else {
        proposal_ = fixture.MakeProposal();
        sampler_ = world_->MakeSampler(proposal_.get(), chain_seed);
      }
    });
    const uint64_t burn_in = w.burn_in_per_token * w.tokens;
    Span(trace, "infer.burn_in", [&] {
      if (runner_ != nullptr) {
        runner_->RunBurnIn(burn_in);
        world_->binding().StoreWorld(world_->world(), &world_->db());
      } else {
        sampler_->Run(burn_in);
      }
      world_->DiscardDeltas();
    });
    trace->Count("infer.burn_in_steps", static_cast<double>(burn_in));
    for (size_t q = 0; q < plans.size(); ++q) {
      Span(trace, "view.init" + Q(q), [&] {
        views_.push_back(std::make_unique<view::MaterializedView>(*plans[q]));
        views_.back()->Initialize(world_->db());
      });
      trace->Count("view.inits" + Q(q), 1);
    }
    answers_.resize(plans.size());
  }

  void DrawSample() {
    const uint64_t k = w_.steps_per_sample;
    Stopwatch step;
    double merge_s = 0.0;
    size_t accepted = 0;
    if (runner_ != nullptr) {
      accepted = runner_->Step(
          k, [&](const std::vector<factor::AppliedAssignment>& applied) {
            Stopwatch merge;
            world_->MirrorApplied(applied);
            merge_s += merge.ElapsedSeconds();
          });
    } else {
      accepted = sampler_->Step(k);
    }
    trace_->Add("infer.step", step.ElapsedSeconds() - merge_s);
    trace_->Add("pdb.shard_merge", merge_s);
    trace_->Count("infer.steps", static_cast<double>(k));
    trace_->Count("infer.accepted", static_cast<double>(accepted));

    Span(trace_, "pdb.take_deltas", [&] { world_->TakeDeltas(&deltas_); });
    trace_->Count("pdb.delta_rows",
                  static_cast<double>(deltas_.TotalMagnitude()));
    std::vector<bool> touched(views_.size(), false);
    deltas_.ForEachTable(
        [&](const std::string& table, const view::DeltaMultiset& delta) {
          if (delta.empty()) return;
          for (size_t q = 0; q < views_.size(); ++q) {
            if (views_[q]->subscriptions().count(table) > 0) touched[q] = true;
          }
        });
    for (size_t q = 0; q < views_.size(); ++q) {
      if (!touched[q]) continue;
      Span(trace_, "view.apply" + Q(q), [&] { views_[q]->Apply(deltas_); });
    }
    Span(trace_, "pdb.observe", [&] {
      for (size_t q = 0; q < views_.size(); ++q) {
        std::vector<Tuple> distinct;
        distinct.reserve(views_[q]->contents().distinct_size());
        views_[q]->contents().ForEach(
            [&](const Tuple& t, int64_t) { distinct.push_back(t); });
        answers_[q].ObserveSampleContaining(distinct);
        trace_->Count("pdb.answer_tuples",
                      static_cast<double>(distinct.size()));
      }
    });
    trace_->Count("pdb.samples", 1);
  }

  const std::vector<pdb::QueryAnswer>& answers() const { return answers_; }
  const Database& db() const { return world_->db(); }

  /// Charges the chain's sampler counters and its views' ApplyStats to the
  /// trace (call once, after the last sample).
  void Tally() {
    trace_->Count("infer.proposed", static_cast<double>(
        runner_ != nullptr ? runner_->num_proposed()
                           : sampler_->num_proposed()));
    trace_->Count("infer.proposed_accepted", static_cast<double>(
        runner_ != nullptr ? runner_->num_accepted()
                           : sampler_->num_accepted()));
    for (const auto& v : views_) {
      trace_->Count("view.operators_visited",
                    static_cast<double>(v->stats().operators_visited));
      trace_->Count("view.operators_skipped",
                    static_cast<double>(v->stats().operators_skipped));
    }
  }

  /// Checks every view against the plain-loop recompute over this chain's
  /// world.
  void Finish(Ledger* ledger) {
    std::vector<Bag> bags;
    for (const auto& v : views_) bags.push_back(BagOf(v->contents()));
    std::vector<Bag> expected = RecomputeQueries(world_->db());
    ledger->Check(CheckViewsMatchRecompute(bags, expected), "view_recompute");
    ledger->Check(CheckQ4ViewWithinQ1(bags[0], bags[3]), "q4_view_within_q1");
    ledger->captured.views = std::move(bags);
    ledger->captured.recomputed = std::move(expected);
  }

 private:
  const Workload& w_;
  /// A copy: the shard proposals point into document lists its factory
  /// closure owns.
  const pdb::ShardPlan shard_plan_;
  Trace* trace_;
  std::unique_ptr<pdb::ProbabilisticDatabase> world_;
  std::unique_ptr<infer::Proposal> proposal_;
  std::unique_ptr<infer::MetropolisHastings> sampler_;
  std::unique_ptr<infer::ShardRunner> runner_;
  std::vector<std::unique_ptr<view::MaterializedView>> views_;
  std::vector<pdb::QueryAnswer> answers_;
  view::DeltaSet deltas_;
};

std::vector<ra::PlanPtr> PrepareTraced(const Fixture& fixture, Trace* trace) {
  std::vector<ra::PlanPtr> plans;
  for (const char* q : kQueries) {
    Span(trace, "sql.prepare",
         [&] { plans.push_back(sql::PlanQuery(q, fixture.tokens.pdb->db())); });
    trace->Count("sql.prepares", 1);
  }
  return plans;
}

/// A serial or sharded session pass, composed.
void TracedChainPass(const Workload& w, const Fixture& fixture, uint64_t seed,
                     Trace* trace, Ledger* ledger) {
  pdb::ShardPlan shard_plan;
  Span(trace, "ie.shard_plan", [&] { shard_plan = ShardPlanFor(w, fixture); });
  const std::vector<ra::PlanPtr> plans = PrepareTraced(fixture, trace);
  TracedChain chain(w, fixture, shard_plan, plans,
                    ChainOptions(w, seed).seed, trace);
  for (uint64_t i = 0; i < w.budget; ++i) chain.DrawSample();
  chain.Tally();
  std::vector<Counts> counts;
  for (const pdb::QueryAnswer& a : chain.answers()) {
    counts.push_back(CountsOf(a));
  }
  Span(trace, kCheckLayer, [&] {
    CheckSessionAnswers(w, std::move(counts), {}, 0, ledger);
    chain.Finish(ledger);
  });
}

/// The Until policy's escalation ladder, composed: rounds of COW chains
/// (seeded exactly as the session seeds them), folded into merged answers
/// and the cross-chain estimator, the chain count doubling while the bound
/// is unmet. Chains run one after another on this thread so that their
/// layer spans add up to the wall time.
void TracedUntilPass(const Workload& w, const Fixture& fixture, uint64_t seed,
                     Trace* trace, Ledger* ledger) {
  const std::vector<ra::PlanPtr> plans = PrepareTraced(fixture, trace);
  const api::ExecutionPolicy& policy = w.policy;
  const double z = infer::ZForConfidence(policy.confidence);
  const uint64_t base_seed = ChainOptions(w, seed).seed;
  Workload round_w = w;
  round_w.budget = policy.samples_per_round;
  std::vector<pdb::QueryAnswer> merged(plans.size());
  std::vector<pdb::CrossChainStats> stats(plans.size());
  std::vector<bool> converged(plans.size(), false);
  size_t chains = policy.num_chains;
  size_t escalations = 0;
  uint64_t rounds = 0;
  uint64_t total_chains = 0;
  uint64_t max_round = 0;
  const pdb::ShardPlan no_shards;
  while (true) {
    Stopwatch round;
    const uint64_t salt = rounds * 0xbf58476d1ce4e5b9ULL;
    for (size_t b = 0; b < chains; ++b) {
      TracedChain chain(round_w, fixture, no_shards, plans,
                        base_seed + salt + 0x9e3779b97f4a7c15ULL * (b + 1),
                        trace);
      for (uint64_t i = 0; i < policy.samples_per_round; ++i) {
        chain.DrawSample();
      }
      chain.Tally();
      Span(trace, "until.fold", [&] {
        for (size_t q = 0; q < plans.size(); ++q) {
          merged[q].Merge(chain.answers()[q]);
          stats[q].ObserveChain(chain.answers()[q]);
        }
      });
      if (rounds == 0 && b == 0) {
        Span(trace, kCheckLayer, [&] { chain.Finish(ledger); });
      }
    }
    ++rounds;
    total_chains += chains;
    max_round = std::max<uint64_t>(max_round, chains * policy.samples_per_round);
    bool all = true;
    uint64_t samples = 0;
    for (size_t q = 0; q < plans.size(); ++q) {
      if (!converged[q] && merged[q].num_samples() >= policy.min_samples &&
          stats[q].num_chains() >= 2 &&
          stats[q].MaxHalfWidth(z) <= policy.eps) {
        converged[q] = true;
      }
      all = all && converged[q];
      samples = std::max(samples, merged[q].num_samples());
    }
    trace->round_s.push_back(round.ElapsedSeconds());
    if (all || samples >= w.budget) break;
    if (escalations < policy.max_escalations) {
      chains *= 2;
      ++escalations;
    }
  }
  trace->Count("until.rounds", static_cast<double>(rounds));
  trace->Count("until.chains", static_cast<double>(total_chains));
  trace->Count("until.samples", static_cast<double>(merged[0].num_samples()));
  std::vector<Counts> counts;
  std::vector<Bound> bounds;
  for (size_t q = 0; q < plans.size(); ++q) {
    counts.push_back(CountsOf(merged[q]));
    bounds.push_back({converged[q], stats[q].MaxHalfWidth(z)});
  }
  Span(trace, kCheckLayer, [&] {
    CheckSessionAnswers(w, std::move(counts), std::move(bounds), max_round,
                        ledger);
  });
}

/// The serve workload with client-side spans; the scheduler's own counters
/// come from Server::metrics().
void TracedServePass(const Workload& w, const Fixture& fixture,
                     uint64_t seed, Trace* trace, Ledger* ledger) {
  ServeSpans spans;
  ServeRig rig;
  Span(trace, "serve.open", [&] {
    rig = OpenServer(w, fixture, seed, ledger, &spans);
  });
  // CreateTenant is Session::Open, a COW snapshot of the base; RegisterQuery
  // is Prepare through the shared plan cache plus one view registration.
  trace->Add("serve.open", -spans.create_tenant_s - spans.register_s);
  trace->Add("storage.snapshot", spans.create_tenant_s);
  trace->Count("storage.snapshots", static_cast<double>(w.tenants));
  trace->Add("sql.prepare", spans.register_s);
  trace->Count("sql.prepares", static_cast<double>(w.tenants));
  for (uint64_t round = 0; round < w.budget; ++round) {
    ServeRound(w, &rig, nullptr, ledger, &spans);
  }
  trace->Add("serve.submit", spans.submit_s);
  trace->Add("serve.snapshot", spans.snapshot_s);
  trace->Add("serve.drain", spans.drain_s);
  trace->Count("serve.submits", static_cast<double>(spans.submits));
  trace->Count("serve.rounds", static_cast<double>(spans.rounds));
  const serve::SchedulerMetrics m = rig.server->metrics();
  const api::PlanCache::Stats cache = rig.server->plan_cache_stats();
  trace->Count("serve.quanta", static_cast<double>(m.quanta_executed));
  trace->Count("serve.rejected", static_cast<double>(m.submissions_rejected));
  trace->Count("api.plan_cache_hits", static_cast<double>(cache.hits));
  trace->Count("api.plan_cache_misses", static_cast<double>(cache.misses));
  trace->Count("serve.quantum_us.p50", m.quantum_latency.P50Nanos() / 1e3);
  trace->Count("serve.quantum_us.p95", m.quantum_latency.P95Nanos() / 1e3);
  trace->Count("serve.snapshot_service_us.p50",
               m.snapshot_latency.P50Nanos() / 1e3);
  Span(trace, kCheckLayer, [&] { CheckServe(w, fixture, seed, &rig, ledger); });
  Span(trace, "serve.close", [&] { rig.server.reset(); });
}

double Get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> PerLayerMetrics(const Trace& trace, int passes,
                                    double wall_s) {
  const auto& s = trace.self_s;
  const auto& c = trace.count;
  const double samples = Get(c, "pdb.samples");
  const double per_pass = passes > 0 ? 1.0 / passes : 0.0;
  double layers_s = 0.0;
  for (const auto& [layer, sec] : s) {
    if (layer != kCheckLayer) layers_s += sec;
  }
  wall_s -= Get(s, kCheckLayer);
  std::vector<Metric> out = {
      {"ie.corpus_s", Get(s, "ie.corpus") * per_pass, "s"},
      {"ie.token_pdb_s", Get(s, "ie.token_pdb") * per_pass, "s"},
      {"ie.model_init_s", Get(s, "ie.model_init") * per_pass, "s"},
      {"ie.shard_plan_s", Get(s, "ie.shard_plan") * per_pass, "s"},
      {"sql.prepare_us",
       Ratio(Get(s, "sql.prepare"), Get(c, "sql.prepares")) * 1e6, "us"},
      {"api.plan_cache_hits", Get(c, "api.plan_cache_hits") * per_pass,
       "count"},
      {"api.plan_cache_misses", Get(c, "api.plan_cache_misses") * per_pass,
       "count"},
      {"storage.snapshot_us",
       Ratio(Get(s, "storage.snapshot"), Get(c, "storage.snapshots")) * 1e6,
       "us"},
      {"infer.burn_in_ns_per_step",
       Ratio(Get(s, "infer.burn_in"), Get(c, "infer.burn_in_steps")) * 1e9,
       "ns"},
      {"infer.step_ns", Ratio(Get(s, "infer.step"), Get(c, "infer.steps")) * 1e9,
       "ns"},
      {"infer.acceptance",
       Ratio(Get(c, "infer.proposed_accepted"), Get(c, "infer.proposed")),
       "ratio"},
      {"infer.transitions", Ratio(Get(c, "infer.accepted"), samples),
       "count"},
      {"pdb.shard_merge_us", Ratio(Get(s, "pdb.shard_merge"), samples) * 1e6,
       "us"},
      {"pdb.take_deltas_us", Ratio(Get(s, "pdb.take_deltas"), samples) * 1e6,
       "us"},
      {"pdb.delta_rows", Ratio(Get(c, "pdb.delta_rows"), samples), "count"},
      {"pdb.observe_us", Ratio(Get(s, "pdb.observe"), samples) * 1e6, "us"},
      {"pdb.answer_tuples", Ratio(Get(c, "pdb.answer_tuples"), samples),
       "count"},
  };
  for (size_t q = 0; q < kNumQueries; ++q) {
    out.push_back({"view.init_s" + Q(q),
                   Ratio(Get(s, "view.init" + Q(q)), Get(c, "view.inits" + Q(q))),
                   "s"});
  }
  for (size_t q = 0; q < kNumQueries; ++q) {
    out.push_back({"view.apply_us" + Q(q),
                   Ratio(Get(s, "view.apply" + Q(q)), samples) * 1e6, "us"});
  }
  const std::vector<Metric> rest = {
      {"view.operators_visited", Ratio(Get(c, "view.operators_visited"), samples),
       "count"},
      {"view.operators_skipped", Ratio(Get(c, "view.operators_skipped"), samples),
       "count"},
      {"until.rounds", Get(c, "until.rounds") * per_pass, "count"},
      {"until.chains", Get(c, "until.chains") * per_pass, "count"},
      {"until.samples", Get(c, "until.samples") * per_pass, "count"},
      {"until.round_s", Median(trace.round_s), "s"},
      {"until.fold_us", Ratio(Get(s, "until.fold"), Get(c, "until.chains")) * 1e6,
       "us"},
      {"serve.open_s", Get(s, "serve.open") * per_pass, "s"},
      {"serve.submit_us", Ratio(Get(s, "serve.submit"), Get(c, "serve.submits")) * 1e6,
       "us"},
      {"serve.client_snapshot_us",
       Ratio(Get(s, "serve.snapshot"), Get(c, "serve.submits")) * 1e6, "us"},
      {"serve.drain_ms", Ratio(Get(s, "serve.drain"), Get(c, "serve.rounds")) * 1e3,
       "ms"},
      {"serve.quantum_us.p50", Get(c, "serve.quantum_us.p50") * per_pass, "us"},
      {"serve.quantum_us.p95", Get(c, "serve.quantum_us.p95") * per_pass, "us"},
      {"serve.snapshot_service_us.p50",
       Get(c, "serve.snapshot_service_us.p50") * per_pass, "us"},
      {"serve.quanta", Get(c, "serve.quanta") * per_pass, "count"},
      {"serve.rejected", Get(c, "serve.rejected") * per_pass, "count"},
      {"trace.wall_s", wall_s, "s"},
      {"trace.layers_s", layers_s, "s"},
      {"trace.unattributed_share", Ratio(wall_s - layers_s, wall_s), "ratio"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

Ledger RunTraced(const Workload& w, uint64_t seed, double seconds,
                 std::vector<Metric>* metrics) {
  Ledger ledger;
  Trace trace;
  Stopwatch wall;
  uint64_t pass = 0;
  const int passes = RunPasses(wall, seconds, [&] {
    const uint64_t pass_seed = DeriveSeed(seed, pass++);
    SetupTimes times;
    const std::unique_ptr<Fixture> fixture =
        BuildFixture(w.tokens, pass_seed, &times);
    trace.Add("ie.corpus", times.corpus_s);
    trace.Add("ie.token_pdb", times.token_pdb_s);
    trace.Add("ie.model_init", times.model_init_s);
    if (w.kind == Kind::kServe) {
      TracedServePass(w, *fixture, pass_seed, &trace, &ledger);
    } else if (IsUntil(w)) {
      TracedUntilPass(w, *fixture, pass_seed, &trace, &ledger);
    } else {
      TracedChainPass(w, *fixture, pass_seed, &trace, &ledger);
    }
  });
  const double wall_s = wall.ElapsedSeconds();
  std::fprintf(stderr, "[%s] traced seed %llu: %d passes\n", w.name,
               static_cast<unsigned long long>(seed), passes);
  *metrics = PerLayerMetrics(trace, passes, wall_s);
  return ledger;
}

// ---------------------------------------------------------------------------
// Reference figures for README.md (not part of any timed run).

/// The paper's headline comparison at each session workload's size and
/// thinning: Alg. 3 re-runs every query on each sampled world
/// (ra::Execute), Alg. 1 maintains the views from the sample's deltas
/// (TakeDeltas + MaterializedView::Apply). Both then fold the answer into
/// the marginals (ObserveSampleContaining), shown apart. Also the cost of
/// MetropolisHastings' per-step phase timers (StepPhaseTotals). Adds the
/// sharded workload at 1M tokens, a working set far larger than L2.
int Reference(uint64_t seed) {
  std::printf("%-12s %8s %7s %13s %13s %9s %11s\n", "workload", "tokens",
              "k", "alg3_exec_us", "alg1_apply_us", "ratio", "observe_us");
  std::vector<Workload> workloads = AllWorkloads();
  workloads.pop_back();  // serve: no single chain to compare
  workloads.push_back(workloads[0]);
  workloads.back().name = "sharded_1m";
  workloads.back().tokens = 1000000;
  std::unique_ptr<Fixture> largest;
  for (const Workload& w : workloads) {
    SetupTimes times;
    std::unique_ptr<Fixture> fixture = BuildFixture(w.tokens, seed, &times);
    Trace trace;
    const std::vector<ra::PlanPtr> plans = PrepareTraced(*fixture, &trace);
    TracedChain chain(w, *fixture, ShardPlanFor(w, *fixture), plans,
                      ChainOptions(w, seed).seed, &trace);
    const uint64_t samples = w.steps_per_sample >= 10000 ? 20 : 400;
    for (uint64_t i = 0; i < samples; ++i) chain.DrawSample();
    double apply_s = Get(trace.self_s, "pdb.take_deltas");
    for (size_t q = 0; q < kNumQueries; ++q) {
      apply_s += Get(trace.self_s, "view.apply" + Q(q));
    }
    double exec_s = 0.0;
    for (const ra::PlanPtr& plan : plans) {
      std::vector<double> runs;
      for (int r = 0; r < 3; ++r) {
        Stopwatch timer;
        const std::vector<Tuple> rows = ra::Execute(*plan, chain.db());
        runs.push_back(timer.ElapsedSeconds());
      }
      exec_s += Median(runs);
    }
    const double alg1_us = apply_s / samples * 1e6;
    std::printf("%-12s %8zu %7llu %13.1f %13.1f %9.0f %11.1f\n", w.name,
                w.tokens, static_cast<unsigned long long>(w.steps_per_sample),
                exec_s * 1e6, alg1_us, exec_s * 1e6 / alg1_us,
                Get(trace.self_s, "pdb.observe") / samples * 1e6);
    if (largest == nullptr || w.tokens > largest->tokens.num_tokens()) {
      largest = std::move(fixture);
    }
  }
  // Per-step phase timers on a serial chain over the largest corpus.
  const uint64_t steps = 4000000;
  double ns[2] = {0.0, 0.0};
  for (int timed = 0; timed <= 1; ++timed) {
    std::unique_ptr<pdb::ProbabilisticDatabase> world =
        largest->tokens.pdb->Snapshot();
    std::unique_ptr<infer::Proposal> proposal = largest->MakeProposal();
    std::unique_ptr<infer::MetropolisHastings> sampler =
        world->MakeSampler(proposal.get(), seed);
    infer::StepPhaseTotals totals;
    if (timed) sampler->set_phase_totals(&totals);
    sampler->Step(steps / 4);  // warm the world's pages
    Stopwatch timer;
    sampler->Step(steps);
    ns[timed] = timer.ElapsedSeconds() / steps * 1e9;
  }
  std::printf("MH step at %zu tokens: %.1f ns untimed, %.1f ns with "
              "StepPhaseTotals\n",
              largest->tokens.num_tokens(), ns[0], ns[1]);
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test.

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("  %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };
  Captured session, until, serve, traced;
  for (const Workload& full : AllWorkloads()) {
    const Workload w = Reduced(full);
    std::vector<Metric> metrics;
    for (int trace = 0; trace <= 1; ++trace) {
      const Ledger ledger = trace ? RunTraced(w, 11, 0.0, &metrics)
                                  : RunEndToEnd(w, 11, 0.0, &metrics);
      for (const std::string& e : ledger.errors) {
        std::printf("  %s: %s\n", w.name, e.c_str());
      }
      expect(ledger.errors.empty() && ledger.attempted > 0,
             std::string(w.name) + (trace ? " traced" : " end-to-end") +
                 ": all checks pass");
      if (w.kind == Kind::kServe) {
        if (!trace) serve = ledger.captured;
      } else if (trace) {
        traced = ledger.captured;
      } else if (IsUntil(w)) {
        until = ledger.captured;
      } else {
        session = ledger.captured;
      }
    }
  }

  // Each check must reject a corrupted copy of a real answer.
  std::printf("corrupted answers:\n");
  {
    Counts c = session.answers[0];
    c.counts[Tuple{Value("Nobody")}] = c.samples + 1;  // a marginal above 1
    expect(!CheckMarginals(c, c.samples, c.samples).empty(),
           "marginals: a marginal above 1");
    Counts short_run = session.answers[0];
    short_run.samples -= 1;
    expect(!CheckMarginals(short_run, session.answers[0].samples,
                           session.answers[0].samples)
                .empty(),
           "marginals: one sample short of the budget");
  }
  {
    Counts q2 = session.answers[1];
    q2.counts.begin()->second -= 1;  // every sample has a count: never empty
    expect(!CheckQ2Distribution(q2).empty(), "q2_distribution: one count lost");
  }
  {
    Counts q1 = session.answers[0];
    Counts q4 = session.answers[3];
    const Tuple t = q1.counts.empty() ? Tuple{Value("Nobody")}
                                      : q1.counts.begin()->first;
    q4.counts[t] = q1.counts[t] + 1;
    expect(!CheckQ4WithinQ1(q1, q4).empty(),
           "q4_within_q1: a Q4 count raised above Q1");
  }
  {
    const double eps = AllWorkloads()[2].policy.eps;
    Bound b = until.bounds[0];
    b.max_half_width = 2.0 * eps;
    expect(!CheckBound(b, eps).empty(), "until_bound: half-width above eps");
    Bound unconverged = until.bounds[0];
    unconverged.converged = false;
    expect(!CheckBound(unconverged, 1.0).empty(), "until_bound: not converged");
  }
  {
    Accounting a = serve.accounting;
    a.admitted += 1;
    expect(!CheckAccounting(a).empty(), "serve_accounting: one sample lost");
    Accounting p = serve.accounting;
    p.pending = 1;
    expect(!CheckAccounting(p).empty(), "serve_accounting: work left pending");
  }
  {
    Counts served = serve.served;
    served.counts[Tuple{Value("Nobody")}] += 1;
    expect(!CheckEqual(served, serve.standalone).empty(),
           "serve_bitwise: one served tuple more");
  }
  {
    std::vector<Bag> views = traced.views;
    views[2][Tuple{Value(int64_t{-1})}] += 1;
    expect(!CheckViewsMatchRecompute(views, traced.recomputed).empty(),
           "view_recompute: a Q3 document that does not exist");
    Bag q4 = traced.views[3];
    q4[Tuple{Value("NotAPerson")}] = 1;
    expect(!CheckQ4ViewWithinQ1(traced.views[0], q4).empty(),
           "q4_view_within_q1: a Q4 string absent from Q1");
  }
  std::printf("self-test: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace fgpdb

int main(int argc, char** argv) {
  using namespace fgpdb::perfbench;
  std::string workload;
  uint64_t seed = 2004;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return SelfTest();
    if (flag == "--reference") return Reference(seed);
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  for (const Workload& w : AllWorkloads()) {
    if (workload != w.name) continue;
    std::vector<Metric> metrics;
    const Ledger ledger = trace ? RunTraced(w, seed, seconds, &metrics)
                                : RunEndToEnd(w, seed, seconds, &metrics);
    PrintResult(ledger, metrics);
    return 0;
  }
  std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
  return 2;
}
