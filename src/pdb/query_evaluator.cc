#include "pdb/query_evaluator.h"

#include <algorithm>
#include <unordered_set>

namespace fgpdb {
namespace pdb {

void QueryAnswer::ObserveSampleContaining(
    const std::vector<Tuple>& distinct_tuples) {
  for (const Tuple& t : distinct_tuples) ++counts_[t];
  ++num_samples_;
}

double QueryAnswer::Probability(const Tuple& tuple) const {
  if (num_samples_ == 0) return 0.0;
  const auto it = counts_.find(tuple);
  if (it == counts_.end()) return 0.0;
  return static_cast<double>(it->second) / static_cast<double>(num_samples_);
}

std::vector<std::pair<Tuple, double>> QueryAnswer::Sorted() const {
  std::vector<std::pair<Tuple, double>> out;
  out.reserve(counts_.size());
  for (const auto& [tuple, count] : counts_) {
    out.emplace_back(tuple, static_cast<double>(count) /
                                static_cast<double>(num_samples_));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<std::pair<Tuple, double>> QueryAnswer::TopK(size_t k) const {
  std::vector<std::pair<Tuple, double>> out = Sorted();
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

void QueryAnswer::Merge(const QueryAnswer& other) {
  for (const auto& [tuple, count] : other.counts_) counts_[tuple] += count;
  num_samples_ += other.num_samples_;
}

double QueryAnswer::SquaredError(const QueryAnswer& truth) const {
  double total = 0.0;
  std::unordered_set<Tuple, TupleHasher> seen;
  for (const auto& [tuple, count] : counts_) {
    (void)count;
    const double d = Probability(tuple) - truth.Probability(tuple);
    total += d * d;
    seen.insert(tuple);
  }
  for (const auto& [tuple, count] : truth.counts_) {
    (void)count;
    if (seen.count(tuple) > 0) continue;
    const double d = truth.Probability(tuple);
    total += d * d;
  }
  return total;
}

}  // namespace pdb
}  // namespace fgpdb
