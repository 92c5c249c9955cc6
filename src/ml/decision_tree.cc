#include "ml/decision_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <utility>

namespace gdr {

namespace {

// Shannon entropy (nats) of `k` class counts summing to `total`.
double EntropyOf(const std::size_t* counts, std::size_t k, std::size_t total) {
  if (total == 0) return 0.0;
  double h = 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    if (counts[c] == 0) continue;
    const double p = static_cast<double>(counts[c]) / static_cast<double>(total);
    h -= p * std::log(p);
  }
  return h;
}

// Weighted post-split entropy of a two-way partition.
double SplitEntropy(const std::size_t* left, const std::size_t* right,
                    std::size_t k) {
  const std::size_t nl = std::accumulate(left, left + k, std::size_t{0});
  const std::size_t nr = std::accumulate(right, right + k, std::size_t{0});
  const std::size_t n = nl + nr;
  if (n == 0) return 0.0;
  return (static_cast<double>(nl) * EntropyOf(left, k, nl) +
          static_cast<double>(nr) * EntropyOf(right, k, nr)) /
         static_cast<double>(n);
}

struct SplitChoice {
  double gain = 0.0;
  std::int32_t feature = -1;
  bool categorical = false;
  double threshold = 0.0;
};

}  // namespace

double CountsEntropy(const std::vector<std::size_t>& counts) {
  return EntropyOf(counts.data(), counts.size(),
                   std::accumulate(counts.begin(), counts.end(),
                                   std::size_t{0}));
}

ColumnView::ColumnView(const TrainingSet& data)
    : num_classes_(data.num_classes()) {
  const std::size_t n = data.size();
  const std::size_t num_features = data.schema().num_features();
  categorical_.resize(num_features);
  labels_.resize(n);
  for (std::size_t i = 0; i < n; ++i) labels_[i] = data.example(i).label;
  ranks_.resize(num_features * n);
  value_begin_.assign(1, 0);
  std::vector<std::pair<double, std::uint32_t>> column(n);
  for (std::size_t f = 0; f < num_features; ++f) {
    categorical_[f] = data.schema().IsCategorical(f) ? 1 : 0;
    for (std::size_t i = 0; i < n; ++i) {
      column[i] = {data.example(i).features[f], static_cast<std::uint32_t>(i)};
    }
    std::sort(column.begin(), column.end());
    std::uint32_t* ranks = ranks_.data() + f * n;
    const std::size_t first = values_.size();
    for (const auto& [value, i] : column) {
      // Values that compare equal (0.0 and -0.0) share a rank, as they
      // share a side of every split.
      if (values_.size() == first || values_.back() != value) {
        values_.push_back(value);
      }
      ranks[i] = static_cast<std::uint32_t>(values_.size() - 1 - first);
    }
    value_begin_.push_back(values_.size());
    max_distinct_ = std::max(max_distinct_, values_.size() - first);
  }
}

struct DecisionTree::Trainer {
  Trainer(const ColumnView& view, const std::vector<std::size_t>& bag,
          const DecisionTreeOptions& options, Rng* rng)
      : view(view),
        options(options),
        rng(rng),
        classes(static_cast<std::size_t>(view.num_classes())),
        items(bag),
        counts(classes),
        left(classes),
        right(classes),
        histogram(view.max_distinct() * classes, 0),
        present((view.max_distinct() + 63) / 64, 0) {}

  const ColumnView& view;
  const DecisionTreeOptions& options;
  Rng* rng;
  const std::size_t classes;
  // The bag; every node owns a sub-range and partitions it in place.
  std::vector<std::size_t> items;
  std::vector<std::size_t> candidates;
  // The current node's class counts and the split-side scratch.
  std::vector<std::size_t> counts;
  std::vector<std::size_t> left;
  std::vector<std::size_t> right;
  // rank × class counts and a bitmap of the ranks present, for one
  // (node, feature) pair at a time. Both are all-zero between pairs: the
  // walk over the present ranks clears what it reads.
  std::vector<std::size_t> histogram;
  std::vector<std::uint64_t> present;

  // Counts items[begin, end) per (rank of feature f, class). Returns the
  // number of distinct ranks present; `lo`/`hi` bound them.
  std::size_t CountRanks(std::size_t f, std::size_t begin, std::size_t end,
                         std::uint32_t* lo, std::uint32_t* hi) {
    const std::uint32_t* ranks = view.ranks(f);
    std::size_t distinct = 0;
    *lo = UINT32_MAX;
    *hi = 0;
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t i = items[k];
      const std::uint32_t r = ranks[i];
      std::uint64_t& word = present[r >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (r & 63);
      if ((word & bit) == 0) {
        word |= bit;
        ++distinct;
        *lo = std::min(*lo, r);
        *hi = std::max(*hi, r);
      }
      ++histogram[r * classes + static_cast<std::size_t>(view.label(i))];
    }
    return distinct;
  }

  // Calls visit(rank, class counts) for every rank present in [lo, hi], in
  // ascending order, clearing the histogram and bitmap behind it.
  template <typename Visit>
  void WalkRanks(std::uint32_t lo, std::uint32_t hi, Visit&& visit) {
    for (std::size_t w = lo >> 6; w <= (hi >> 6); ++w) {
      std::uint64_t bits = present[w];
      present[w] = 0;
      while (bits != 0) {
        const std::uint32_t r = static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
        std::size_t* row = histogram.data() + r * classes;
        visit(r, row);
        std::fill(row, row + classes, std::size_t{0});
      }
    }
  }
};

Status DecisionTree::Train(const ColumnView& view,
                           const std::vector<std::size_t>& bag,
                           const DecisionTreeOptions& options, Rng* rng) {
  if (bag.empty()) {
    return Status::InvalidArgument("cannot train a tree on zero examples");
  }
  if (view.num_features() == 0) {
    return Status::InvalidArgument("feature schema is empty");
  }
  if (options.feature_subsample > 0 && rng == nullptr) {
    return Status::InvalidArgument(
        "feature subsampling requires an Rng");
  }
  num_classes_ = view.num_classes();
  feature_.clear();
  categorical_.clear();
  threshold_.clear();
  left_.clear();
  right_.clear();
  majority_.clear();
  dist_offset_.clear();
  dist_pool_.clear();
  Trainer trainer(view, bag, options, rng);
  Build(trainer, 0, bag.size(), /*depth=*/0);
  return Status::OK();
}

Status DecisionTree::Train(const TrainingSet& data,
                           const std::vector<std::size_t>& indices,
                           const DecisionTreeOptions& options, Rng* rng) {
  return Train(ColumnView(data), indices, options, rng);
}

Status DecisionTree::Train(const TrainingSet& data,
                           const DecisionTreeOptions& options, Rng* rng) {
  std::vector<std::size_t> all(data.size());
  std::iota(all.begin(), all.end(), 0);
  return Train(data, all, options, rng);
}

std::int32_t DecisionTree::AppendNode(std::int32_t feature, bool categorical,
                                      double threshold, std::int32_t majority,
                                      std::int32_t dist_offset) {
  feature_.push_back(feature);
  categorical_.push_back(categorical ? 1 : 0);
  threshold_.push_back(threshold);
  left_.push_back(-1);
  right_.push_back(-1);
  majority_.push_back(majority);
  dist_offset_.push_back(dist_offset);
  return static_cast<std::int32_t>(feature_.size() - 1);
}

std::int32_t DecisionTree::MakeLeaf(const std::vector<std::size_t>& counts,
                                    std::size_t total) {
  const std::int32_t offset = static_cast<std::int32_t>(dist_pool_.size());
  std::size_t best = 0;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    dist_pool_.push_back(static_cast<double>(counts[c]) /
                         static_cast<double>(total));
    if (counts[c] > counts[best]) best = c;
  }
  return AppendNode(/*feature=*/-1, /*categorical=*/false, /*threshold=*/0.0,
                    static_cast<std::int32_t>(best), offset);
}

std::int32_t DecisionTree::Build(Trainer& t, std::size_t begin,
                                 std::size_t end, int depth) {
  const std::size_t size = end - begin;
  const std::size_t classes = t.classes;
  std::vector<std::size_t>& counts = t.counts;
  std::fill(counts.begin(), counts.end(), std::size_t{0});
  for (std::size_t k = begin; k < end; ++k) {
    counts[static_cast<std::size_t>(t.view.label(t.items[k]))]++;
  }
  const double parent_entropy = CountsEntropy(counts);

  const bool pure = std::count(counts.begin(), counts.end(), size) > 0;
  if (pure || depth >= t.options.max_depth ||
      size < static_cast<std::size_t>(t.options.min_samples_split)) {
    return MakeLeaf(counts, size);
  }

  // Candidate features: all, or a random subset of M' (forest mode).
  const std::size_t num_features = t.view.num_features();
  std::vector<std::size_t>& candidates = t.candidates;
  if (t.options.feature_subsample > 0 &&
      static_cast<std::size_t>(t.options.feature_subsample) < num_features) {
    candidates = t.rng->SampleWithoutReplacement(
        num_features, static_cast<std::size_t>(t.options.feature_subsample));
    std::sort(candidates.begin(), candidates.end());  // determinism of ties
  } else {
    candidates.resize(num_features);
    std::iota(candidates.begin(), candidates.end(), 0);
  }

  SplitChoice best;
  for (std::size_t f : candidates) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    const std::size_t distinct = t.CountRanks(f, begin, end, &lo, &hi);
    const double* values = t.view.values(f);
    const std::int32_t feature = static_cast<std::int32_t>(f);
    if (distinct < 2) {
      t.WalkRanks(lo, hi, [](std::uint32_t, const std::size_t*) {});
    } else if (t.view.IsCategorical(f)) {
      // One-vs-rest on each value present in this node.
      std::vector<std::size_t>& rest = t.right;
      t.WalkRanks(lo, hi, [&](std::uint32_t r, const std::size_t* in) {
        for (std::size_t c = 0; c < classes; ++c) rest[c] = counts[c] - in[c];
        const double gain =
            parent_entropy - SplitEntropy(in, rest.data(), classes);
        if (gain > best.gain) best = {gain, feature, true, values[r]};
      });
    } else {
      // Numeric: prefix sums; a threshold between each pair of adjacent
      // distinct values present.
      std::vector<std::size_t>& left = t.left;
      std::vector<std::size_t>& right = t.right;
      std::fill(left.begin(), left.end(), std::size_t{0});
      right = counts;
      bool has_below = false;
      double below = 0.0;
      t.WalkRanks(lo, hi, [&](std::uint32_t r, const std::size_t* in) {
        if (has_below) {
          const double gain =
              parent_entropy -
              SplitEntropy(left.data(), right.data(), classes);
          if (gain > best.gain) {
            best = {gain, feature, false, below + (values[r] - below) / 2.0};
          }
        }
        for (std::size_t c = 0; c < classes; ++c) {
          left[c] += in[c];
          right[c] -= in[c];
        }
        has_below = true;
        below = values[r];
      });
    }
  }

  constexpr double kMinGain = 1e-12;
  if (best.feature < 0 || best.gain <= kMinGain) {
    return MakeLeaf(counts, size);
  }

  const std::uint32_t* ranks =
      t.view.ranks(static_cast<std::size_t>(best.feature));
  const double* values = t.view.values(static_cast<std::size_t>(best.feature));
  const auto first = t.items.begin() + static_cast<std::ptrdiff_t>(begin);
  const auto last = t.items.begin() + static_cast<std::ptrdiff_t>(end);
  const auto middle = std::partition(first, last, [&](std::size_t i) {
    const double x = values[ranks[i]];
    return best.categorical ? (x == best.threshold) : (x <= best.threshold);
  });
  if (middle == first || middle == last) {
    return MakeLeaf(counts, size);  // degenerate split (threshold rounding)
  }
  const std::size_t mid = begin + static_cast<std::size_t>(middle - first);

  const std::int32_t node_index =
      AppendNode(best.feature, best.categorical, best.threshold,
                 /*majority=*/0, /*dist_offset=*/-1);
  const std::int32_t left_index = Build(t, begin, mid, depth + 1);
  const std::int32_t right_index = Build(t, mid, end, depth + 1);
  left_[static_cast<std::size_t>(node_index)] = left_index;
  right_[static_cast<std::size_t>(node_index)] = right_index;
  return node_index;
}

void DecisionTree::PredictDistributionInto(const double* features,
                                           std::vector<double>* out) const {
  const std::size_t leaf = static_cast<std::size_t>(LeafOf(features));
  const std::size_t offset = static_cast<std::size_t>(dist_offset_[leaf]);
  out->assign(dist_pool_.begin() + static_cast<std::ptrdiff_t>(offset),
              dist_pool_.begin() +
                  static_cast<std::ptrdiff_t>(offset +
                                              static_cast<std::size_t>(
                                                  num_classes_)));
}

}  // namespace gdr
