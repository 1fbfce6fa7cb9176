// Sample statistics and metric plumbing shared by every workload.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A tail percentile picked by nearest rank.
struct TailPercentile {
  double percentile = 50.0;  ///< which percentile was taken
  double value = 0.0;
  std::size_t beyond = 0;    ///< samples strictly beyond its rank
  bool supported = false;    ///< at least `min_beyond` samples lie beyond it
};

/// The highest percentile of {99, 95, 90, 75, 50} that leaves at least
/// `min_beyond` samples beyond its nearest rank.  When none does (fewer than
/// 2 * min_beyond samples) the median is returned with `supported` false.
inline TailPercentile tail_percentile(std::vector<double> v,
                                      std::size_t min_beyond = 10) {
  TailPercentile out;
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(n))));
    if (n - rank >= min_beyond) {
      return {p, v[rank - 1], n - rank, true};
    }
  }
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(0.5 * static_cast<double>(n))));
  return {50.0, v[rank - 1], n - rank, false};
}

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metric names: 1..64 of [A-Za-z0-9_.-], starting with a letter or digit.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// a / b, or 0 when b is 0.
inline double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

}  // namespace perfbench
