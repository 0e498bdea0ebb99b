// Statistics the HTAP benchmark reports, kept apart from htap_bench.cc so
// stats_selftest.cc can check them on hand-built inputs.
#ifndef OLXP_PERFBENCH_STATS_H_
#define OLXP_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of quantile q in n samples: ceil(q * n), clamped
/// to [1, n]. The reported value is the sample at that rank.
inline int64_t NearestRank(double q, int64_t n) {
  if (n <= 0) return 0;
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<int64_t>(static_cast<int64_t>(r), 1, n);
}

/// Nearest-rank q-quantile; sorts `v` in place. 0 for an empty input.
inline double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[NearestRank(q, static_cast<int64_t>(v.size())) - 1];
}

/// num / den, or 0 when den is 0 (an idle layer reports 0, not NaN).
inline double Share(double num, double den) { return den != 0 ? num / den : 0; }

/// Mean of the samples left after dropping the lowest and the highest
/// `trim` share of them (floor(trim * n) from each end); sorts `v` in
/// place. 0 for an empty input.
inline double TrimmedMean(std::vector<double>& v, double trim) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t cut = static_cast<size_t>(trim * static_cast<double>(v.size()));
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// What stands for one profile's latency in a class figure.
enum class ProfileStat {
  /// The median: steady when a profile's latencies form one mode, even
  /// when a tenth or more of its requests queue behind a vacuum pass.
  kMedian,
  /// The mean without the lowest and highest tenth: for a profile whose
  /// parameter splits it into a cheap and a costly half (fibench Q1's
  /// balance threshold), where a median of a run's few draws jumps from
  /// one half to the other.
  kTrimmedMean,
};

/// Latency of a class whose requests come from several profiles: each
/// profile's figure, averaged with the profiles' mix weights (profiles
/// without samples are left out), so the result does not depend on how
/// many requests of each profile a seed drew. The median of the pooled
/// samples would sit on the boundary between two profiles whose
/// latencies do not overlap and jump between them from run to run.
inline double MixLatency(const std::vector<double>& weights,
                         std::vector<std::vector<double>> per_profile,
                         ProfileStat stat) {
  double sum = 0, weight = 0;
  for (size_t i = 0; i < weights.size() && i < per_profile.size(); ++i) {
    if (per_profile[i].empty()) continue;
    sum += weights[i] * (stat == ProfileStat::kMedian
                             ? Quantile(per_profile[i], 0.5)
                             : TrimmedMean(per_profile[i], 0.1));
    weight += weights[i];
  }
  return Share(sum, weight);
}

/// Latency of one paced request, counted from its due time: its service
/// time plus the time it queued behind its lane's previous request. The
/// generator's own wake-up lateness (SendLag) is not the system's and is
/// excluded. All arguments in one clock and unit.
inline int64_t DueLatency(int64_t due, int64_t lane_free, int64_t sent,
                          int64_t done) {
  return (done - sent) + std::max<int64_t>(0, lane_free - due);
}

/// How late the generator sent a request: from the moment it could have
/// been sent (its due time, or later when the lane was still busy) to the
/// moment it was.
inline int64_t SendLag(int64_t due, int64_t lane_free, int64_t sent) {
  return sent - std::max(due, lane_free);
}

/// Quantile q of the samples recorded between two snapshots of a
/// cumulative histogram. `cdf0`/`cdf1` give the share of samples <= x in
/// each snapshot (n0 and n1 samples). The window's CDF is
/// (n1*F1 - n0*F0) / (n1 - n0); its q-quantile is found by bisection over
/// [lo, hi]. Returns 0 when no sample landed in between.
inline double WindowQuantile(const std::function<double(double)>& cdf0,
                             int64_t n0,
                             const std::function<double(double)>& cdf1,
                             int64_t n1, double q, double lo, double hi) {
  if (n1 <= n0) return 0;
  const double n = static_cast<double>(n1 - n0);
  auto window_cdf = [&](double x) {
    return (static_cast<double>(n1) * cdf1(x) -
            static_cast<double>(n0) * cdf0(x)) / n;
  };
  for (int i = 0; i < 60 && hi - lo > 1e-3; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (window_cdf(mid) >= q) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

/// Share of samples <= x for a monotone quantile function qf(p) over
/// [0, 1] (inverted by bisection over p).
inline double CdfFromQuantiles(const std::function<double(double)>& qf,
                               double x) {
  if (qf(0.0) > x) return 0;
  if (qf(1.0) <= x) return 1;
  double lo = 0, hi = 1;
  for (int i = 0; i < 40; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (qf(mid) <= x) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace perfbench

#endif  // OLXP_PERFBENCH_STATS_H_
