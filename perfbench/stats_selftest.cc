// Self-tests for the benchmark's own statistics (stats.h). run.py runs
// this after every build and refuses to report results when it fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/histogram.h"
#include "perfbench/stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(1.0, std::fabs(b));
}

void TestNearestRank() {
  using perfbench::NearestRank;
  using perfbench::Quantile;
  Expect(NearestRank(0.5, 10) == 5, "p50 of 10 samples is rank 5");
  Expect(NearestRank(0.99, 100) == 99, "p99 of 100 samples is rank 99");
  Expect(NearestRank(0.95, 200) == 190, "p95 of 200 samples is rank 190");
  Expect(NearestRank(1.0, 7) == 7, "p100 is the maximum");
  Expect(NearestRank(0.0, 7) == 1, "p0 clamps to the minimum");
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Expect(Quantile(v, 0.5) == 50, "median of 1..100 is 50");
  Expect(Quantile(v, 0.99) == 99, "p99 of 1..100 is 99");
  std::vector<double> empty;
  Expect(Quantile(empty, 0.5) == 0, "empty input reports 0");
}

void TestDueTimeLatency() {
  using perfbench::DueLatency;
  using perfbench::SendLag;
  // Idle lane: due 100, sent 103 (generator woke 3 late), done 110.
  Expect(DueLatency(100, 50, 103, 110) == 7,
         "idle lane: latency excludes the generator's wake-up lag");
  Expect(SendLag(100, 50, 103) == 3, "idle lane: send lag from due time");
  // Busy lane: due 100 but the previous request ran until 130; sent 131.
  Expect(DueLatency(100, 130, 131, 140) == 39,
         "busy lane: latency includes queueing behind the previous request");
  Expect(SendLag(100, 130, 131) == 1, "busy lane: send lag from lane free");
  // On time, on an idle lane: latency is service time, lag 0.
  Expect(DueLatency(100, 90, 100, 125) == 25, "on-time request");
  Expect(SendLag(100, 90, 100) == 0, "on-time request has no lag");
}

void TestMixLatency() {
  using perfbench::MixLatency;
  using perfbench::TrimmedMean;
  std::vector<double> v;
  for (int i = 1; i <= 18; ++i) v.push_back(i);
  v.push_back(1000);
  v.push_back(-1000);  // 20 samples: one dropped from each end
  Expect(TrimmedMean(v, 0.1) == 9.5, "trimmed mean drops the outliers");
  std::vector<double> three = {1, 2, 30};
  Expect(TrimmedMean(three, 0.1) == 11, "under 10 samples nothing is cut");
  // Two profiles whose latencies do not overlap, weighted 3:1, and the
  // second drawn three times as often as its weight says: the figure
  // weighs each profile by its weight, not by its draws.
  using perfbench::ProfileStat;
  std::vector<std::vector<double>> per_profile(2);
  for (int i = 0; i < 10; ++i) per_profile[0].push_back(50);
  for (int i = 0; i < 30; ++i) per_profile[1].push_back(1000);
  Expect(MixLatency({3, 1}, per_profile, ProfileStat::kMedian) ==
             (3 * 50 + 1000) / 4.0,
         "weighted mean of the profiles' medians");
  // A profile split into a cheap and a costly half: its median is one of
  // the halves, its trimmed mean lies between them.
  std::vector<std::vector<double>> split(1);
  for (int i = 0; i < 11; ++i) split[0].push_back(i < 6 ? 1 : 11);
  Expect(MixLatency({1}, split, ProfileStat::kMedian) == 1,
         "median of a split profile is its cheap half");
  Expect(MixLatency({1}, split, ProfileStat::kTrimmedMean) ==
             (5 * 1 + 4 * 11) / 9.0,
         "trimmed mean of a split profile lies between the halves");
  per_profile[1].clear();
  Expect(MixLatency({3, 1}, per_profile, ProfileStat::kMedian) == 50,
         "a profile without samples is left out");
  Expect(MixLatency({1}, {{}}, ProfileStat::kTrimmedMean) == 0,
         "no samples report 0");
}

void TestShares() {
  using perfbench::Share;
  Expect(Share(3, 4) == 0.75, "3 of 4 is 0.75");
  Expect(Share(5, 0) == 0, "idle denominator reports 0");
  Expect(Share(0, 9) == 0, "nothing of 9 is 0");
}

void TestWindowQuantile() {
  // Cumulative histogram: 1000 samples at ~100 us before the window, then
  // 1000 more at ~1000 us during it. The window median must be ~1000.
  olxp::LatencyHistogram before, after;
  for (int i = 0; i < 1000; ++i) {
    before.Record(100);
    after.Record(100);
  }
  for (int i = 0; i < 1000; ++i) after.Record(990 + i % 21);
  auto cdf = [](const olxp::LatencyHistogram& h) {
    return [&h](double x) {
      return perfbench::CdfFromQuantiles(
          [&h](double p) { return h.Percentile(p); }, x);
    };
  };
  const double p50 = perfbench::WindowQuantile(
      cdf(before), before.count(), cdf(after), after.count(), 0.5, 0,
      static_cast<double>(after.max()) + 1);
  Expect(Near(p50, 1000, 0.03), "window median ignores pre-window samples");
  Expect(perfbench::WindowQuantile(cdf(before), before.count(), cdf(before),
                                   before.count(), 0.5, 0, 200) == 0,
         "an empty window reports 0");
}

}  // namespace

int main() {
  TestNearestRank();
  TestDueTimeLatency();
  TestMixLatency();
  TestShares();
  TestWindowQuantile();
  if (failures == 0) std::printf("stats_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
