#ifndef FCAE_UTIL_HISTOGRAM_H_
#define FCAE_UTIL_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fcae {

/// A log-bucketed histogram for latency/size measurements, with
/// percentile queries. Not thread-safe.
class Histogram {
 public:
  Histogram();

  void Clear();
  void Add(double value);
  void Merge(const Histogram& other);

  /// Removes an earlier snapshot of this histogram, leaving the
  /// interval since that snapshot (the windowed view the stats dumper
  /// reports). `other` must be a prefix of *this — same instrument,
  /// captured earlier. Count/sum/percentiles are exact for the window;
  /// min/max degrade to the bucket boundaries of the surviving
  /// samples, since removed extremes cannot be recovered.
  void Subtract(const Histogram& other);

  double Median() const;
  double Percentile(double p) const;
  double Average() const;
  double StandardDeviation() const;
  double Min() const { return min_; }
  double Max() const { return max_; }
  uint64_t Count() const { return static_cast<uint64_t>(num_); }
  double Sum() const { return sum_; }

  std::string ToString() const;

 private:
  static const std::vector<double>& BucketLimits();

  double min_;
  double max_;
  double num_;
  double sum_;
  double sum_squares_;
  std::vector<double> buckets_;
};

}  // namespace fcae

#endif  // FCAE_UTIL_HISTOGRAM_H_
