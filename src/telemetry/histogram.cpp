#include "telemetry/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace rsf::telemetry {

std::size_t Histogram::bucket_index(double v) {
  // v >= 1 guaranteed by caller (zero_or_negative_ handles the rest;
  // values in (0,1) clamp to bucket 0).
  if (v < 1.0) return 0;
  // Fast path: for v in [2^e, 2^(e+1)) the bucket is e and the top
  // kSubBucketBits mantissa bits, read straight from the IEEE layout.
  // The reference expression below agrees except where log2(v) may
  // round up to e + 1 (v within 2^12 ulps below a power of two), at
  // the exponent clamp, and for inf/NaN: those take the reference.
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const int exponent = static_cast<int>(bits >> 52) - 1023;
  constexpr std::uint64_t kMantissaMask = (std::uint64_t{1} << 52) - 1;
  constexpr std::uint64_t kTop40Ones = (std::uint64_t{1} << 40) - 1;
  const std::uint64_t mantissa = bits & kMantissaMask;
  if (exponent < 62 && (mantissa >> 12) != kTop40Ones) {
    return static_cast<std::size_t>(exponent) * kSubBuckets +
           static_cast<std::size_t>(mantissa >> (52 - kSubBucketBits));
  }
  return bucket_index_reference(v);
}

std::size_t Histogram::bucket_index_reference(double v) {
  if (v < 1.0) return 0;
  // v >= 2^63, +inf and NaN: the top bucket, where the expression below
  // puts every finite v >= 2^63 — returned without casting a log2 or a
  // sub-bucket that int cannot hold.
  if (!(v < 0x1p63)) return std::size_t{62} * kSubBuckets + (kSubBuckets - 1);
  const int exponent = std::min(62, static_cast<int>(std::floor(std::log2(v))));
  const double base = std::exp2(exponent);
  int sub = static_cast<int>((v - base) / base * kSubBuckets);
  sub = std::clamp(sub, 0, kSubBuckets - 1);
  return static_cast<std::size_t>(exponent) * kSubBuckets + static_cast<std::size_t>(sub);
}

double Histogram::bucket_upper_edge(std::size_t idx) {
  const std::size_t exponent = idx / kSubBuckets;
  const std::size_t sub = idx % kSubBuckets;
  const double base = std::exp2(static_cast<double>(exponent));
  return base + base * static_cast<double>(sub + 1) / kSubBuckets;
}

void Histogram::record(double value) {
  if (!std::isfinite(value)) throw std::invalid_argument("Histogram::record: non-finite value");
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  sum_sq_ += value * value;
  if (value < 1.0) {
    ++zero_or_negative_;
    return;
  }
  const std::size_t idx = bucket_index(value);
  if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0);
  ++buckets_[idx];
}

double Histogram::min() const { return count_ == 0 ? 0.0 : min_; }
double Histogram::max() const { return count_ == 0 ? 0.0 : max_; }

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::stddev() const {
  if (count_ < 2) return 0.0;
  const double m = mean();
  const double var = sum_sq_ / static_cast<double>(count_) - m * m;
  return var <= 0 ? 0.0 : std::sqrt(var);
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = zero_or_negative_;
  if (seen >= target && target > 0) return std::min(max_, 1.0);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      return std::min(max_, bucket_upper_edge(i));
    }
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
  zero_or_negative_ += other.zero_or_negative_;
  if (other.buckets_.size() > buckets_.size()) buckets_.resize(other.buckets_.size(), 0);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
}

void Histogram::reset() { *this = Histogram(); }

Histogram Histogram::since(const Histogram& earlier) const {
  Histogram d;
  if (count_ <= earlier.count_) return d;  // empty window (or not a predecessor)
  d.count_ = count_ - earlier.count_;
  d.sum_ = sum_ - earlier.sum_;
  d.sum_sq_ = std::max(0.0, sum_sq_ - earlier.sum_sq_);
  // Clamped subtraction throughout: if `earlier` is unrelated rather
  // than a true predecessor, the result is a best-effort diff instead
  // of unsigned wraparound garbage.
  d.zero_or_negative_ = zero_or_negative_ >= earlier.zero_or_negative_
                            ? zero_or_negative_ - earlier.zero_or_negative_
                            : 0;
  d.buckets_.resize(buckets_.size(), 0);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t before = i < earlier.buckets_.size() ? earlier.buckets_[i] : 0;
    d.buckets_[i] = buckets_[i] >= before ? buckets_[i] - before : 0;
  }
  // Window extremes at bucket resolution: the edges of the outermost
  // buckets that gained samples.
  d.min_ = 0.0;
  d.max_ = 0.0;
  if (d.zero_or_negative_ > 0) d.min_ = std::min(min_, 0.0);
  bool min_set = d.zero_or_negative_ > 0;
  for (std::size_t i = 0; i < d.buckets_.size(); ++i) {
    if (d.buckets_[i] == 0) continue;
    if (!min_set) {
      d.min_ = i == 0 ? std::max(min_, 0.0) : bucket_upper_edge(i - 1);
      min_set = true;
    }
    d.max_ = std::min(max_, bucket_upper_edge(i));
  }
  if (d.max_ == 0.0) d.max_ = std::min(max_, 1.0);  // all window samples below 1
  return d;
}

namespace {
std::string fmt_time_ps(double ps) {
  return rsf::sim::SimTime::picoseconds(static_cast<std::int64_t>(ps)).to_string();
}
}  // namespace

std::string Histogram::summary_time() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "n=%llu mean=%s p50=%s p99=%s p999=%s max=%s",
                static_cast<unsigned long long>(count_), fmt_time_ps(mean()).c_str(),
                fmt_time_ps(p50()).c_str(), fmt_time_ps(p99()).c_str(),
                fmt_time_ps(p999()).c_str(), fmt_time_ps(max()).c_str());
  return buf;
}

std::string Histogram::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "n=%llu mean=%.3f p50=%.3f p99=%.3f p999=%.3f max=%.3f",
                static_cast<unsigned long long>(count_), mean(), p50(), p99(), p999(), max());
  return buf;
}

}  // namespace rsf::telemetry
