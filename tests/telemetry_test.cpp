#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "sim/random.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/series.hpp"
#include "telemetry/table.hpp"

namespace rsf::telemetry {
namespace {

using rsf::sim::SimTime;
using namespace rsf::sim::literals;

// --- Histogram ---

// The IEEE fast path of bucket_index against the log2/exp2 reference
// it replaced, over every value where the two could plausibly differ
// (around powers of two and sub-bucket edges) and broad sweeps.
TEST(Histogram, BucketIndexFastPathEqualsLog2Reference) {
  const double inf = std::numeric_limits<double>::infinity();
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  double first_bad = 0.0;
  const auto check = [&](double v) {
    ++checked;
    if (Histogram::bucket_index(v) != Histogram::bucket_index_reference(v)) {
      if (mismatches++ == 0) first_bad = v;
    }
  };
  const auto around = [&](double centre, int ulps) {
    check(centre);
    double lo = centre;
    double hi = centre;
    for (int k = 0; k < ulps; ++k) {
      lo = std::nextafter(lo, 0.0);
      hi = std::nextafter(hi, inf);
      check(lo);
      check(hi);
    }
  };
  for (int e = 0; e <= 70; ++e) around(std::ldexp(1.0, e), 5000);
  for (int e = 0; e <= 70; ++e) {
    for (int sub = 1; sub < 64; ++sub) around(std::ldexp(1.0 + sub / 64.0, e), 200);
  }
  for (int i = 0; i < 5'000'000; ++i) check(static_cast<double>(i));
  rsf::sim::RandomStream rng(7, "test.histogram_buckets");
  for (int i = 0; i < 10'000'000; ++i) {
    // Log-uniform over the recorded range, and a random mantissa under
    // a random exponent from 2^-4 to 2^80.
    check(std::exp2(rng.uniform(0.0, 70.0)));
    const auto exponent = static_cast<std::uint64_t>(rng.uniform_int(1023 - 4, 1023 + 80));
    check(std::bit_cast<double>((exponent << 52) | (rng() >> 12)));
  }
  check(inf);
  check(std::numeric_limits<double>::quiet_NaN());
  check(1e300);
  EXPECT_EQ(mismatches, 0u) << "first at " << first_bad << " of " << checked;
  EXPECT_GT(checked, 27'000'000u);
}

TEST(Histogram, EmptyHistogramIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.record(1000.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 1000.0);
  EXPECT_NEAR(h.p50(), 1000.0, 1000.0 * 0.02);
  EXPECT_DOUBLE_EQ(h.min(), 1000.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

TEST(Histogram, MeanAndStddevExact) {
  Histogram h;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) h.record(v);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  EXPECT_NEAR(h.stddev(), 2.0, 1e-9);
}

TEST(Histogram, QuantileBoundedRelativeError) {
  Histogram h;
  rsf::sim::RandomStream rng(5);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.uniform(1.0, 1e9);
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const double exact = values[static_cast<std::size_t>(q * (values.size() - 1))];
    EXPECT_NEAR(h.quantile(q), exact, exact * 0.05) << "q=" << q;
  }
}

TEST(Histogram, QuantileMonotonicInQ) {
  Histogram h;
  rsf::sim::RandomStream rng(6);
  for (int i = 0; i < 5000; ++i) h.record(rng.uniform(1.0, 1e6));
  double prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Histogram, QuantileNeverExceedsMax) {
  Histogram h;
  for (double v : {10.0, 100.0, 1000.0}) h.record(v);
  EXPECT_LE(h.p999(), h.max());
  EXPECT_LE(h.quantile(1.0), h.max());
}

TEST(Histogram, SubUnitValuesCountedInQuantiles) {
  Histogram h;
  h.record(0.5);
  h.record(0.1);
  h.record(100.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_LE(h.quantile(0.3), 1.0);
  EXPECT_GT(h.quantile(0.99), 50.0);
}

TEST(Histogram, RecordsSimTime) {
  Histogram h;
  h.record(5_us);
  EXPECT_DOUBLE_EQ(h.mean(), 5e6);  // ps
}

TEST(Histogram, MergeCombines) {
  Histogram a;
  Histogram b;
  for (int i = 1; i <= 100; ++i) a.record(static_cast<double>(i));
  for (int i = 101; i <= 200; ++i) b.record(static_cast<double>(i));
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_DOUBLE_EQ(a.mean(), 100.5);
  EXPECT_DOUBLE_EQ(a.max(), 200.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
}

TEST(Histogram, MergeWithEmptyIsIdentity) {
  Histogram a;
  a.record(42.0);
  Histogram empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 42.0);
}

TEST(Histogram, SinceDiffsPhaseWindowExactly) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const Histogram before = h.snapshot();
  for (int i = 0; i < 50; ++i) h.record(1000.0);
  const Histogram window = h.since(before);
  // Count, mean and stddev of the window are exact.
  EXPECT_EQ(window.count(), 50u);
  EXPECT_DOUBLE_EQ(window.mean(), 1000.0);
  EXPECT_DOUBLE_EQ(window.stddev(), 0.0);
  // Quantiles resolve within bucket relative error.
  EXPECT_NEAR(window.p50(), 1000.0, 1000.0 / 64 + 1);
  // Extremes are bucket-resolution bounds around the window's values.
  EXPECT_GE(window.max(), 1000.0 * (1.0 - 1.0 / 64));
  EXPECT_LE(window.max(), 1000.0 * (1.0 + 2.0 / 64));
  EXPECT_GE(window.min(), 1000.0 * (1.0 - 2.0 / 64));
  // The cumulative histogram is untouched.
  EXPECT_EQ(h.count(), 150u);
}

TEST(Histogram, SinceOfEqualOrNewerSnapshotIsEmpty) {
  Histogram h;
  h.record(5.0);
  const Histogram snap = h.snapshot();
  EXPECT_EQ(h.since(snap).count(), 0u);
  Histogram later = h;
  later.record(6.0);
  EXPECT_EQ(h.since(later).count(), 0u);  // not a predecessor: empty, not UB
}

TEST(Histogram, SinceOfUnrelatedHistogramClampsInsteadOfWrapping) {
  // Misuse guard: diffing against a histogram that is not a snapshot
  // of *this* must not unsigned-underflow bucket counts.
  Histogram a;
  for (int i = 0; i < 5; ++i) a.record(2000.0);
  Histogram unrelated;
  for (int i = 0; i < 3; ++i) unrelated.record(0.5);  // sub-unit bucket only
  const Histogram d = a.since(unrelated);
  EXPECT_EQ(d.count(), 2u);  // best-effort totals, no wraparound
  EXPECT_LE(d.quantile(0.99), a.max());
  EXPECT_GE(d.quantile(0.5), 0.0);
}

TEST(Histogram, SinceCountsSubUnitValues) {
  Histogram h;
  h.record(10.0);
  const Histogram before = h.snapshot();
  h.record(0.5);
  h.record(0.25);
  const Histogram window = h.since(before);
  EXPECT_EQ(window.count(), 2u);
  EXPECT_DOUBLE_EQ(window.mean(), 0.375);
  EXPECT_LE(window.max(), 1.0);
}

// NaN and ±inf have no bucket: record refuses them before touching
// any state, so the histogram reads exactly as it did before.
TEST(Histogram, NonFiniteRecordThrowsAndLeavesStateUnchanged) {
  const double inf = std::numeric_limits<double>::infinity();
  Histogram h;
  for (double v : {0.25, 3.0, 1000.0, 1e6, 7e12}) h.record(v);
  const auto observe = [](const Histogram& x) {
    std::vector<double> o = {static_cast<double>(x.count()), x.min(), x.max(), x.mean(),
                             x.stddev()};
    for (double q = 0.0; q <= 1.0; q += 0.05) o.push_back(x.quantile(q));
    return o;
  };
  const std::vector<double> before = observe(h);
  for (double v : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    EXPECT_THROW(h.record(v), std::invalid_argument) << v;
    EXPECT_EQ(observe(h), before) << v;
  }
  Histogram empty;
  EXPECT_THROW(empty.record(inf), std::invalid_argument);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.max(), 0.0);
  // A refused sample leaves no trace in the buckets either: the same
  // later sample lands identically with or without it.
  Histogram copy = h.snapshot();
  EXPECT_THROW(copy.record(-inf), std::invalid_argument);
  copy.record(5.0);
  h.record(5.0);
  EXPECT_EQ(observe(copy), observe(h));

  // The bucket functions map +inf, NaN and everything >= 2^63 to the
  // top bucket without an out-of-range cast.
  constexpr std::size_t kTop = 62 * 64 + 63;
  for (double v : {inf, std::numeric_limits<double>::quiet_NaN(), 0x1p63, 1e300}) {
    EXPECT_EQ(Histogram::bucket_index(v), kTop) << v;
    EXPECT_EQ(Histogram::bucket_index_reference(v), kTop) << v;
  }
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(1.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, SummaryStringsMention) {
  Histogram h;
  h.record(1_us);
  EXPECT_NE(h.summary_time().find("n=1"), std::string::npos);
  EXPECT_NE(h.summary().find("n=1"), std::string::npos);
}

// --- CounterSet ---

TEST(CounterSet, AddAndGet) {
  CounterSet c;
  EXPECT_EQ(c.get("x"), 0u);
  c.add("x");
  c.add("x", 4);
  EXPECT_EQ(c.get("x"), 5u);
  EXPECT_TRUE(c.has("x"));
  EXPECT_FALSE(c.has("y"));
}

TEST(CounterSet, Gauges) {
  CounterSet c;
  c.set_gauge("power", 120.5);
  EXPECT_DOUBLE_EQ(c.gauge("power"), 120.5);
  c.set_gauge("power", 99.0);
  EXPECT_DOUBLE_EQ(c.gauge("power"), 99.0);
  EXPECT_TRUE(c.has("power"));
}

TEST(CounterSet, DiffSubtracts) {
  CounterSet before;
  before.add("pkts", 100);
  CounterSet after;
  after.add("pkts", 150);
  after.add("drops", 3);
  const CounterSet d = after.diff(before);
  EXPECT_EQ(d.get("pkts"), 50u);
  EXPECT_EQ(d.get("drops"), 3u);
}

TEST(CounterSet, MergeAccumulates) {
  CounterSet a;
  a.add("x", 1);
  CounterSet b;
  b.add("x", 2);
  b.add("y", 3);
  a.merge(b);
  EXPECT_EQ(a.get("x"), 3u);
  EXPECT_EQ(a.get("y"), 3u);
}

TEST(CounterSet, ToStringStable) {
  CounterSet c;
  c.add("b", 2);
  c.add("a", 1);
  EXPECT_EQ(c.to_string(), "a=1 b=2");  // sorted by name
}

// --- TimeSeries ---

TEST(TimeSeries, ValueAtStepSemantics) {
  TimeSeries s("x");
  s.record(10_ns, 1.0);
  s.record(20_ns, 2.0);
  EXPECT_DOUBLE_EQ(s.value_at(5_ns, -1.0), -1.0);
  EXPECT_DOUBLE_EQ(s.value_at(10_ns), 1.0);
  EXPECT_DOUBLE_EQ(s.value_at(15_ns), 1.0);
  EXPECT_DOUBLE_EQ(s.value_at(25_ns), 2.0);
}

TEST(TimeSeries, TimeWeightedMean) {
  TimeSeries s("x");
  s.record(0_ns, 1.0);
  s.record(10_ns, 3.0);
  // [0,10): 1.0, [10,20): 3.0 => mean over [0,20) = 2.0
  EXPECT_DOUBLE_EQ(s.time_weighted_mean(0_ns, 20_ns), 2.0);
}

TEST(TimeSeries, FirstReachFindsSettlingTime) {
  TimeSeries s("x");
  s.record(0_ns, 10.0);
  s.record(5_ns, 7.0);
  s.record(9_ns, 5.05);
  EXPECT_EQ(s.first_reach(5.0, 0.1), 9_ns);
  EXPECT_EQ(s.first_reach(5.0, 0.1, 10_ns), SimTime::infinity());
  EXPECT_EQ(s.first_reach(100.0, 0.1), SimTime::infinity());
}

TEST(TimeSeries, MinMax) {
  TimeSeries s("x");
  s.record(0_ns, 3.0);
  s.record(1_ns, -2.0);
  s.record(2_ns, 7.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 7.0);
  EXPECT_DOUBLE_EQ(s.min_value(), -2.0);
}

// --- Registry prefix-merge ---

TEST(Registry, ImportPrefixedSnapshotsAndRefreshesInPlace) {
  Registry shard;
  shard.histogram("net.packet_latency").record(10.0);
  shard.counters("net").add("net.packets_delivered", 3);
  shard.counters("net").set_gauge("queue_depth", 1.5);
  shard.series("crc.power").record(1_us, 7.0);

  Registry fleet;
  fleet.import_prefixed(shard, "rack0.");

  const auto* h = fleet.find_histogram("rack0.net.packet_latency");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  const auto* c = fleet.find_counters("rack0.net");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->get("rack0.net.packets_delivered"), 3u);
  // Bare gauge names get fully qualified so the prefixed set renders
  // them under its own name.
  EXPECT_DOUBLE_EQ(c->gauge("rack0.net.queue_depth"), 1.5);
  const auto* s = fleet.find_series("rack0.crc.power");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->samples().size(), 1u);

  // Re-import refreshes in place: same instruments, updated values,
  // no double counting.
  shard.histogram("net.packet_latency").record(20.0);
  shard.counters("net").add("net.packets_delivered", 2);
  fleet.import_prefixed(shard, "rack0.");
  EXPECT_EQ(h, fleet.find_histogram("rack0.net.packet_latency"));
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(c->get("rack0.net.packets_delivered"), 5u);

  // Two shards merge side by side; the source registry is untouched.
  Registry other;
  other.counters("net").add("net.packets_delivered", 9);
  fleet.import_prefixed(other, "rack1.");
  EXPECT_EQ(fleet.find_counters("rack1.net")->get("rack1.net.packets_delivered"), 9u);
  EXPECT_EQ(c->get("rack0.net.packets_delivered"), 5u);
  EXPECT_EQ(shard.counters("net").get("net.packets_delivered"), 5u);

  const std::string table = fleet.to_table("merged").to_string();
  EXPECT_NE(table.find("rack0.net.packets_delivered"), std::string::npos);
  EXPECT_NE(table.find("rack0.net.queue_depth"), std::string::npos);
}

// --- Table ---

TEST(Table, BuildsAndPrints) {
  Table t("demo", {"a", "b"});
  t.row().cell("x").cell(1.5, 1);
  t.row().cell("y").cell(std::uint64_t{42});
  EXPECT_EQ(t.num_rows(), 2u);
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t("csv", {"c1", "c2"});
  t.row().cell("plain").cell("has,comma");
  std::ostringstream oss;
  t.write_csv(oss);
  EXPECT_NE(oss.str().find("\"has,comma\""), std::string::npos);
}

TEST(Table, RejectsMalformedUse) {
  Table t("bad", {"only"});
  EXPECT_THROW(t.cell("no row yet"), std::logic_error);
  t.row().cell("ok");
  EXPECT_THROW(t.cell("too many"), std::logic_error);
  EXPECT_THROW(Table("empty", {}), std::invalid_argument);
}

TEST(Table, IncompleteRowDetectedOnNextRow) {
  Table t("bad", {"a", "b"});
  t.row().cell("only one");
  EXPECT_THROW(t.row(), std::logic_error);
}

}  // namespace
}  // namespace rsf::telemetry
