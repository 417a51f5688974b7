// Unit tests for the support substrate: rng, stats, table, csv, cli.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "support/cli.h"
#include "support/csv.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"
#include "support/timing.h"

namespace repflow {
namespace {

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit in 500 draws
}

TEST(Rng, Uniform01InRange) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(23);
  for (std::uint32_t n : {5u, 50u, 500u}) {
    for (std::uint32_t k : {0u, 1u, 3u, n / 2, n}) {
      auto sample = rng.sample_without_replacement(n, k);
      ASSERT_EQ(sample.size(), k);
      std::set<std::uint32_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), k) << "duplicates for n=" << n << " k=" << k;
      for (auto v : sample) EXPECT_LT(v, n);
    }
  }
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(1);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacementIsUnbiased) {
  // Floyd path (k << n): every element should appear roughly equally often.
  Rng rng(29);
  const std::uint32_t n = 20, k = 3;
  std::vector<int> hits(n, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (auto v : rng.sample_without_replacement(n, k)) ++hits[v];
  }
  const double expected = static_cast<double>(trials) * k / n;
  for (std::uint32_t v = 0; v < n; ++v) {
    EXPECT_NEAR(hits[v], expected, expected * 0.15) << "element " << v;
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng child = a.split();
  // The child must not replay the parent's sequence.
  Rng reference(5);
  reference();  // consume the draw used by split()
  int equal = 0;
  for (int i = 0; i < 32; ++i) {
    if (child() == reference()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_NEAR(rs.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
  EXPECT_DOUBLE_EQ(rs.total(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, left, right;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5, 5);
    all.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Summary, OrderStatistics) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.median, 50.5, 1e-9);
  EXPECT_NEAR(s.p95, 95.05, 1e-9);
  EXPECT_NEAR(s.p99, 99.01, 1e-9);
}

TEST(Summary, EmptyInput) {
  const std::vector<double> empty;
  const Summary s = summarize(empty);
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> xs = {10.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 1.0), 20.0);
  EXPECT_THROW(percentile_sorted(xs, 1.5), std::invalid_argument);
}

TEST(TablePrinter, AlignsAndRenders) {
  TablePrinter t({"name", "value"});
  t.begin_row();
  t.add_cell("alpha");
  t.add_cell(3.14159, 2);
  t.end_row();
  t.add_row({"beta", "100"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_NE(out.find("beta"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TablePrinter, RejectsArityMismatch) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(FormatDouble, TrimsTrailingZeros) {
  EXPECT_EQ(format_double(1.5, 3), "1.5");
  EXPECT_EQ(format_double(2.0, 3), "2");
  // 0.125 is exact in binary; fixed formatting rounds half to even.
  EXPECT_EQ(format_double(0.125, 2), "0.12");
  EXPECT_EQ(format_double(0.375, 2), "0.38");
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, DisabledWriterIsNoop) {
  CsvWriter w;
  EXPECT_FALSE(w.enabled());
  w.write_row({"a", "b"});  // must not crash
}

TEST(Cli, ParsesFlagsAndPositional) {
  CliFlags flags;
  flags.define("n", "10", "disk count");
  flags.define("full", "false", "run full sweep");
  flags.define("name", "", "label");
  const char* argv[] = {"prog", "--n=25", "--full", "--name", "exp5", "data"};
  flags.parse(6, argv);
  EXPECT_EQ(flags.get_int("n"), 25);
  EXPECT_TRUE(flags.get_bool("full"));
  EXPECT_EQ(flags.get("name"), "exp5");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "data");
}

TEST(Cli, RejectsUnknownFlagAndBadValues) {
  CliFlags flags;
  flags.define("n", "10", "disk count");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(flags.parse(2, argv), std::invalid_argument);
  CliFlags flags2;
  flags2.define("n", "x", "broken default");
  EXPECT_THROW(flags2.get_int("n"), std::invalid_argument);
}

TEST(Cli, HelpRequested) {
  CliFlags flags;
  const char* argv[] = {"prog", "--help"};
  flags.parse(2, argv);
  EXPECT_TRUE(flags.help_requested());
}

TEST(StopWatch, AccumulatesIntervals) {
  StopWatch sw;
  sw.start();
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  sw.stop();
  const double first = sw.elapsed_ms();
  EXPECT_GT(first, 0.0);
  sw.start();
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  sw.stop();
  EXPECT_GT(sw.elapsed_ms(), first);
  sw.reset();
  EXPECT_EQ(sw.elapsed_ms(), 0.0);
}

TEST(StopWatch, DoubleStartKeepsInFlightInterval) {
  // start() while running folds the elapsed interval into the accumulator
  // instead of silently discarding it.
  StopWatch sw;
  sw.start();
  volatile double sink = 0;
  for (int i = 0; i < 200000; ++i) sink = sink + i;
  const double mid = sw.elapsed_ms();
  EXPECT_GT(mid, 0.0);
  sw.start();  // restart without stop(): prior interval must survive
  for (int i = 0; i < 200000; ++i) sink = sink + i;
  sw.stop();
  EXPECT_GT(sw.elapsed_ms(), mid);
}

}  // namespace
}  // namespace repflow
