// Tests of the benchmark's own helpers (bench_lib.h). perfbench/run.py
// runs them before every benchmark run.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench_lib.h"
#include "index/inverted_index.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  std::reverse(v.begin(), v.end());  // input order must not matter
  return v;
}

TEST(TailPercentile, KeepsTenSamplesBeyond) {
  // 1000 samples: rank 990 leaves exactly ten above it.
  EXPECT_EQ(TailPercentile(Iota(1000), 0.99), 990.0);
  EXPECT_FALSE(TailPercentile(Iota(999), 0.99).has_value());
  EXPECT_EQ(MinSamplesFor(0.99), 1000u);
  EXPECT_EQ(TailPercentile(Iota(20), 0.5), 10.0);
  EXPECT_FALSE(TailPercentile(Iota(19), 0.5).has_value());
  EXPECT_EQ(MinSamplesFor(0.5), 20u);
  EXPECT_FALSE(TailPercentile({}, 0.5).has_value());
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
}

/// A server that meets the limit up to `capacity` requests per second.
struct FakeServer {
  double capacity;
  int calls = 0;
  int late_first = 0;  // the first this-many probes report a late generator
  ProbeOutcome operator()(double rate) {
    ++calls;
    ProbeOutcome o;
    o.valid = calls > late_first;
    o.pass = rate <= capacity;
    return o;
  }
};

TEST(BisectSloRate, ConvergesWithinResolution) {
  FakeServer s{100};
  const BisectResult r = BisectSloRate(70, 105, 0.03, 2, std::ref(s));
  EXPECT_TRUE(r.ok);
  EXPECT_LE(r.rate, 100);
  EXPECT_GE(r.rate, 100 * (1 - 0.03) - 1e-9);
  EXPECT_EQ(r.probes, s.calls);
  EXPECT_EQ(r.reruns, 0);
}

TEST(BisectSloRate, ShiftsTheBracket) {
  FakeServer low{20};
  BisectResult r = BisectSloRate(70, 105, 0.03, 2, std::ref(low));
  EXPECT_TRUE(r.ok);
  EXPECT_LE(r.rate, 20);
  EXPECT_GE(r.rate, 20 * 0.97);

  FakeServer high{300};
  r = BisectSloRate(70, 105, 0.03, 2, std::ref(high));
  EXPECT_TRUE(r.ok);
  EXPECT_LE(r.rate, 300);
  EXPECT_GE(r.rate, 300 * 0.97);
}

TEST(BisectSloRate, RerunsLateProbesWithoutCountingThem) {
  FakeServer s{100, 0, 2};
  const BisectResult r = BisectSloRate(70, 105, 0.03, 2, std::ref(s));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.reruns, 2);
  EXPECT_EQ(r.probes + r.reruns, s.calls);
  EXPECT_GE(r.rate, 97);
}

TEST(BisectSloRate, FailsWhenNothingPasses) {
  FakeServer none{0};
  EXPECT_FALSE(BisectSloRate(70, 105, 0.03, 2, std::ref(none)).ok);
}

TEST(BisectSloRate, AProbeThatStaysLateCountsAsAFailure) {
  // Every probe's generator is late: each rate is tried 3 times, then
  // counted as failing, and the search runs out of rates.
  FakeServer late{100, 0, 1000};
  BisectResult r = BisectSloRate(70, 105, 0.03, 2, std::ref(late));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.reruns, 2 * r.probes);
  // Only the first probe (87.5) stays late: it counts as a failure and the
  // search settles below it instead of aborting.
  FakeServer first_late{100, 0, 3};
  r = BisectSloRate(70, 105, 0.03, 2, std::ref(first_late));
  EXPECT_TRUE(r.ok);
  EXPECT_LT(r.rate, 87.5);
  EXPECT_GE(r.rate, 87.5 * 0.97 - 3);
}

fesia::index::InvertedIndex SmallIndex() {
  // term 0: every doc; term 1: even docs; term 2: docs 3 and 4.
  return fesia::index::InvertedIndex::FromPostings(
      8, {{0, 1, 2, 3, 4, 5, 6, 7}, {0, 2, 4, 6}, {3, 4}});
}

TEST(NaiveModel, IntersectsPostingLists) {
  const auto idx = SmallIndex();
  NaiveModel m(idx);
  EXPECT_EQ(m.Intersect(std::vector<uint32_t>{0, 1}),
            (std::vector<uint32_t>{0, 2, 4, 6}));
  EXPECT_EQ(m.Intersect(std::vector<uint32_t>{1, 2, 1}),
            (std::vector<uint32_t>{4}));
  EXPECT_TRUE(m.Intersect(std::vector<uint32_t>{0, 9}).empty());
  EXPECT_TRUE(m.Intersect(std::vector<uint32_t>{}).empty());
}

TEST(NaiveModel, ReplaysMutations) {
  const auto idx = SmallIndex();
  NaiveModel m(idx);
  m.Upsert(3, {2, 1, 1});  // doc 3 leaves term 0, joins term 1
  m.Delete(4);
  EXPECT_EQ(m.Intersect(std::vector<uint32_t>{1, 2}),
            (std::vector<uint32_t>{3}));
  EXPECT_EQ(m.Intersect(std::vector<uint32_t>{0}),
            (std::vector<uint32_t>{0, 1, 2, 5, 6, 7}));
  m.Upsert(4, {0});
  EXPECT_EQ(m.Intersect(std::vector<uint32_t>{0, 1}),
            (std::vector<uint32_t>{0, 2, 6}));
  // The base index is untouched.
  EXPECT_EQ(idx.Postings(0).size(), 8u);
}

TEST(ScanResponse, ReadsTheServersResponseFormat) {
  fesia::serve::WireResult a;
  a.count = 3;
  a.docs = {2, 5, 9};
  a.shards_answered = a.shards_total = 2;
  fesia::serve::WireResult b;
  b.outcome = fesia::index::QueryOutcome::kShed;
  b.code = fesia::StatusCode::kResourceExhausted;
  b.shards_total = 2;
  fesia::serve::Request req;
  req.op = fesia::serve::Op::kQuery;
  req.has_id = true;
  req.id = 41;
  const std::vector<std::string> frags = {
      fesia::serve::BuildResultJson(a, req.op),
      fesia::serve::BuildResultJson(b, req.op)};
  fesia::index::BatchStats stats;
  stats.wall_seconds = 0.0125;
  const std::string line =
      fesia::serve::BuildResponseLine(req, frags, stats, 1, 1);

  ScannedResponse r;
  ASSERT_TRUE(ScanResponse(line, &r));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.id, 41u);
  EXPECT_DOUBLE_EQ(r.wall_seconds, 0.0125);
  ASSERT_EQ(r.results.size(), 2u);
  EXPECT_EQ(r.results[0].outcome, "ok");
  EXPECT_EQ(r.results[0].count, 3u);
  EXPECT_EQ(r.results[0].docs_len, 3u);
  EXPECT_TRUE(r.results[0].docs_ascending);
  EXPECT_EQ(r.results[0].docs_digest,
            DocsDigest(std::vector<uint32_t>{2, 5, 9}));
  EXPECT_EQ(r.results[0].shards_answered, 2u);
  EXPECT_EQ(r.results[1].outcome, "shed");
  EXPECT_EQ(r.results[1].shards_answered, 0u);

  // The fast path hashes the array's text; it matches the canonical
  // formatting of the same docs.
  ASSERT_TRUE(ScanResponse(line, &r, /*raw_docs=*/true));
  EXPECT_EQ(r.results[0].docs_raw_digest,
            CanonicalDocsDigest(std::vector<uint32_t>{2, 5, 9}));
  EXPECT_NE(r.results[0].docs_raw_digest,
            CanonicalDocsDigest(std::vector<uint32_t>{2, 5, 8}));
  EXPECT_EQ(r.results[1].docs_raw_digest,
            CanonicalDocsDigest(std::vector<uint32_t>{}));

  EXPECT_FALSE(ScanResponse(line.substr(0, line.size() / 2), &r));
  ASSERT_TRUE(ScanResponse(
      "{\"ok\":true,\"results\":[{\"count\":2,\"docs\":[7,3]}]}", &r));
  EXPECT_FALSE(r.results[0].docs_ascending);
}

TEST(SelfTimes, SubtractsDirectChildren) {
  // root [0,100] -> a [10,40] -> a1 [15,25]; root -> b [50,90].
  const std::vector<Span> spans = {{-1, 0, 0, 0, 100},
                                   {0, 0, 1, 10, 40},
                                   {1, 0, 2, 15, 25},
                                   {0, 0, 3, 50, 90}};
  EXPECT_EQ(SelfTimes(spans), (std::vector<int64_t>{30, 20, 10, 40}));
}

}  // namespace
}  // namespace perfbench
