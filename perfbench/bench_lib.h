// Helpers of the serve benchmark that carry its statistical and
// correctness rules, kept apart from the load generator so the self-test
// (selftest.cc) can check them without a server:
//
//   * TailPercentile: a percentile is only reported when at least ten
//     samples lie beyond it;
//   * BisectSloRate: the slo_qps search over open-loop rates;
//   * NaiveModel: the std::set_intersection reference every served answer
//     is checked against, with mutation replay for the read/write workload;
//   * ScanResponse: a small JSON scanner for response lines that checks
//     doc lists without keeping them;
//   * SelfTimes: span self time = duration minus the children's durations.
#ifndef FESIA_PERFBENCH_BENCH_LIB_H_
#define FESIA_PERFBENCH_BENCH_LIB_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "index/inverted_index.h"

namespace perfbench {

/// A percentile is reported only when this many samples lie beyond it.
constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile (p in (0, 1]) of `samples`, which need not be
/// sorted. Empty when fewer than kMinTailSamples samples lie strictly
/// after the chosen rank, i.e. when the sample cannot support p.
std::optional<double> TailPercentile(std::vector<double> samples, double p);

/// Smallest sample count for which TailPercentile(_, p) is defined.
size_t MinSamplesFor(double p);

double Median(std::vector<double> values);

/// Result of one open-loop probe at an offered rate.
struct ProbeOutcome {
  /// False when the generator fell behind its own schedule: the probe says
  /// nothing about the server and is run again.
  bool valid = true;
  /// True when the latency limit held with no growing backlog.
  bool pass = false;
};

struct BisectResult {
  /// Highest offered rate that passed; 0 when none did.
  double rate = 0;
  int probes = 0;   ///< counted probes
  int reruns = 0;   ///< probes discarded because the generator was late
  bool ok = false;  ///< false when no rate down to lo / 64 passed
};

/// Finds the highest passing rate. [lo, hi] is the starting bracket; the
/// search shifts it down (halving) when lo fails and up (by half) when hi
/// passes, then bisects until (hi - lo) <= resolution * lo. Invalid probes
/// are repeated up to `max_reruns` times each; a probe still invalid after
/// that counts as a failure at its rate.
BisectResult BisectSloRate(double lo, double hi, double resolution,
                           int max_reruns,
                           const std::function<ProbeOutcome(double)>& probe);

/// FNV-1a over doc ids; the same digest the response scanner computes.
uint64_t DocsDigest(std::span<const uint32_t> docs);

/// Hash of raw bytes (8 at a time): the scanner's fast path hashes the text
/// between a "docs" array's brackets instead of parsing every number.
uint64_t RawDigest(std::string_view bytes);

/// RawDigest of the canonical wire text of `docs`: decimal ids joined by
/// ',' with no spaces.
uint64_t CanonicalDocsDigest(std::span<const uint32_t> docs);

/// Reference answers: posting lists copied from an InvertedIndex, changed
/// by replayed mutations, intersected with std::set_intersection.
class NaiveModel {
 public:
  explicit NaiveModel(const fesia::index::InvertedIndex& idx);

  /// Replaces `doc`'s terms (sorted and deduplicated here, as the store
  /// does); Delete removes the doc from every list.
  void Upsert(uint32_t doc, std::vector<uint32_t> terms);
  void Delete(uint32_t doc);

  /// Documents containing every term, ascending.
  std::vector<uint32_t> Intersect(std::span<const uint32_t> terms) const;

  std::span<const uint32_t> Postings(uint32_t term) const;
  uint32_t num_terms() const { return num_terms_; }

 private:
  std::vector<uint32_t>& Mutable(uint32_t term);

  const fesia::index::InvertedIndex* base_;
  uint32_t num_terms_;
  /// Copy-on-write lists of the terms a mutation touched.
  std::unordered_map<uint32_t, std::vector<uint32_t>> changed_;
};

/// One per-query object of a response line, reduced to what the checks
/// compare.
struct ScannedResult {
  std::string outcome;
  uint64_t count = 0;
  bool has_docs = false;
  /// Set in raw mode only: RawDigest of the docs array's text.
  uint64_t docs_raw_digest = 0;
  /// Set in full mode only.
  uint64_t docs_len = 0;
  uint64_t docs_digest = 0;
  bool docs_ascending = true;
  uint64_t shards_answered = 0;
  uint64_t shards_total = 0;
};

struct ScannedResponse {
  bool ok = false;
  uint64_t id = 0;
  std::vector<ScannedResult> results;
  double wall_seconds = 0;  ///< "stats.wall_seconds"
};

/// Parses one response line (trailing newline optional). Returns false on
/// malformed JSON. With `raw_docs`, "docs" arrays are hashed as text
/// (fast; matches only the canonical formatting) instead of parsed.
bool ScanResponse(std::string_view line, ScannedResponse* out,
                  bool raw_docs = false);

/// One traced span. Spans of a request share `request`; `parent` is the
/// index of the parent span in the same vector, or -1 for a root.
struct Span {
  int32_t parent = -1;
  uint32_t request = 0;
  uint16_t layer = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the durations of its
/// direct children. Index-aligned with `spans`; may be negative when
/// children were measured outside the parent's interval and ran longer.
std::vector<int64_t> SelfTimes(std::span<const Span> spans);

}  // namespace perfbench

#endif  // FESIA_PERFBENCH_BENCH_LIB_H_
