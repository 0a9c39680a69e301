#include "bench_lib.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

/// 0-based nearest rank of percentile p among n sorted samples.
size_t RankIndex(size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n));
  const size_t r = rank < 1 ? 1 : static_cast<size_t>(rank);
  return std::min(r, n) - 1;
}

}  // namespace

std::optional<double> TailPercentile(std::vector<double> samples, double p) {
  if (samples.empty() || p <= 0 || p > 1) return std::nullopt;
  const size_t i = RankIndex(samples.size(), p);
  if (samples.size() - 1 - i < kMinTailSamples) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + i, samples.end());
  return samples[i];
}

size_t MinSamplesFor(double p) {
  size_t n = kMinTailSamples + 1;
  while (n - 1 - RankIndex(n, p) < kMinTailSamples) ++n;
  return n;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

BisectResult BisectSloRate(double lo, double hi, double resolution,
                           int max_reruns,
                           const std::function<ProbeOutcome(double)>& probe) {
  BisectResult result;
  // Runs one counted probe. A probe still invalid after `max_reruns`
  // reruns counts as a failure: the rate could not be shown to pass.
  auto run = [&](double rate, bool* pass) {
    for (int attempt = 0;; ++attempt) {
      const ProbeOutcome o = probe(rate);
      if (o.valid || attempt == max_reruns) {
        ++result.probes;
        *pass = o.valid && o.pass;
        return true;
      }
      ++result.reruns;
    }
  };
  const double floor_rate = lo / 64;
  bool lo_passed = false;  // lo is known to pass
  bool hi_failed = false;  // hi is known to fail
  for (int step = 0; step < 64; ++step) {
    bool pass = false;
    if (hi - lo > resolution * lo) {
      const double mid = 0.5 * (lo + hi);
      if (!run(mid, &pass)) return result;
      if (pass) {
        lo = mid;
        lo_passed = true;
      } else {
        hi = mid;
        hi_failed = true;
      }
      continue;
    }
    if (!lo_passed) {
      if (!run(lo, &pass)) return result;
      if (pass) {
        lo_passed = true;
        continue;
      }
      if (lo / 2 < floor_rate) return result;
      hi = lo;
      hi_failed = true;
      lo /= 2;
      continue;
    }
    if (!hi_failed) {
      if (!run(hi, &pass)) return result;
      if (!pass) {
        hi_failed = true;
        continue;
      }
      lo = hi;
      hi *= 1.5;
      continue;
    }
    result.rate = lo;
    result.ok = true;
    return result;
  }
  return result;
}

uint64_t DocsDigest(std::span<const uint32_t> docs) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint32_t d : docs) {
    h ^= d;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t RawDigest(std::string_view bytes) {
  uint64_t h = 0x9E3779B97F4A7C15ull ^ bytes.size();
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = (h ^ w) * 0xff51afd7ed558ccdull;
    h ^= h >> 32;
  }
  uint64_t tail = 0;
  std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  h = (h ^ tail) * 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 29);
}

uint64_t CanonicalDocsDigest(std::span<const uint32_t> docs) {
  std::string text;
  text.reserve(docs.size() * 8);
  char buf[16];
  for (size_t i = 0; i < docs.size(); ++i) {
    if (i > 0) text += ',';
    const auto r = std::to_chars(buf, buf + sizeof(buf), docs[i]);
    text.append(buf, r.ptr);
  }
  return RawDigest(text);
}

NaiveModel::NaiveModel(const fesia::index::InvertedIndex& idx)
    : base_(&idx), num_terms_(idx.num_terms()) {}

std::span<const uint32_t> NaiveModel::Postings(uint32_t term) const {
  auto it = changed_.find(term);
  if (it != changed_.end()) return it->second;
  return base_->Postings(term);
}

std::vector<uint32_t>& NaiveModel::Mutable(uint32_t term) {
  auto it = changed_.find(term);
  if (it != changed_.end()) return it->second;
  std::span<const uint32_t> base = base_->Postings(term);
  return changed_
      .emplace(term, std::vector<uint32_t>(base.begin(), base.end()))
      .first->second;
}

void NaiveModel::Upsert(uint32_t doc, std::vector<uint32_t> terms) {
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  for (uint32_t t = 0; t < num_terms_; ++t) {
    std::span<const uint32_t> list = Postings(t);
    const bool has = std::binary_search(list.begin(), list.end(), doc);
    const bool want = std::binary_search(terms.begin(), terms.end(), t);
    if (has == want) continue;
    std::vector<uint32_t>& m = Mutable(t);
    auto pos = std::lower_bound(m.begin(), m.end(), doc);
    if (want) {
      m.insert(pos, doc);
    } else {
      m.erase(pos);
    }
  }
}

void NaiveModel::Delete(uint32_t doc) { Upsert(doc, {}); }

std::vector<uint32_t> NaiveModel::Intersect(
    std::span<const uint32_t> terms) const {
  if (terms.empty()) return {};
  for (uint32_t t : terms) {
    if (t >= num_terms_) return {};
  }
  std::span<const uint32_t> first = Postings(terms[0]);
  std::vector<uint32_t> acc(first.begin(), first.end());
  std::vector<uint32_t> next;
  for (size_t i = 1; i < terms.size() && !acc.empty(); ++i) {
    std::span<const uint32_t> list = Postings(terms[i]);
    next.clear();
    std::set_intersection(acc.begin(), acc.end(), list.begin(), list.end(),
                          std::back_inserter(next));
    acc.swap(next);
  }
  return acc;
}

namespace {

/// Minimal recursive-descent JSON reader over one response line. Only the
/// fields the checks need are kept; everything else is validated and
/// skipped.
class Scanner {
 public:
  Scanner(std::string_view s, bool raw_docs) : s_(s), raw_docs_(raw_docs) {}

  bool Response(ScannedResponse* out) {
    return Object([&](std::string_view key) {
      if (key == "ok") return Bool(&out->ok);
      if (key == "id") return Uint(&out->id);
      if (key == "results") {
        return Array([&] {
          out->results.emplace_back();
          return Result(&out->results.back());
        });
      }
      if (key == "stats") {
        return Object([&](std::string_view k) {
          if (k == "wall_seconds") return Double(&out->wall_seconds);
          return Skip();
        });
      }
      return Skip();
    }) && AtEnd();
  }

 private:
  bool Result(ScannedResult* r) {
    return Object([&](std::string_view key) {
      if (key == "outcome") return String(&r->outcome);
      if (key == "count") return Uint(&r->count);
      if (key == "shards_answered") return Uint(&r->shards_answered);
      if (key == "shards_total") return Uint(&r->shards_total);
      if (key == "docs" && raw_docs_) {
        r->has_docs = true;
        if (!Eat('[')) return false;
        const size_t close = s_.find(']', i_);
        if (close == std::string_view::npos) return false;
        r->docs_raw_digest = RawDigest(s_.substr(i_, close - i_));
        i_ = close + 1;
        return true;
      }
      if (key == "docs") {
        r->has_docs = true;
        uint64_t h = 0xcbf29ce484222325ull;
        uint64_t prev = 0;
        bool first = true;
        const bool ok = Array([&] {
          uint64_t d = 0;
          if (!Uint(&d) || d > UINT32_MAX) return false;
          if (!first && d <= prev) r->docs_ascending = false;
          first = false;
          prev = d;
          ++r->docs_len;
          h ^= d;
          h *= 0x100000001b3ull;
          return true;
        });
        r->docs_digest = h;
        return ok;
      }
      return Skip();
    });
  }

  void Ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\r' || s_[i_] == '\t')) {
      ++i_;
    }
  }
  bool Eat(char c) {
    Ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool AtEnd() {
    Ws();
    return i_ == s_.size();
  }

  template <typename Fn>
  bool Object(Fn&& member) {
    if (!Eat('{')) return false;
    if (Eat('}')) return true;
    while (true) {
      std::string key;
      if (!String(&key) || !Eat(':') || !member(std::string_view(key))) {
        return false;
      }
      if (Eat(',')) continue;
      return Eat('}');
    }
  }

  template <typename Fn>
  bool Array(Fn&& element) {
    if (!Eat('[')) return false;
    if (Eat(']')) return true;
    while (true) {
      if (!element()) return false;
      if (Eat(',')) continue;
      return Eat(']');
    }
  }

  bool String(std::string* out) {
    if (!Eat('"')) return false;
    out->clear();
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (i_ >= s_.size()) return false;
        const char e = s_[i_++];
        if (e == 'u') {
          if (i_ + 4 > s_.size()) return false;
          i_ += 4;
          out->push_back('?');
        } else {
          out->push_back(e);
        }
      } else {
        out->push_back(c);
      }
    }
    return false;
  }

  bool Uint(uint64_t* out) {
    Ws();
    const size_t start = i_;
    uint64_t v = 0;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') {
      v = v * 10 + static_cast<uint64_t>(s_[i_] - '0');
      ++i_;
    }
    if (i_ == start || i_ - start > 19) return false;
    *out = v;
    return true;
  }

  bool Double(double* out) {
    Ws();
    const size_t start = i_;
    while (i_ < s_.size() &&
           std::string_view("+-0123456789.eE").find(s_[i_]) !=
               std::string_view::npos) {
      ++i_;
    }
    if (i_ == start) return false;
    const std::string num(s_.substr(start, i_ - start));
    char* end = nullptr;
    *out = std::strtod(num.c_str(), &end);
    return end == num.c_str() + num.size();
  }

  bool Bool(bool* out) {
    Ws();
    if (s_.substr(i_, 4) == "true") {
      i_ += 4;
      *out = true;
      return true;
    }
    if (s_.substr(i_, 5) == "false") {
      i_ += 5;
      *out = false;
      return true;
    }
    return false;
  }

  bool Skip() {
    Ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') return Object([&](std::string_view) { return Skip(); });
    if (c == '[') return Array([&] { return Skip(); });
    if (c == '"') {
      std::string ignored;
      return String(&ignored);
    }
    if (c == 't' || c == 'f') {
      bool ignored = false;
      return Bool(&ignored);
    }
    if (s_.substr(i_, 4) == "null") {
      i_ += 4;
      return true;
    }
    double ignored = 0;
    return Double(&ignored);
  }

  std::string_view s_;
  bool raw_docs_;
  size_t i_ = 0;
};

}  // namespace

bool ScanResponse(std::string_view line, ScannedResponse* out,
                  bool raw_docs) {
  *out = ScannedResponse{};
  return Scanner(line, raw_docs).Response(out);
}

std::vector<int64_t> SelfTimes(std::span<const Span> spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

}  // namespace perfbench
