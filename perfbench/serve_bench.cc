// End-to-end and per-layer benchmark of the serving stack: a store-backed,
// hash-sharded ShardedIndex behind an in-process serve::Server, driven over
// loopback TCP by a single-threaded load generator. BENCHMARK.json at the
// repository root describes the workloads, the metrics and their bounds;
// perfbench/run.py builds this program and runs it.
//
//   perfbench_serve --workload count_cold|query_hot|mixed_rw --seed N
//                   --seconds S --trace 0|1 --store-dir DIR
//                   --results-dir DIR --source-id ID
//
// --trace 0 measures the end-to-end metrics with nothing traced. --trace 1
// replays a recorded sample of the same request stream in-process through
// the calls Server::Execute makes, with a span around each layer, and
// reports the per-layer split. The last stdout line is one JSON object
// {"correct","attempted","failed","metrics"}; the line before it stamps the
// host and configuration. Every answer is checked against NaiveModel.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_lib.h"
#include "datagen/zipf.h"
#include "fesia/intersect.h"
#include "index/inverted_index.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "shard/shard_map.h"
#include "shard/shard_router.h"
#include "shard/sharded_index.h"
#include "store/delta_index.h"
#include "util/cpu.h"
#include "util/json.h"
#include "util/rng.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace fesia;
using perfbench::BisectResult;
using perfbench::NaiveModel;
using perfbench::ProbeOutcome;
using perfbench::ScannedResponse;
using perfbench::Span;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---------------------------------------------------------------------------
// Workloads

// Shared by every workload: the corpus shape of InvertedIndex's synthetic
// generator, two hash shards, and the term-level skew the pools are drawn
// with.
constexpr uint32_t kTerms = 400;
constexpr double kTermsPerDoc = 24;
constexpr uint32_t kShards = 2;
constexpr double kTermTheta = 0.99;
/// Pool queries re-checked through the server after the writer stops.
constexpr size_t kCheckQueries = 512;

struct Workload {
  const char* name = "";
  uint32_t docs = 0;
  size_t batch = 1;              ///< queries per request line
  double count_share = 1;        ///< share of requests with op "count"
  bool use_cache = true;
  size_t pool_size = 4096;       ///< term sets the stream draws from
  uint32_t term_offset = 0;      ///< ranks skipped before the Zipf head
  bool distinct_terms = false;   ///< no term twice in one query
  double query_theta = 0;        ///< query-level Zipf; 0 = uniform
  bool writes_beside_reads = false;
  double write_rate = 500;       ///< mutations per second, open loop
  size_t trace_requests = 800;   ///< recorded sample replayed by --trace 1
  /// slo_qps limit: the ROADMAP's 50 ms p99 SLO, unless that lies too
  /// close to the closed-loop p99 for the crossing to track capacity.
  double p99_limit_ms = 50;
};

// Why each workload exists and which layers it loads and bypasses is
// recorded in perfbench/DESIGN.md. The sizes make every request carry
// milliseconds of server work, so the loopback path is a small share.
constexpr Workload kWorkloads[] = {
    // FESIA structures of 512K docs exceed a 105 MiB L3; cache bypassed.
    // Its closed-loop p99 is about 25 ms: at 50 ms the open-loop p99 curve
    // is still shallow, so the crossing moved twice as much as capacity.
    {.name = "count_cold",
     .docs = 512 * 1024,
     .use_cache = false,
     .trace_requests = 300,
     .p99_limit_ms = 125},
    // Fits in L3; query-level Zipf over distinct term sets keeps the hot
    // set resident in the result cache.
    {.name = "query_hot",
     .docs = 128 * 1024,
     .batch = 32,
     .count_share = 0,
     .pool_size = 40000,
     .term_offset = 8,
     .distinct_terms = true,
     .query_theta = 0.9,
     .trace_requests = 1500},
    // Every write bumps content_epoch(), invalidating the whole cache.
    {.name = "mixed_rw",
     .docs = 64 * 1024,
     .batch = 4,
     .count_share = 0.5,
     .term_offset = 4,
     .distinct_terms = true,
     .writes_beside_reads = true,
     .write_rate = 100},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Query pool and the request stream

struct PoolQuery {
  std::vector<uint32_t> terms;
  uint64_t count = 0;
  uint64_t digest = 0;      ///< DocsDigest of the model answer
  uint64_t raw_digest = 0;  ///< CanonicalDocsDigest of the model answer
};

/// The pool is part of the workload's definition, not of its seed: which
/// term sets exist (and, under query-level Zipf, which are hot) would
/// otherwise move every metric between seeds. The seed draws the corpus
/// and the request stream.
std::vector<PoolQuery> MakePool(const Workload& w) {
  Rng rng(0x504F4F4Cull ^ perfbench::RawDigest(w.name));
  datagen::ZipfDistribution zipf(kTerms - w.term_offset, kTermTheta);
  std::vector<PoolQuery> pool;
  std::set<std::vector<uint32_t>> seen;
  while (pool.size() < w.pool_size) {
    PoolQuery q;
    const size_t n = 2 + rng.Below(3);
    while (q.terms.size() < n) {
      const uint32_t t =
          static_cast<uint32_t>(zipf.Sample(rng)) + w.term_offset;
      if (w.distinct_terms &&
          std::find(q.terms.begin(), q.terms.end(), t) != q.terms.end()) {
        continue;
      }
      q.terms.push_back(t);
    }
    // A query-level Zipf over the pool only means something when the pool
    // holds distinct cache keys.
    if (w.query_theta > 0 && !seen.insert(q.terms).second) continue;
    pool.push_back(std::move(q));
  }
  return pool;
}

/// Fills every pool query's expected count and doc digest from the model.
void ComputeAnswers(const NaiveModel& model, std::vector<PoolQuery>& pool,
                    size_t threads) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < pool.size(); i = next++) {
        const std::vector<uint32_t> docs = model.Intersect(pool[i].terms);
        pool[i].count = docs.size();
        pool[i].digest = perfbench::DocsDigest(docs);
        pool[i].raw_digest = perfbench::CanonicalDocsDigest(docs);
      }
    });
  }
  for (std::thread& t : workers) t.join();
}

struct Req {
  serve::Op op = serve::Op::kCount;
  std::vector<uint32_t> queries;  ///< pool indices
  uint64_t id = 0;                ///< echoed by the response
};

class RequestSource {
 public:
  RequestSource(const Workload& w, size_t pool_size, uint64_t seed)
      : w_(w),
        rng_(seed),
        zipf_(pool_size, w.query_theta),
        pool_size_(pool_size) {}

  Req Next() {
    Req r;
    r.op = rng_.NextDouble() < w_.count_share ? serve::Op::kCount
                                               : serve::Op::kQuery;
    for (size_t i = 0; i < w_.batch; ++i) {
      r.queries.push_back(static_cast<uint32_t>(
          w_.query_theta > 0 ? zipf_.Sample(rng_) : rng_.Below(pool_size_)));
    }
    return r;
  }

 private:
  const Workload& w_;
  Rng rng_;
  datagen::ZipfDistribution zipf_;
  size_t pool_size_;
};

std::string BuildLine(const Req& r, const std::vector<PoolQuery>& pool,
                      bool use_cache) {
  std::string line = "{\"op\":";
  line += r.op == serve::Op::kCount ? "\"count\"" : "\"query\"";
  if (!use_cache) line += ",\"cache\":false";
  line += ",\"id\":" + std::to_string(r.id) + ",\"queries\":[";
  for (size_t i = 0; i < r.queries.size(); ++i) {
    if (i > 0) line += ',';
    line += '[';
    const std::vector<uint32_t>& terms = pool[r.queries[i]].terms;
    for (size_t t = 0; t < terms.size(); ++t) {
      if (t > 0) line += ',';
      line += std::to_string(terms[t]);
    }
    line += ']';
  }
  line += "]}\n";
  return line;
}

/// Counts the queries of one response that are OK and correct. With
/// `exact`, answers must equal the pool's model answers; without (reads
/// racing a writer) only what holds at every version is checked: OK,
/// complete, and for "query" an ascending list of `count` docs. A response
/// scanned in raw mode can only be confirmed exact; anything else is
/// re-judged from a full scan (see CheckResponse).
size_t GoodQueries(const ScannedResponse& resp, const Req& req,
                   const std::vector<PoolQuery>& pool, bool exact, bool raw) {
  if (!resp.ok || resp.id != req.id ||
      resp.results.size() != req.queries.size()) {
    return 0;
  }
  size_t good = 0;
  for (size_t i = 0; i < resp.results.size(); ++i) {
    const perfbench::ScannedResult& r = resp.results[i];
    const PoolQuery& q = pool[req.queries[i]];
    bool ok = r.outcome == "ok" && r.shards_answered == r.shards_total;
    if (req.op == serve::Op::kQuery && raw) {
      ok = ok && exact && r.has_docs && r.docs_raw_digest == q.raw_digest;
    } else if (req.op == serve::Op::kQuery) {
      ok = ok && r.has_docs && r.docs_len == r.count && r.docs_ascending;
      if (exact) ok = ok && r.docs_digest == q.digest;
    }
    if (exact) ok = ok && r.count == q.count;
    good += ok ? 1 : 0;
  }
  return good;
}

/// Checks one response line: the fast raw scan first, and a full parse of
/// every number when the fast path cannot confirm all answers.
size_t CheckResponse(std::string_view line, const Req& req,
                     const std::vector<PoolQuery>& pool, bool exact,
                     double* wall_seconds) {
  ScannedResponse resp;
  size_t good = 0;
  if (perfbench::ScanResponse(line, &resp, /*raw_docs=*/true)) {
    good = GoodQueries(resp, req, pool, exact, true);
    *wall_seconds = resp.wall_seconds;
  }
  if (good < req.queries.size() &&
      perfbench::ScanResponse(line, &resp, /*raw_docs=*/false)) {
    good = GoodQueries(resp, req, pool, exact, false);
  }
  return good;
}

// ---------------------------------------------------------------------------
// The serving stack

struct Stack {
  std::string store_dir;
  std::unique_ptr<index::InvertedIndex> corpus;
  std::unique_ptr<shard::ShardedIndex> index;
  std::unique_ptr<serve::RouterBackend> backend;
  std::unique_ptr<serve::ResultCache> cache;
  std::unique_ptr<serve::Server> server;

  /// Tears down in dependency order (the server joins its threads first),
  /// then deletes the store, whose files are closed by then.
  ~Stack() {
    server.reset();
    backend.reset();
    cache.reset();
    index.reset();
    corpus.reset();
    std::error_code ec;
    if (!store_dir.empty()) std::filesystem::remove_all(store_dir, ec);
  }
};

constexpr uint64_t kCacheBytes = 64ull << 20;

/// Builds corpus, shard engines, snapshots and WALs, and starts the server.
/// Everything here is setup_s.
std::unique_ptr<Stack> BuildStack(const Workload& w, uint64_t seed,
                                  const std::string& store_dir,
                                  size_t workers, std::string* error) {
  auto st = std::make_unique<Stack>();
  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);
  st->store_dir = store_dir;

  index::CorpusParams cp;
  cp.num_docs = w.docs;
  cp.num_terms = kTerms;
  cp.avg_terms_per_doc = kTermsPerDoc;
  // BuildSynthetic seeds term t's list with seed ^ (golden * (t + 1)) and
  // Rng advances its state by the same golden step, so with a small seed
  // adjacent terms draw shifted copies of one sequence and their lists
  // nearly coincide. A mixed 64-bit seed keeps the lists independent.
  cp.seed = Rng(seed).Next64();
  st->corpus = std::make_unique<index::InvertedIndex>(
      index::InvertedIndex::BuildSynthetic(cp));

  shard::ShardedIndexOptions opts;
  opts.store_dir = store_dir;
  auto created = shard::ShardedIndex::Create(
      st->corpus.get(), shard::ShardMap::Hash(kShards), opts);
  if (!created.ok()) {
    *error = "create: " + created.status().ToString();
    return nullptr;
  }
  st->index = std::make_unique<shard::ShardedIndex>(std::move(created).value());
  Status s = st->index->RebuildAll();
  if (s.ok()) s = st->index->SaveAll();
  if (s.ok()) s = st->index->OpenMutationLogs();
  if (!s.ok()) {
    *error = "store: " + s.ToString();
    return nullptr;
  }
  serve::RouterBackend::Options bopts;
  bopts.num_threads = 1;  // serial scatter: the thread budget is pinned
  st->backend = std::make_unique<serve::RouterBackend>(st->index.get(), bopts);
  serve::ResultCache::Options copts;
  copts.max_bytes = kCacheBytes;
  st->cache = std::make_unique<serve::ResultCache>(copts);
  serve::ServerOptions sopts;
  sopts.num_workers = workers;
  sopts.cache = st->cache.get();
  st->server = std::make_unique<serve::Server>(st->backend.get(), sopts);
  Status started = st->server->Start();
  if (!started.ok()) {
    *error = "server: " + started.ToString();
    return nullptr;
  }
  return st;
}

// ---------------------------------------------------------------------------
// Load generator: one thread, several connections, epoll-multiplexed.

struct Sample {
  double latency_ms = 0;   ///< from send (closed loop) or due time (open)
  double lateness_ms = 0;  ///< send time minus due time
  double transport_ms = 0; ///< round trip minus the response's wall_seconds
};

struct PhaseResult {
  std::vector<Sample> samples;
  uint64_t attempted = 0;  ///< queries sent
  uint64_t good = 0;       ///< queries answered OK and correct
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t check_ns = 0;    ///< generator time spent scanning and checking
  bool drained = true;     ///< every request got its response
};

class LoadGen {
 public:
  /// A request still unanswered this long after its phase ends fails it.
  static constexpr int64_t kDrainNs = 30'000'000'000LL;
  static constexpr size_t kRecvChunk = 1 << 18;
  static constexpr int64_t kMaxWaitNs = 100'000'000;

  LoadGen(uint16_t port, size_t conns, const Workload& w,
          const std::vector<PoolQuery>* pool)
      : w_(w), pool_(pool) {
    // Requests leave on time by sleeping to their due time (epoll_pwait2's
    // nanosecond timeout, with no timer slack) rather than by spinning: a
    // spinning generator would compete with the server for the CPUs.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    for (size_t c = 0; c < conns; ++c) {
      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      if (fd < 0 ||
          ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
              0) {
        if (fd >= 0) ::close(fd);
        ok_ = false;
        continue;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = conns_.size();
      ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
      conns_.push_back(Conn{fd, {}, {}});
    }
    ok_ = ok_ && epfd_ >= 0 && conns_.size() == conns;
  }
  ~LoadGen() {
    for (Conn& c : conns_) ::close(c.fd);
    if (epfd_ >= 0) ::close(epfd_);
  }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  bool ok() const { return ok_; }
  /// Answers are compared with the model only while `exact` holds.
  void set_exact(bool exact) { exact_ = exact; }
  /// Expected answers of the pool indices requests carry.
  void set_pool(const std::vector<PoolQuery>* pool) { pool_ = pool; }

  /// Closed loop: every connection keeps one request in flight until
  /// `seconds` have passed and at least `min_requests` were sent, or until
  /// `next` runs dry; then the stragglers are drained.
  PhaseResult ClosedLoop(const std::function<bool(Req*)>& next,
                         double seconds, size_t min_requests = 0) {
    PhaseResult out;
    out.start_ns = NowNs();
    const int64_t stop = out.start_ns + static_cast<int64_t>(seconds * 1e9);
    bool more = true;
    size_t sent = 0;
    auto send_next = [&](size_t c) {
      Req r;
      if (more && (NowNs() < stop || sent < min_requests) &&
          (more = next(&r))) {
        Send(c, std::move(r), NowNs(), &out);
        ++sent;
      }
    };
    for (size_t c = 0; c < conns_.size(); ++c) send_next(c);
    while (Outstanding() > 0) {
      Poll(kMaxWaitNs, send_next, &out);  // responses wake it
      if (NowNs() > stop + kDrainNs) {
        out.drained = false;
        break;
      }
    }
    out.end_ns = NowNs();
    return out;
  }

  PhaseResult ClosedLoop(RequestSource& src, double seconds,
                         size_t min_requests = 0) {
    return ClosedLoop(
        [&](Req* r) {
          *r = src.Next();
          return true;
        },
        seconds, min_requests);
  }

  /// Open loop: `n` requests due every 1/rate seconds, round-robin over the
  /// connections (pipelined when one is still busy); latency is timed from
  /// each request's due time.
  PhaseResult OpenLoop(RequestSource& src, double rate, size_t n) {
    PhaseResult out;
    const int64_t t0 = NowNs() + 1'000'000;
    const double gap_ns = 1e9 / rate;
    size_t sent = 0;
    out.start_ns = t0;
    while (sent < n || Outstanding() > 0) {
      const int64_t now = NowNs();
      while (sent < n) {
        const int64_t due = t0 + static_cast<int64_t>(gap_ns * sent);
        if (due > now) break;
        Send(sent % conns_.size(), src.Next(), due, &out);
        ++sent;
      }
      int64_t wait_ns = kMaxWaitNs;
      if (sent < n) {
        const int64_t due = t0 + static_cast<int64_t>(gap_ns * sent);
        wait_ns = std::clamp<int64_t>(due - NowNs(), 0, kMaxWaitNs);
      }
      Poll(wait_ns, [](size_t) {}, &out);
      if (sent == n &&
          NowNs() > t0 + static_cast<int64_t>(gap_ns * n) + kDrainNs) {
        out.drained = false;
        break;
      }
    }
    out.end_ns = NowNs();
    return out;
  }

 private:
  struct Pending {
    int64_t due_ns;
    int64_t sent_ns;
    Req req;
  };
  struct Conn {
    int fd;
    std::string in;
    std::deque<Pending> fifo;
  };

  size_t Outstanding() const {
    size_t n = 0;
    for (const Conn& c : conns_) n += c.fifo.size();
    return n;
  }

  void Send(size_t c, Req req, int64_t due, PhaseResult* out) {
    req.id = next_id_++;
    const std::string line = BuildLine(req, *pool_, w_.use_cache);
    const int64_t sent = NowNs();
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t k = ::send(conns_[c].fd, line.data() + off,
                               line.size() - off, MSG_NOSIGNAL);
      if (k <= 0) break;
      off += static_cast<size_t>(k);
    }
    out->attempted += req.queries.size();
    if (off < line.size()) {
      out->drained = false;  // the connection is gone: nothing will answer
      return;
    }
    conns_[c].fifo.push_back(Pending{due, sent, std::move(req)});
  }

  template <typename OnDone>
  void Poll(int64_t timeout_ns, OnDone&& on_done, PhaseResult* out) {
    epoll_event events[8];
    const timespec timeout{static_cast<time_t>(timeout_ns / 1'000'000'000),
                           static_cast<long>(timeout_ns % 1'000'000'000)};
    const int n = ::epoll_pwait2(epfd_, events, 8, &timeout, nullptr);
    for (int e = 0; e < n; ++e) {
      const size_t c = events[e].data.u64;
      Conn& conn = conns_[c];
      // Only the new bytes can hold a newline not yet seen.
      size_t from = conn.in.size();
      while (true) {
        const size_t have = conn.in.size();
        conn.in.resize(have + kRecvChunk);
        const ssize_t k =
            ::recv(conn.fd, conn.in.data() + have, kRecvChunk, MSG_DONTWAIT);
        conn.in.resize(have + static_cast<size_t>(std::max<ssize_t>(k, 0)));
        if (k < static_cast<ssize_t>(kRecvChunk)) break;
      }
      size_t start = 0;
      for (size_t nl; (nl = conn.in.find('\n', from)) != std::string::npos;
           start = from = nl + 1) {
        const int64_t now = NowNs();
        if (conn.fifo.empty()) continue;  // unsolicited line: ignored
        Pending p = std::move(conn.fifo.front());
        conn.fifo.pop_front();
        double wall_seconds = 0;
        const size_t good = CheckResponse(
            std::string_view(conn.in).substr(start, nl - start), p.req,
            *pool_, exact_, &wall_seconds);
        out->good += good;
        out->check_ns += NowNs() - now;
        Sample s;
        s.latency_ms = Ms(now - p.due_ns);
        s.lateness_ms = Ms(p.sent_ns - p.due_ns);
        s.transport_ms = Ms(now - p.sent_ns) - wall_seconds * 1e3;
        out->samples.push_back(s);
        on_done(c);
      }
      conn.in.erase(0, start);
    }
  }

  const Workload& w_;
  const std::vector<PoolQuery>* pool_;
  int epfd_ = -1;
  std::vector<Conn> conns_;
  bool ok_ = true;
  bool exact_ = true;
  uint64_t next_id_ = 1;
};

// ---------------------------------------------------------------------------
// Writer: open-loop ShardedIndex::Upsert/Delete. FlushAll is not the
// writer's: it runs between measured windows (see Flushes).

struct Mutation {
  bool del = false;
  uint32_t doc = 0;
  std::vector<uint32_t> terms;
};

struct WriteLog {
  std::vector<double> latency_ms;
  std::vector<Mutation> acked;
  size_t failures = 0;
};

/// FlushAll calls, each timed. On mixed_rw one runs before every measured
/// window, so each window starts from an empty overlay and the flush count
/// is the window count; a flush landing inside a window at a random point
/// would decide that window's p99.
struct Flushes {
  std::vector<double> ms;
  size_t failures = 0;
  std::mutex gate;  ///< see RunWriter
  void Run(shard::ShardedIndex& index) {
    std::lock_guard<std::mutex> lock(gate);
    const int64_t t = NowNs();
    if (!index.FlushAll().ok()) ++failures;
    ms.push_back(Ms(NowNs() - t));
  }
};

/// Writes until `stop` is set and at least `min_writes` were made, so the
/// write percentiles always have their samples. `gate` is held around each
/// mutation; Flushes takes it so no write is in flight during a flush.
/// Writes that fell more than one interval behind (after a flush) restart
/// the schedule instead of bursting.
void RunWriter(shard::ShardedIndex& index, const Workload& w, uint64_t seed,
               size_t min_writes, const std::atomic<bool>& stop,
               std::mutex& gate, WriteLog* log) {
  Rng rng(seed ^ 0x5752495445ull);
  // Upserted docs draw their terms with the corpus's own skew
  // (CorpusParams::zipf_theta).
  datagen::ZipfDistribution zipf(kTerms, index::CorpusParams{}.zipf_theta);
  const double gap_ns = 1e9 / w.write_rate;
  int64_t t0 = NowNs();
  size_t k0 = 0;
  for (size_t k = 0; k < min_writes || !stop.load(); ++k) {
    int64_t due =
        t0 + static_cast<int64_t>(gap_ns * static_cast<double>(k - k0));
    if (NowNs() - due > gap_ns) {
      t0 = due = NowNs();
      k0 = k;
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::max<int64_t>(0, due - NowNs())));
    Mutation m;
    m.doc = static_cast<uint32_t>(rng.Below(w.docs));
    m.del = rng.NextDouble() < 0.2;
    if (!m.del) {
      const size_t n = static_cast<size_t>(kTermsPerDoc);
      for (size_t i = 0; i < n; ++i) {
        m.terms.push_back(static_cast<uint32_t>(zipf.Sample(rng)));
      }
    }
    std::lock_guard<std::mutex> lock(gate);
    const int64_t start = NowNs();
    const Status s =
        m.del ? index.Delete(m.doc) : index.Upsert(m.doc, m.terms);
    log->latency_ms.push_back(Ms(NowNs() - start));
    if (!s.ok()) {
      if (log->failures++ == 0) {
        std::fprintf(stderr, "perfbench: write failed: %s\n",
                     s.ToString().c_str());
      }
      continue;
    }
    log->acked.push_back(std::move(m));
  }
}

// ---------------------------------------------------------------------------
// Traced in-process replay of Server::Execute.

enum Layer : uint16_t {
  kRequest,
  kParse,
  kCacheLookup,
  kRoute,
  kView,
  kEngine,
  kOverlay,
  kEncode,
  kCacheInsert,
  kNumLayers
};

/// Largest share of traced request time the layer spans may leave
/// uncovered (stated in perfbench/DESIGN.md).
constexpr double kMaxUnaccounted = 0.05;
/// Largest share of traced requests that may break that share one by one.
constexpr double kMaxUnbalanced = 0.01;

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  int32_t Open(Layer layer, int32_t parent, uint32_t request) {
    if (!on_) return -1;
    spans_.push_back(Span{parent, request, layer, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t span) {
    if (span >= 0) spans_[static_cast<size_t>(span)].end_ns = NowNs();
  }
  /// A span whose timing was measured elsewhere (see Execute).
  void Add(Layer layer, int32_t parent, uint32_t request, int64_t start,
           int64_t dur) {
    if (on_) spans_.push_back(Span{parent, request, layer, start, start + dur});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Router- and index-level counters of a replay.
struct ReplayCounts {
  uint64_t routed_queries = 0;
  uint64_t incomplete = 0;
  uint64_t sub_queries = 0;
  uint64_t shed = 0;
  uint64_t deadline = 0;
  uint64_t engine_batches = 0;
  uint64_t response_bytes = 0;
};

/// Shadow calls for the per-shard store spans: the router acquires each
/// shard's MutationView and applies store::OverlayAdjustResults inside
/// ShardRouter::Run, out of reach of an outside timer, so the same public
/// calls are repeated here on the same sub-batch, right after the request.
void ShadowStoreSpans(const shard::ShardedIndex& index,
                      std::span<const std::vector<uint32_t>> queries,
                      bool materialize, int32_t route_span, uint32_t rid,
                      Tracer& tr) {
  for (uint32_t s = 0; s < index.num_shards(); ++s) {
    if (index.shard_quarantined(s)) continue;
    int64_t t = NowNs();
    const store::IndexManager::MutationView view = index.View(s);
    tr.Add(kView, route_span, rid, t, NowNs() - t);
    if (view.engine == nullptr) continue;
    std::vector<index::QueryResult> results;
    if (view.delta != nullptr) {
      index::BatchOptions sub;
      sub.num_threads = 1;
      results = materialize ? view.engine->QueryBatch(queries, sub)
                            : view.engine->CountBatch(queries, sub);
    }
    t = NowNs();
    if (view.delta != nullptr) {
      store::OverlayAdjustResults(*view.base, *view.delta, queries,
                                  materialize, results);
    }
    tr.Add(kOverlay, route_span, rid, t, NowNs() - t);
  }
}

/// Server::Execute, step for step, through the same public calls, with a
/// span around each layer. The router is called directly (RouterBackend::Run
/// is a thin conversion around it) so its per-shard BatchStats are visible:
/// each shard's engine span is that sub-batch's own wall_seconds.
std::string Execute(Stack& st, const shard::ShardRouter& router,
                    std::string_view line, uint32_t rid, Tracer& tr,
                    ReplayCounts* counts) {
  const int32_t root = tr.Open(kRequest, -1, rid);
  serve::Request request;
  int32_t sp = tr.Open(kParse, root, rid);
  const Status parsed =
      serve::ParseRequest(line, serve::ParseLimits{}, &request);
  tr.Close(sp);
  if (!parsed.ok()) {
    tr.Close(root);
    return serve::BuildErrorLine(parsed, &request);
  }
  serve::ResultCache* cache = request.use_cache ? st.cache.get() : nullptr;
  const size_t q = request.queries.size();
  std::vector<std::string> fragments(q);
  std::vector<std::string> keys;
  std::vector<size_t> miss_idx;
  std::vector<std::vector<uint32_t>> miss_queries;
  uint64_t epoch = 0;
  uint64_t hits = 0;
  if (cache == nullptr) {
    for (size_t i = 0; i < q; ++i) miss_idx.push_back(i);
  } else {
    sp = tr.Open(kCacheLookup, root, rid);
    epoch = st.index->content_epoch();
    keys.resize(q);
    for (size_t i = 0; i < q; ++i) {
      keys[i] = serve::ResultCache::Key(static_cast<uint8_t>(request.op),
                                        request.queries[i]);
      if (cache->Lookup(keys[i], epoch, &fragments[i])) {
        ++hits;
      } else {
        miss_idx.push_back(i);
        miss_queries.push_back(request.queries[i]);
      }
    }
    tr.Close(sp);
  }
  std::span<const std::vector<uint32_t>> run_queries =
      cache == nullptr ? std::span<const std::vector<uint32_t>>(request.queries)
                       : std::span<const std::vector<uint32_t>>(miss_queries);
  index::BatchStats merged;
  int32_t route = -1;
  if (!miss_idx.empty()) {
    shard::RouterOptions ropts;  // what RouterBackend::Run passes
    ropts.num_threads = 1;
    ropts.query_deadline_seconds = request.query_deadline_seconds;
    ropts.batch_deadline_seconds = request.batch_deadline_seconds;
    ropts.priority = request.priority;
    shard::ShardBatchStats rstats;
    route = tr.Open(kRoute, root, rid);
    std::vector<shard::RoutedQueryResult> routed =
        request.op == serve::Op::kCount
            ? router.CountBatch(run_queries, ropts, &rstats)
            : router.QueryBatch(run_queries, ropts, &rstats);
    tr.Close(route);
    merged = rstats.merged;
    if (route >= 0) {
      const int64_t route_start =
          tr.spans()[static_cast<size_t>(route)].start_ns;
      for (uint32_t s = 0; s < rstats.per_shard.size(); ++s) {
        if (rstats.per_shard[s].latency_seconds.empty()) continue;
        tr.Add(kEngine, route, rid, route_start,
               static_cast<int64_t>(rstats.per_shard[s].wall_seconds * 1e9));
      }
    }
    counts->routed_queries += routed.size();
    counts->incomplete += rstats.partial_queries;
    for (const index::BatchStats& b : rstats.per_shard) {
      if (b.latency_seconds.empty()) continue;
      ++counts->engine_batches;
      counts->sub_queries += b.latency_seconds.size();
      counts->shed += b.shed;
      counts->deadline += b.deadline_exceeded;
    }
    sp = tr.Open(kEncode, root, rid);
    std::vector<serve::WireResult> wire(routed.size());
    for (size_t k = 0; k < routed.size(); ++k) {
      serve::WireResult& wr = wire[k];
      const shard::RoutedQueryResult& r = routed[k];
      wr.outcome = r.outcome;
      wr.code = r.status.code();
      wr.count = r.count;
      wr.docs = std::move(routed[k].docs);
      wr.shards_answered = r.shards_answered;
      wr.shards_total = r.shards_total;
      wr.attempts = r.attempts;
      wr.downgraded = r.downgraded;
      wr.pressure_affected = r.pressure_affected;
      fragments[miss_idx[k]] = serve::BuildResultJson(wr, request.op);
    }
    tr.Close(sp);
    if (cache != nullptr) {
      sp = tr.Open(kCacheInsert, root, rid);
      for (size_t k = 0; k < wire.size(); ++k) {
        if (wire[k].outcome == index::QueryOutcome::kOk &&
            wire[k].shards_answered == wire[k].shards_total) {
          cache->Insert(keys[miss_idx[k]], epoch, fragments[miss_idx[k]]);
        }
      }
      tr.Close(sp);
    }
  }
  sp = tr.Open(kEncode, root, rid);
  std::string response = serve::BuildResponseLine(
      request, fragments, merged, hits, q - hits);
  tr.Close(sp);
  tr.Close(root);
  counts->response_bytes += response.size();
  if (route >= 0) {
    ShadowStoreSpans(*st.index, run_queries,
                     request.op == serve::Op::kQuery, route, rid, tr);
  }
  return response;
}

// ---------------------------------------------------------------------------
// Host stamp

std::string FsType(const std::string& path) {
  struct statfs sf {};
  if (::statfs(path.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(metrics[i].name) + ": {\"value\": " +
           JsonDouble(metrics[i].value) + ", \"unit\": " +
           JsonQuote(metrics[i].unit) + "}";
  }
  return out + "}";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string store_dir;
  std::string results_dir;
  std::string source_id;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--store-dir") {
      a->store_dir = v;
    } else if (k == "--results-dir") {
      a->results_dir = v;
    } else if (k == "--source-id") {
      a->source_id = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->store_dir.empty() &&
         !a->results_dir.empty() && !a->source_id.empty() &&
         a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

/// Thread budget: server workers + epoll thread + generator thread (+ the
/// writer on mixed_rw) fit in nproc; connections = workers + 1 keeps every
/// worker busy in the closed loop without measuring the client's turnaround.
struct Budget {
  size_t nproc;
  size_t workers;
  size_t writer_threads;
  size_t connections;
  size_t total() const { return workers + 1 + 1 + writer_threads; }
};

Budget MakeBudget(const Workload& w) {
  Budget b;
  b.nproc = std::max<long>(1, ::sysconf(_SC_NPROCESSORS_ONLN));
  b.writer_threads = w.writes_beside_reads ? 1 : 0;
  const size_t reserved = 2 + b.writer_threads;
  b.workers = b.nproc > reserved ? b.nproc - reserved : 1;
  b.connections = b.workers + 1;
  return b;
}

std::string ConfigJson(const Args& a, const Workload& w, const Budget& b) {
  std::string s = "{\"config\": {";
  s += "\"workload\": " + JsonQuote(w.name);
  s += ", \"seed\": " + std::to_string(a.seed);
  s += ", \"seconds\": " + JsonDouble(a.seconds);
  s += ", \"trace\": " + std::to_string(a.trace);
  s += ", \"cpu\": " + JsonQuote(CpuBrandString());
  s += ", \"nproc\": " + std::to_string(b.nproc);
  s += ", \"simd\": " +
       JsonQuote(SimdLevelName(ResolveSimdLevel(SimdLevel::kAuto)));
  s += ", \"build_type\": " + JsonQuote(PERFBENCH_BUILD_TYPE);
  s += ", \"source_id\": " + JsonQuote(a.source_id);
  s += ", \"store_fs\": " + JsonQuote(FsType(a.store_dir));
  s += ", \"server_workers\": " + std::to_string(b.workers);
  s += ", \"epoll_threads\": 1, \"generator_threads\": 1";
  s += ", \"writer_threads\": " + std::to_string(b.writer_threads);
  s += ", \"threads_total\": " + std::to_string(b.total());
  s += ", \"threads_within_nproc\": ";
  s += b.total() <= b.nproc ? "true" : "false";
  s += ", \"router_threads\": 1";
  s += ", \"connections\": " + std::to_string(b.connections);
  s += ", \"docs\": " + std::to_string(w.docs);
  s += ", \"terms\": " + std::to_string(kTerms);
  s += ", \"shards\": " + std::to_string(kShards);
  s += ", \"batch\": " + std::to_string(w.batch);
  s += ", \"cache\": ";
  s += w.use_cache ? "true" : "false";
  s += ", \"p99_limit_ms\": " + JsonDouble(w.p99_limit_ms);
  s += ", \"write_rate\": " + JsonDouble(w.write_rate);
  s += ", \"flush_before_each_window\": ";
  s += w.writes_beside_reads ? "true" : "false";
  return s + "}}";
}

// ---------------------------------------------------------------------------

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< extra JSON members for the results file
};

void Fail(RunResult* r, const std::string& why) {
  r->correct = false;
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
}

std::vector<double> Column(const PhaseResult& p, double Sample::*field) {
  std::vector<double> v;
  v.reserve(p.samples.size());
  for (const Sample& s : p.samples) v.push_back(s.*field);
  return v;
}

/// Closed-loop segments per --trace 0 run; qps, p50_ms and p99_ms are
/// medians over them.
constexpr size_t kClosedSegments = 5;

/// Percentile that must be supported by the sample; a missing one fails
/// the run rather than reporting a thinner percentile under p99's name.
double Pct(const std::vector<double>& v, double p, const char* what,
           RunResult* r) {
  const std::optional<double> x = perfbench::TailPercentile(v, p);
  if (!x) {
    Fail(r, std::string(what) + ": too few samples (" +
                std::to_string(v.size()) + ") for its percentile");
    return 0;
  }
  return *x;
}

void Account(const PhaseResult& p, RunResult* r) {
  r->attempted += p.attempted;
  r->failed += p.attempted - p.good;
}

/// Writes outside the read phases, so they cannot disturb them.
WriteLog WritePhase(Stack& st, const Workload& w, uint64_t seed,
                    double seconds) {
  WriteLog log;
  const size_t n = std::max<size_t>(
      perfbench::MinSamplesFor(0.99),
      static_cast<size_t>(w.write_rate * seconds));
  const std::atomic<bool> stop{true};
  std::mutex gate;
  RunWriter(*st.index, w, seed, n, stop, gate, &log);
  return log;
}

/// Upper bound on the post-write check; it takes well under a second.
constexpr double kCheckSeconds = 60;

/// Re-checks a prefix of the pool through the server after the writer
/// stopped, for both ops, against the model with every acknowledged
/// mutation replayed in acknowledgement order.
PhaseResult CheckAfterWrites(LoadGen& gen, const Workload& w,
                             const index::InvertedIndex& corpus,
                             const WriteLog& log,
                             const std::vector<PoolQuery>& pool) {
  NaiveModel model(corpus);
  for (const Mutation& m : log.acked) {
    if (m.del) {
      model.Delete(m.doc);
    } else {
      model.Upsert(m.doc, m.terms);
    }
  }
  std::vector<PoolQuery> checked(
      pool.begin(), pool.begin() + std::min(pool.size(), kCheckQueries));
  ComputeAnswers(model, checked, 1);
  std::vector<Req> reqs;
  for (serve::Op op : {serve::Op::kCount, serve::Op::kQuery}) {
    for (size_t i = 0; i < checked.size(); i += w.batch) {
      Req r;
      r.op = op;
      for (size_t k = i; k < std::min(checked.size(), i + w.batch); ++k) {
        r.queries.push_back(static_cast<uint32_t>(k));
      }
      reqs.push_back(std::move(r));
    }
  }
  gen.set_pool(&checked);
  gen.set_exact(true);
  size_t next = 0;
  PhaseResult out = gen.ClosedLoop(
      [&](Req* r) {
        if (next == reqs.size()) return false;
        *r = reqs[next++];
        return true;
      },
      kCheckSeconds);
  gen.set_pool(&pool);
  return out;
}

/// Joins the writer on every path out of main.
struct WriterThread {
  std::atomic<bool> stop{false};
  std::thread thread;
  void Stop() {
    stop = true;
    if (thread.joinable()) thread.join();
  }
  ~WriterThread() { Stop(); }
};

/// What both modes share: the generator, the request stream and, on
/// mixed_rw, the writer beside the reads with a flush before each window.
struct Rig {
  Rig(const Args& args, const Workload& w, const Budget& b, Stack& st,
          const std::vector<PoolQuery>& pool)
      : w(w),
        st(st),
        pool(pool),
        gen(st.server->port(), b.connections, w, &pool),
        src(w, pool.size(), args.seed ^ 0x51ull) {
    if (!w.writes_beside_reads) return;
    gen.set_exact(false);
    writer.thread = std::thread([this, seed = args.seed] {
      RunWriter(*this->st.index, this->w, seed,
                perfbench::MinSamplesFor(0.99), writer.stop, flushes.gate,
                &wlog);
    });
  }

  void WindowStart() {
    if (w.writes_beside_reads) flushes.Run(*st.index);
  }

  /// Stops the writer and re-checks answers against the model with every
  /// acknowledged write replayed.
  void StopWriter(RunResult* run) {
    if (!w.writes_beside_reads) return;
    writer.Stop();
    Account(CheckAfterWrites(gen, w, *st.corpus, wlog, pool), run);
  }

  const Workload& w;
  Stack& st;
  const std::vector<PoolQuery>& pool;
  LoadGen gen;
  RequestSource src;
  WriteLog wlog;
  Flushes flushes;
  WriterThread writer;  // last: joined before what it writes to goes away
};

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

/// Generator lateness (p99) beyond this share of the latency limit means
/// the generator fell behind its schedule.
constexpr double kMaxLateShare = 0.2;

/// Open-loop probe acceptance (see perfbench/DESIGN.md, "slo_qps"): every
/// query OK and correct, p99 from due time within the limit, and no
/// growing backlog (the last quarter's median latency at most a quarter of
/// the limit above the first quarter's). When the generator fell behind, the offered
/// rate was not the one asked for, so a pass says nothing and the probe is
/// re-run; a probe that fails even with latency taken from the actual send
/// time is a valid failure.
ProbeOutcome JudgeProbe(const PhaseResult& p, double limit_ms,
                        std::string* note) {
  ProbeOutcome o;
  const std::vector<double> lat = Column(p, &Sample::latency_ms);
  const std::vector<double> late = Column(p, &Sample::lateness_ms);
  std::vector<double> from_send(lat.size());
  for (size_t i = 0; i < lat.size(); ++i) from_send[i] = lat[i] - late[i];
  const std::optional<double> p99 = perfbench::TailPercentile(lat, 0.99);
  const std::optional<double> p99_send =
      perfbench::TailPercentile(from_send, 0.99);
  const std::optional<double> late99 = perfbench::TailPercentile(late, 0.99);
  const size_t q = lat.size() / 4;
  const double first = perfbench::Median({lat.begin(), lat.begin() + q});
  const double last = perfbench::Median({lat.end() - q, lat.end()});
  const bool on_schedule =
      late99.has_value() && *late99 <= kMaxLateShare * limit_ms;
  const bool answered = p.drained && p.good == p.attempted;
  o.pass = on_schedule && answered && p99.has_value() && *p99 <= limit_ms &&
           last <= first + 0.25 * limit_ms;
  o.valid = on_schedule || !answered ||
            (p99_send.has_value() && *p99_send > limit_ms);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"requests\": %zu, \"p99_ms\": %.4f, \"lateness_p99_ms\": "
                "%.4f, \"lateness_max_ms\": %.4f, \"first_q_p50_ms\": %.4f, "
                "\"last_q_p50_ms\": %.4f, \"valid\": %s, \"pass\": %s",
                lat.size(), p99.value_or(-1), late99.value_or(-1),
                late.empty() ? 0 : *std::max_element(late.begin(), late.end()),
                first, last, o.valid ? "true" : "false",
                o.pass ? "true" : "false");
  *note = buf;
  return o;
}

/// --trace 0: the end-to-end metrics.
void MeasureEndToEnd(const Args& args, const Workload& w, const Budget& b,
                     const std::vector<double>& setup_s, Stack& st,
                     const std::vector<PoolQuery>& pool, RunResult* run) {
  const double S = args.seconds;
  Rig rig(args, w, b, st, pool);
  if (!rig.gen.ok()) {
    Fail(run, "cannot connect to the server");
    return;
  }
  LoadGen& gen = rig.gen;
  RequestSource& src = rig.src;

  Account(gen.ClosedLoop(src, std::max(0.5, 0.05 * S)), run);  // warm-up
  // The closed loop runs in segments spread over the run, one before each
  // of the first slo_qps probes, so a slow stretch of the host moves one
  // or two segments rather than every closed-loop number. Each segment is
  // long enough for its own p99.
  const double segment_s = 0.35 * S / kClosedSegments;
  std::vector<PhaseResult> closed;
  auto closed_segment = [&] {
    closed.push_back(
        gen.ClosedLoop(src, segment_s, perfbench::MinSamplesFor(0.99)));
    Account(closed.back(), run);
  };
  rig.WindowStart();
  closed_segment();
  closed_segment();
  double req_rate = 0;
  for (const PhaseResult& c : closed) {
    req_rate += static_cast<double>(c.samples.size()) /
                ((c.end_ns - c.start_ns) / 1e9) / closed.size();
  }

  const double probe_s = 0.55 * S / 5;
  std::string probes = "[";
  const BisectResult slo = perfbench::BisectSloRate(
      0.6 * req_rate, 1.3 * req_rate, 0.04, 2, [&](double rate) {
        const size_t n = std::max(perfbench::MinSamplesFor(0.99),
                                  static_cast<size_t>(rate * probe_s));
        rig.WindowStart();
        if (closed.size() < kClosedSegments) closed_segment();
        const PhaseResult p = gen.OpenLoop(src, rate, n);
        Account(p, run);
        std::string note;
        const ProbeOutcome o = JudgeProbe(p, w.p99_limit_ms, &note);
        probes += (probes.size() > 1 ? ", " : "") + note + ", \"rate\": " +
                  JsonDouble(rate) + "}";
        return o;
      });
  while (closed.size() < kClosedSegments) {
    rig.WindowStart();
    closed_segment();
  }
  std::vector<double> rates, p50s, p99s;
  double check_s = 0, closed_s = 0;
  for (const PhaseResult& c : closed) {
    const std::vector<double> lat = Column(c, &Sample::latency_ms);
    rates.push_back(static_cast<double>(c.good) /
                    ((c.end_ns - c.start_ns) / 1e9));
    p50s.push_back(Pct(lat, 0.5, "p50_ms", run));
    p99s.push_back(Pct(lat, 0.99, "p99_ms", run));
    check_s += c.check_ns / 1e9;
    closed_s += (c.end_ns - c.start_ns) / 1e9;
  }
  run->notes.push_back("\"generator_check_share\": " +
                       JsonDouble(check_s / closed_s));
  probes += "]";
  run->notes.push_back("\"slo_probes\": " + probes);
  run->notes.push_back("\"slo_reruns\": " + std::to_string(slo.reruns));
  if (!slo.ok) Fail(run, "slo_qps bisection found no passing rate");

  rig.StopWriter(run);
  if (rig.wlog.failures + rig.flushes.failures > 0) {
    Fail(run, "a write or flush failed");
  }
  run->notes.push_back("\"writes\": " +
                       std::to_string(rig.wlog.latency_ms.size()));
  run->notes.push_back("\"flushes\": " +
                       std::to_string(rig.flushes.ms.size()));

  const double ok = static_cast<double>(run->attempted - run->failed);
  run->metrics = {
      {"setup_s", perfbench::Median(setup_s), "s"},
      {"qps", perfbench::Median(rates), "1/s"},
      {"p50_ms", perfbench::Median(p50s), "ms"},
      {"p99_ms", perfbench::Median(p99s), "ms"},
      {"slo_qps", slo.rate * static_cast<double>(w.batch), "1/s"},
      {"ok_frac", run->attempted > 0 ? ok / run->attempted : 0, "ratio"},
      {"rss_mb", PeakRssMb(), "MB"},
  };
}

/// --trace 1: the per-layer split from a traced in-process replay.
void MeasureLayers(const Args& args, const Workload& w, const Budget& b,
                   Stack& st, const std::vector<PoolQuery>& pool,
                   RunResult* run) {
  const double S = args.seconds;
  Rig rig(args, w, b, st, pool);
  if (!rig.gen.ok()) {
    Fail(run, "cannot connect to the server");
    return;
  }
  LoadGen& gen = rig.gen;
  RequestSource& src = rig.src;
  Account(gen.ClosedLoop(src, std::max(0.5, 0.05 * S)), run);  // warm-up
  rig.WindowStart();
  // Untraced socket phase: transport = round trip minus the server-side
  // engine wall time the response reports.
  const PhaseResult sock = gen.ClosedLoop(src, 0.15 * S);
  Account(sock, run);
  const double transport_ms =
      perfbench::Median(Column(sock, &Sample::transport_ms));

  // Two consecutive samples of the stream: the first replayed untraced,
  // the second traced. Replaying one sample twice would turn the second
  // pass into cache hits.
  struct Recorded {
    std::vector<Req> reqs;
    std::vector<std::string> lines;
  };
  auto record = [&] {
    Recorded r;
    for (size_t i = 0; i < w.trace_requests; ++i) {
      r.reqs.push_back(src.Next());
      r.reqs.back().id = i + 1;
      r.lines.push_back(BuildLine(r.reqs.back(), pool, w.use_cache));
    }
    return r;
  };
  const Recorded untraced_sample = record();
  const Recorded traced_sample = record();
  const std::vector<Req>& sample = traced_sample.reqs;
  const shard::ShardRouter router(st.index.get());
  auto replay = [&](const Recorded& rec, Tracer& tr, ReplayCounts* counts) {
    std::vector<double> wall_ms;
    for (size_t i = 0; i < rec.reqs.size(); ++i) {
      const int64_t t = NowNs();
      const std::string resp = Execute(st, router, rec.lines[i],
                                       static_cast<uint32_t>(i), tr, counts);
      wall_ms.push_back(Ms(NowNs() - t));
      double wall_seconds = 0;
      const size_t good = CheckResponse(resp, rec.reqs[i], pool,
                                        !w.writes_beside_reads, &wall_seconds);
      run->attempted += rec.reqs[i].queries.size();
      run->failed += rec.reqs[i].queries.size() - good;
    }
    return wall_ms;
  };
  rig.WindowStart();
  Tracer off(false);
  ReplayCounts untraced_counts;
  const std::vector<double> untraced_ms =
      replay(untraced_sample, off, &untraced_counts);

  rig.WindowStart();
  const serve::ResultCacheStats cache0 = st.cache->stats();
  const uint64_t epoch0 = st.index->content_epoch();
  Tracer tr(true);
  ReplayCounts c;
  replay(traced_sample, tr, &c);
  const serve::ResultCacheStats cache1 = st.cache->stats();

  // Fesia layer: the sample's pair queries on every shard engine.
  uint64_t pairs = 0, skewed = 0, step1 = 0, step2 = 0, matched = 0, result = 0;
  int64_t sort_ns = 0, nosort_ns = 0;
  std::vector<std::shared_ptr<const index::QueryEngine>> engines;
  for (uint32_t s = 0; s < st.index->num_shards(); ++s) {
    engines.push_back(st.index->engine(s));
  }
  std::vector<uint32_t> out;
  for (const Req& r : sample) {
    for (uint32_t qi : r.queries) {
      const std::vector<uint32_t>& t = pool[qi].terms;
      if (t.size() != 2) continue;
      ++pairs;
      const double na = static_cast<double>(st.corpus->Postings(t[0]).size());
      const double nb = static_cast<double>(st.corpus->Postings(t[1]).size());
      if (std::min(na, nb) < 0.25 * std::max(na, nb)) ++skewed;
      for (const auto& e : engines) {
        if (e == nullptr) continue;
        const FesiaSet& a = e->TermSet(t[0]);
        const FesiaSet& bset = e->TermSet(t[1]);
        IntersectBreakdown bd;
        IntersectCountInstrumented(a, bset, &bd);
        step1 += bd.step1_cycles;
        step2 += bd.step2_cycles;
        matched += bd.matched_segments;
        result += bd.result;
        for (int k = 0; k < 2; ++k) {
          const bool sorted = (k == 0) == (pairs % 2 == 0);
          const int64_t t0 = NowNs();
          IntersectInto(a, bset, &out, sorted);
          (sorted ? sort_ns : nosort_ns) += NowNs() - t0;
        }
      }
    }
  }

  // Every workload's traced run ends with writes and one flush, so the
  // store metrics are measured everywhere; mixed_rw also flushed before
  // each window above.
  rig.StopWriter(run);
  if (!w.writes_beside_reads) {
    rig.wlog = WritePhase(st, w, args.seed, 0.1 * S);
  }
  rig.flushes.Run(*st.index);
  const WriteLog& wlog = rig.wlog;
  const Flushes& flushes = rig.flushes;
  if (wlog.failures + flushes.failures > 0) {
    Fail(run, "a write or flush failed");
  }
  const uint64_t epoch1 = st.index->content_epoch();

  // Self times per layer.
  const std::vector<Span>& spans = tr.spans();
  const std::vector<int64_t> self = perfbench::SelfTimes(spans);
  std::vector<double> self_ns(kNumLayers, 0), dur_ns(kNumLayers, 0);
  std::vector<double> traced_ms;
  // Per request: the root span's self time (what no layer span covers)
  // and the shard layer's self time, each as a share of the request.
  std::vector<int64_t> req_ns(sample.size(), 0), req_self(sample.size(), 0),
      shard_self(sample.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t dur = spans[i].end_ns - spans[i].start_ns;
    self_ns[spans[i].layer] += static_cast<double>(self[i]);
    dur_ns[spans[i].layer] += static_cast<double>(dur);
    if (spans[i].layer == kRequest) {
      traced_ms.push_back(Ms(dur));
      req_ns[spans[i].request] = dur;
      req_self[spans[i].request] = self[i];
    } else if (spans[i].layer == kRoute) {
      shard_self[spans[i].request] += self[i];
    }
  }
  const double n = static_cast<double>(sample.size());
  auto per_req_us = [&](const std::vector<double>& v, Layer l) {
    return v[l] / n / 1e3;
  };
  const double unaccounted = self_ns[kRequest] / dur_ns[kRequest];
  if (unaccounted > kMaxUnaccounted) {
    Fail(run, "traced layers leave " + JsonDouble(unaccounted) +
                  " of request time unaccounted");
  }
  if (self_ns[kRoute] < 0) Fail(run, "shard self time is negative");
  // The same share bounds each request: its uncovered time, and how far
  // its shard self time may fall below zero (the store spans are repeated
  // calls, see ShadowStoreSpans). A request preempted between spans can
  // break either, so up to kMaxUnbalanced of the requests may.
  size_t unbalanced = 0;
  for (size_t r = 0; r < sample.size(); ++r) {
    const double limit = kMaxUnaccounted * static_cast<double>(req_ns[r]);
    if (static_cast<double>(req_self[r]) > limit ||
        static_cast<double>(-shard_self[r]) > limit) {
      ++unbalanced;
    }
  }
  const double unbalanced_frac = static_cast<double>(unbalanced) / n;
  if (unbalanced_frac > kMaxUnbalanced) {
    Fail(run, JsonDouble(unbalanced_frac) +
                  " of traced requests break the per-request share");
  }
  const double lookups = static_cast<double>((cache1.hits - cache0.hits) +
                                             (cache1.misses - cache0.misses));
  auto frac = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double sub = static_cast<double>(c.sub_queries);
  run->metrics = {
      {"serve.parse_us", per_req_us(self_ns, kParse), "us"},
      {"serve.cache_lookup_us", per_req_us(self_ns, kCacheLookup), "us"},
      {"serve.cache_insert_us", per_req_us(self_ns, kCacheInsert), "us"},
      {"serve.cache_hit_rate",
       frac(static_cast<double>(cache1.hits - cache0.hits), lookups), "ratio"},
      {"serve.cache_stale_evictions",
       static_cast<double>(cache1.stale_evictions - cache0.stale_evictions),
       "count"},
      {"serve.cache_lru_evictions",
       static_cast<double>(cache1.lru_evictions - cache0.lru_evictions),
       "count"},
      {"serve.encode_us", per_req_us(self_ns, kEncode), "us"},
      {"serve.response_kb", static_cast<double>(c.response_bytes) / n / 1024,
       "KiB"},
      {"serve.transport_ms", transport_ms, "ms"},
      {"serve.self_us", per_req_us(self_ns, kRequest), "us"},
      {"shard.route_us", per_req_us(dur_ns, kRoute), "us"},
      {"shard.self_us", per_req_us(self_ns, kRoute), "us"},
      {"shard.incomplete_frac",
       frac(static_cast<double>(c.incomplete),
            static_cast<double>(c.routed_queries)),
       "ratio"},
      {"store.view_us", per_req_us(dur_ns, kView), "us"},
      {"store.overlay_us", per_req_us(dur_ns, kOverlay), "us"},
      {"store.write_us", Mean(wlog.latency_ms) * 1e3, "us"},
      {"store.write_p50_ms", Pct(wlog.latency_ms, 0.5, "write p50", run), "ms"},
      {"store.write_p99_ms", Pct(wlog.latency_ms, 0.99, "write p99", run),
       "ms"},
      {"store.flush_ms", Mean(flushes.ms), "ms"},
      {"store.flushes", static_cast<double>(flushes.ms.size()), "count"},
      {"store.epoch_bumps", static_cast<double>(epoch1 - epoch0), "count"},
      {"index.batch_us",
       frac(dur_ns[kEngine], static_cast<double>(c.engine_batches)) / 1e3,
       "us"},
      {"index.shed_frac", frac(static_cast<double>(c.shed), sub), "ratio"},
      {"index.deadline_frac", frac(static_cast<double>(c.deadline), sub),
       "ratio"},
      {"fesia.step1_cycles", frac(static_cast<double>(step1), pairs), "cycles"},
      {"fesia.step2_cycles", frac(static_cast<double>(step2), pairs), "cycles"},
      {"fesia.matched_segments", frac(static_cast<double>(matched), pairs),
       "count"},
      {"fesia.result_per_segment",
       frac(static_cast<double>(result), static_cast<double>(matched)),
       "ratio"},
      {"fesia.skewed_frac", frac(static_cast<double>(skewed), pairs), "ratio"},
      {"fesia.sort_share",
       frac(static_cast<double>(sort_ns - nosort_ns),
            static_cast<double>(sort_ns)),
       "ratio"},
      {"trace.overhead_ratio",
       frac(perfbench::Median(traced_ms), perfbench::Median(untraced_ms)),
       "ratio"},
      {"trace.unaccounted_frac", unaccounted, "ratio"},
      {"trace.unbalanced_frac", unbalanced_frac, "ratio"},
  };
  run->notes.push_back("\"trace_requests\": " + JsonDouble(n));
}

void WriteResultsFile(const Args& args, const std::string& config,
                      const RunResult& r) {
  std::error_code ec;
  std::filesystem::create_directories(args.results_dir, ec);
  const std::string path = args.results_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           std::to_string(args.trace) + ".json";
  std::ofstream f(path);
  f << "{" << config.substr(1, config.size() - 2) << ", \"metrics\": "
    << MetricsJson(r.metrics);
  for (const std::string& note : r.notes) f << ", " << note;
  f << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_serve --workload NAME --seed N --seconds S "
                 "--trace 0|1 --store-dir DIR --results-dir DIR "
                 "--source-id ID\n");
    return 2;
  }
  const Workload* wp = FindWorkload(args.workload);
  if (wp == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  const Budget budget = MakeBudget(w);
  std::error_code ec;
  std::filesystem::create_directories(args.store_dir, ec);
  const std::string config = ConfigJson(args, w, budget);

  // Setup is timed several times and reported as the median; the last
  // stack built is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> st;
  const int setups = args.trace == 1 ? 1 : 3;
  for (int k = 0; k < setups; ++k) {
    st.reset();
    const int64_t t = NowNs();
    std::string error;
    // Per process, so a stray concurrent run cannot share the store.
    st = BuildStack(w, args.seed,
                    args.store_dir + "/stack-" + std::to_string(::getpid()),
                    budget.workers, &error);
    if (st == nullptr) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back((NowNs() - t) / 1e9);
  }

  std::vector<PoolQuery> pool = MakePool(w);
  ComputeAnswers(NaiveModel(*st->corpus), pool, budget.nproc);

  RunResult run;
  if (args.trace == 0) {
    MeasureEndToEnd(args, w, budget, setup_s, *st, pool, &run);
  } else {
    MeasureLayers(args, w, budget, *st, pool, &run);
  }
  st.reset();
  if (run.failed > 0) Fail(&run, std::to_string(run.failed) + " of " +
                                     std::to_string(run.attempted) +
                                     " queries failed or were wrong");
  WriteResultsFile(args, config, run);

  std::printf("%s\n", config.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              run.correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              MetricsJson(run.metrics).c_str());
  return run.correct ? 0 : 1;
}
