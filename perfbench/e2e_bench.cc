// End-to-end benchmark program for the BlazeIt engine.
//
// Three workloads, each one process with one load-generating thread:
//
//   cold_ingest  closed loop of first-touch queries, one per (stream,
//                class), on a fresh empty store per round: render, NN
//                train/infer, detector, store writes, exec parallelism.
//   warm_mix     closed loop over every plan kind against a prebuilt warm
//                store, in seeded-shuffle passes: store reads, artifact
//                caches, optimizer/executors, stats.
//   served_open  open-loop arrivals from 8 tenants into
//                serve::AdmissionQueue with its wall-clock window driver:
//                queueing, scheduler, shared sweeps, pool budgets.
//
// Every layer is driven through its public API. `run --trace 0` prints
// the end-to-end metrics of one workload; `run --trace 1` is the separate
// traced run that prints the per-layer metrics (and writes a Chrome trace
// of the benchmark's own spans plus the engine's ExecutionReport spans).
// Outputs are checked on every run: aggregates against the test day's
// labels, returned frames/rows re-verified against the labels, and every
// timed or served answer against a serial Execute of the same query made
// in the same process. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; a mismatch exits 1.
//
// Usage (normally through run.py, which builds this binary and the store):
//   e2e_bench fingerprint
//   e2e_bench build-store --store DIR
//   e2e_bench capacity --store DIR --seconds S
//   e2e_bench run --workload W --seed N --seconds S --trace 0|1
//             --store DIR --work DIR [--trace-out FILE]

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/catalog.h"
#include "core/engine.h"
#include "core/optimizer.h"
#include "detect/simulated_detector.h"
#include "exec/thread_pool.h"
#include "frameql/analyzer.h"
#include "nn/specialized_nn.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/admission_queue.h"
#include "storage/persistent_cached_detector.h"
#include "util/artifact_cache.h"
#include "util/cpu_features.h"
#include "util/logging.h"
#include "util/random.h"
#include "video/datasets.h"
#include "video/render_features.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace blazeit;  // NOLINT: a single-file program
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

/// Start of a set-up: the first one in the process counts from process
/// start, later ones from their own start.
Clock::time_point SetupStart() {
  static bool first = true;
  const Clock::time_point t = first ? kProcessStart : Clock::now();
  first = false;
  return t;
}

// ---------------------------------------------------------------------------
// Fixed configuration. Changing any of it changes what the benchmark
// measures; the store fingerprint covers everything the warm store holds.
// ---------------------------------------------------------------------------

/// Upper bound on the exec pool; the pool is min(this, nproc).
constexpr int kMaxPool = 4;
/// Set-ups per run; setup_s is their median. A warm set-up (open, register,
/// one pass over the templates) takes about a second, a cold one (empty
/// store, register) tens of milliseconds, so cold runs make more.
constexpr int kWarmSetupReps = 5;
constexpr int kColdSetupReps = 11;
/// Open loop: offered rate, tenants, window tick. The rate is about half
/// the served templates' closed-loop capacity (`e2e_bench capacity`: 17-20
/// queries/s at pool 4 on a 4-core AVX-512 VM), fixed so parent and change
/// are offered the same load.
constexpr double kServedRate = 9.5;
constexpr int kTenants = 8;
constexpr int64_t kTickMs = 20;

DayLengths CiDays() {
  DayLengths d;
  d.train = 6000;
  d.held_out = 6000;
  d.test = 12000;
  return d;
}

SpecializedNNConfig BenchNN() {
  SpecializedNNConfig nn;
  return nn;
}

EngineOptions MakeOptions(bool use_index, bool reports) {
  EngineOptions o;
  o.aggregate.nn = BenchNN();
  o.scrub.nn = BenchNN();
  o.selection.nn = BenchNN();
  o.use_store_index = use_index;
  o.collect_reports = reports;
  return o;
}

struct Template {
  const char* name;
  const char* sql;
};

/// One first-touch query per (stream, class): no two share a model.
const std::vector<Template>& ColdTemplates() {
  static const std::vector<Template> t = {
      {"taipei.car.scrub",
       "SELECT timestamp FROM taipei GROUP BY timestamp "
       "HAVING SUM(class='car') >= 2 LIMIT 10 GAP 300"},
      {"taipei.bus.binary",
       "SELECT timestamp FROM taipei WHERE class = 'bus' "
       "FNR WITHIN 0.01 FPR WITHIN 0.01"},
      {"night-street.car.agg",
       "SELECT FCOUNT(*) FROM night-street WHERE class = 'car' "
       "ERROR WITHIN 0.1 AT CONFIDENCE 95%"},
      {"rialto.boat.agg",
       "SELECT FCOUNT(*) FROM rialto WHERE class = 'boat' "
       "ERROR WITHIN 0.1 AT CONFIDENCE 95%"},
      {"grand-canal.boat.agg",
       "SELECT FCOUNT(*) FROM grand-canal WHERE class = 'boat' "
       "ERROR WITHIN 0.1 AT CONFIDENCE 95%"},
      {"amsterdam.car.agg",
       "SELECT FCOUNT(*) FROM amsterdam WHERE class = 'car' "
       "ERROR WITHIN 0.1 AT CONFIDENCE 95%"},
      {"archie.car.select",
       "SELECT * FROM archie WHERE class = 'car' "
       "AND redness(content) >= 0.25 AND area(mask) > 20000 "
       "GROUP BY trackid HAVING COUNT(*) > 15"},
  };
  return t;
}

/// Every PlanKind, on the warm store with the sketch index on. Eleven
/// templates, so the pooled p90 falls inside one template's latencies
/// rather than on the boundary between two.
const std::vector<Template>& WarmTemplates() {
  static const std::vector<Template> t = {
      {"agg.taipei.car",
       "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' "
       "ERROR WITHIN 0.1 AT CONFIDENCE 95%"},
      {"agg.night-street.car",
       "SELECT FCOUNT(*) FROM night-street WHERE class = 'car' "
       "ERROR WITHIN 0.1 AT CONFIDENCE 95%"},
      {"agg.grand-canal.boat",
       "SELECT FCOUNT(*) FROM grand-canal WHERE class = 'boat' "
       "ERROR WITHIN 0.1 AT CONFIDENCE 95%"},
      {"agg.archie.car",
       "SELECT FCOUNT(*) FROM archie WHERE class = 'car' "
       "ERROR WITHIN 0.1 AT CONFIDENCE 95%"},
      {"agg.aqp.rialto.car",
       "SELECT FCOUNT(*) FROM rialto WHERE class = 'car' "
       "ERROR WITHIN 0.1 AT CONFIDENCE 95%"},
      {"scrub.importance.taipei.car",
       "SELECT timestamp FROM taipei GROUP BY timestamp "
       "HAVING SUM(class='car') >= 2 LIMIT 10 GAP 300"},
      {"scrub.scan.taipei.bus",
       "SELECT timestamp FROM taipei GROUP BY timestamp "
       "HAVING SUM(class='bus') >= 3 LIMIT 5 GAP 100"},
      {"select.taipei.bus",
       "SELECT * FROM taipei WHERE class = 'bus' "
       "AND redness(content) >= 0.25 AND area(mask) > 20000 "
       "GROUP BY trackid HAVING COUNT(*) > 15"},
      {"binary.taipei.bus",
       "SELECT timestamp FROM taipei WHERE class = 'bus' "
       "FNR WITHIN 0.01 FPR WITHIN 0.01"},
      {"distinct.taipei.car",
       "SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class = 'car'"},
      {"fullscan.taipei.bus",
       "SELECT timestamp FROM taipei WHERE class = 'bus' "
       "AND timestamp >= 30"},
  };
  return t;
}

/// Served mix: templates overlap in (stream, class), so admission windows
/// coalesce across tenants.
const std::vector<Template>& ServedTemplates() {
  static const std::vector<Template> t = {
      {"agg.taipei.car.e10",
       "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' "
       "ERROR WITHIN 0.1 AT CONFIDENCE 95%"},
      {"agg.taipei.car.e05",
       "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' "
       "ERROR WITHIN 0.05 AT CONFIDENCE 95%"},
      {"agg.night-street.car",
       "SELECT FCOUNT(*) FROM night-street WHERE class = 'car' "
       "ERROR WITHIN 0.1 AT CONFIDENCE 95%"},
      {"scrub.taipei.car.l10",
       "SELECT timestamp FROM taipei GROUP BY timestamp "
       "HAVING SUM(class='car') >= 2 LIMIT 10 GAP 300"},
      {"scrub.taipei.car.l5",
       "SELECT timestamp FROM taipei GROUP BY timestamp "
       "HAVING SUM(class='car') >= 2 LIMIT 5 GAP 50"},
      {"select.taipei.bus",
       "SELECT * FROM taipei WHERE class = 'bus' "
       "AND redness(content) >= 0.25 AND area(mask) > 20000 "
       "GROUP BY trackid HAVING COUNT(*) > 15"},
      {"binary.taipei.bus",
       "SELECT timestamp FROM taipei WHERE class = 'bus' "
       "FNR WITHIN 0.01 FPR WITHIN 0.01"},
      {"fullscan.taipei.bus",
       "SELECT timestamp FROM taipei WHERE class = 'bus' "
       "AND timestamp >= 30"},
  };
  return t;
}

uint64_t StoreFingerprint() {
  Fingerprint fp;
  fp.Mix("perfbench-warm-store-v1");
  for (const StreamConfig& cfg : AllStreamConfigs()) {
    fp.Mix(cfg.name).Mix(ConfigFingerprint(cfg));
  }
  const DayLengths d = CiDays();
  fp.Mix(d.train).Mix(d.held_out).Mix(d.test);
  const SpecializedNNConfig nn = BenchNN();
  fp.Mix(nn.raster_width).Mix(nn.raster_height).MixRange(nn.hidden_dims);
  fp.Mix(nn.max_train_frames).Mix(nn.min_classes);
  fp.Mix(kDerivedArtifactEpoch);
  for (const auto* set : {&WarmTemplates(), &ServedTemplates()}) {
    for (const Template& t : *set) fp.Mix(t.sql);
  }
  return fp.value();
}

// ---------------------------------------------------------------------------
// Small utilities.
// ---------------------------------------------------------------------------

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "e2e_bench: %s\n", msg.c_str());
  std::exit(2);
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Sec(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Deterministic generator for workload inputs (splitmix64).
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Next() % i]);
    }
  }

 private:
  uint64_t s_;
};

std::vector<int> Iota(int n) {
  std::vector<int> v(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<size_t>(i)] = i;
  return v;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int PoolSize() { return std::max(1, std::min(kMaxPool, Nproc())); }

double DirMb(const std::string& dir) {
  uintmax_t bytes = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += e.file_size(ec);
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

int64_t CounterValue(const obs::MetricsSnapshot& snap,
                     const std::string& name) {
  const auto* e = snap.Find(name);
  return e == nullptr ? 0 : e->value;
}

obs::MetricsSnapshot Registry() {
  return obs::MetricsRegistry::Global().Snapshot();
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Benchmark-side spans: one record per layer call, kept in memory and
// written as Chrome trace JSON at the end of a traced run. Spans of one
// query share its id (the Chrome "tid", so each query is one row).
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t query_id = 0;
    int parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kProcessStart)
        .count();
  }

  int Open(const std::string& name, int64_t query_id, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, query_id, parent, Now(), -1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int index) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = Now();
  }
  int Add(const std::string& name, int64_t query_id, int parent,
          int64_t start_ns, int64_t end_ns) {
    if (!enabled_) return -1;
    spans_.push_back({name, query_id, parent, start_ns, end_ns});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Imports an engine QueryTrace under `parent`, anchored at `base_ns`.
  void Import(const obs::QueryTrace& trace, int64_t query_id, int parent,
              int64_t base_ns) {
    if (!enabled_) return;
    const auto spans = trace.spans();
    std::vector<int> mapped(spans.size(), parent);
    for (size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      const int p = s.parent >= 0 ? mapped[static_cast<size_t>(s.parent)]
                                  : parent;
      mapped[i] = Add("engine." + s.name, query_id, p, base_ns + s.start_ns,
                      base_ns + s.end_ns);
    }
  }

  size_t size() const { return spans_.size(); }

  std::string ToChromeJson() const {
    std::string out = "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const int64_t end = s.end_ns < 0 ? s.start_ns : s.end_ns;
      if (i > 0) out += ",\n";
      out += "{\"name\":\"" + JsonEscape(s.name) +
             "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
             std::to_string(s.query_id) +
             ",\"ts\":" + Fmt(static_cast<double>(s.start_ns) / 1e3) +
             ",\"dur\":" + Fmt(static_cast<double>(end - s.start_ns) / 1e3) +
             ",\"args\":{\"span\":" + std::to_string(i) +
             ",\"parent\":" + std::to_string(s.parent) +
             ",\"query_id\":" + std::to_string(s.query_id) + "}}";
    }
    out += "],\"displayTimeUnit\":\"ms\"}\n";
    return out;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Output checks.
// ---------------------------------------------------------------------------

uint64_t OutputDigest(const QueryOutput& o) {
  Fingerprint fp;
  fp.Mix(static_cast<int>(o.kind)).Mix(static_cast<int>(o.plan));
  fp.Mix(o.scalar).MixRange(o.frames);
  fp.Mix(static_cast<uint64_t>(o.rows.size()));
  for (const SelectionRow& r : o.rows) {
    fp.Mix(r.frame).Mix(r.detection.class_id).Mix(r.detection.score);
    fp.Mix(r.detection.rect.xmin).Mix(r.detection.rect.ymin);
    fp.Mix(r.detection.rect.xmax).Mix(r.detection.rect.ymax);
  }
  fp.Mix(o.cost.detection_calls()).Mix(o.cost.specialized_nn_calls());
  fp.Mix(o.cost.filter_calls()).Mix(o.cost.training_frames());
  fp.Mix(o.cost.TotalSeconds());
  return fp.value();
}

/// What a template's answers are checked against, derived once from the
/// test day's labels.
struct TemplateInfo {
  std::string name;
  std::string sql;
  PreparedQuery prepared;
  FrameWindow window;
  bool is_aggregate = false;
  double truth = 0.0;  // aggregates: frame-averaged count over the window
  double epsilon = 0.0;
};

TemplateInfo Describe(BlazeItEngine* engine, const Template& t) {
  TemplateInfo info;
  info.name = t.name;
  info.sql = t.sql;
  auto prepared = engine->Prepare(t.sql);
  if (!prepared.ok()) {
    Die(std::string("prepare ") + t.name + ": " +
        prepared.status().ToString());
  }
  info.prepared = prepared.value();
  const StreamData* stream = info.prepared.stream;
  const AnalyzedQuery& q = info.prepared.query;
  auto window = ResolveFrameWindow(q, stream->config.fps,
                                   stream->test_day->num_frames());
  if (!window.ok()) Die("window of " + info.name);
  info.window = window.value();
  if (q.kind == QueryKind::kAggregate && !q.scale_to_total) {
    const std::vector<int>& counts = stream->test_labels->Counts(q.agg_class);
    double sum = 0.0;
    for (int64_t f = info.window.begin; f < info.window.end; ++f) {
      sum += counts[static_cast<size_t>(f)];
    }
    info.is_aggregate = true;
    info.truth = sum / static_cast<double>(
                           std::max<int64_t>(1, info.window.end -
                                                    info.window.begin));
    info.epsilon = q.error;
  }
  return info;
}

bool SameDetection(const Detection& a, const Detection& b) {
  return a.class_id == b.class_id && a.score == b.score &&
         a.rect.xmin == b.rect.xmin && a.rect.ymin == b.rect.ymin &&
         a.rect.xmax == b.rect.xmax && a.rect.ymax == b.rect.ymax;
}

/// Re-verifies every returned frame/row against the test day's labels.
/// Returns an empty string when the output holds.
std::string VerifyAgainstLabels(const TemplateInfo& info,
                                const QueryOutput& out) {
  const StreamData* stream = info.prepared.stream;
  const AnalyzedQuery& q = info.prepared.query;
  const LabeledSet& labels = *stream->test_labels;
  auto in_window = [&](int64_t f) {
    return f >= info.window.begin && f < info.window.end;
  };
  switch (q.kind) {
    case QueryKind::kAggregate:
    case QueryKind::kCountDistinct:
      if (!std::isfinite(out.scalar) || out.scalar < 0) {
        return "non-finite or negative answer";
      }
      return "";
    case QueryKind::kScrubbing:
      if (static_cast<int64_t>(out.frames.size()) > q.limit) {
        return "more frames than LIMIT";
      }
      for (int64_t f : out.frames) {
        if (!in_window(f)) return "frame outside the window";
        for (const ClassCountRequirement& r : q.requirements) {
          if (labels.Counts(r.class_id)[static_cast<size_t>(f)] <
              r.min_count) {
            return "frame " + std::to_string(f) + " fails its HAVING clause";
          }
        }
      }
      return "";
    case QueryKind::kSelection:
      for (const SelectionRow& row : out.rows) {
        if (!in_window(row.frame)) return "row outside the window";
        if (row.detection.class_id != q.sel_class) return "row of wrong class";
        bool found = false;
        for (const Detection& d : labels.DetectionsAt(row.frame)) {
          found = found || SameDetection(d, row.detection);
        }
        if (!found) {
          return "row at frame " + std::to_string(row.frame) +
                 " is not a labeled detection";
        }
      }
      return "";
    case QueryKind::kBinarySelect:
    case QueryKind::kExhaustive:
      for (int64_t f : out.frames) {
        if (!in_window(f)) return "frame outside the window";
        if (q.sel_class >= 0 &&
            labels.Counts(q.sel_class)[static_cast<size_t>(f)] <= 0) {
          return "frame " + std::to_string(f) + " has no labeled instance";
        }
      }
      return "";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Per-query records and their end-to-end metrics.
// ---------------------------------------------------------------------------

struct QueryRecord {
  int tmpl = 0;
  int pass = 0;  // closed loops: index into Phase::pass_s
  bool ok = false;
  double latency_ms = 0.0;
  double sim_s = 0.0;
  bool scored = false;
  bool within_eps = false;
  // Traced runs only: engine report spans summed by name (ms), charges.
  std::map<std::string, double> span_ms;
  int64_t detect_charged = 0;
  int64_t filter_charged = 0;
};

struct Phase {
  std::vector<QueryRecord> queries;
  double wall_s = 0.0;  // timed phase wall (query execution only)
  /// Closed loops run in whole passes (every template once, seeded
  /// order). Their timings come from the fastest quarter of the passes (at
  /// least two): on a shared VM, host interference arrives in episodes of
  /// seconds to tens of seconds that slow every query by up to 1.4x and
  /// never speed one up, and the share of a run they cover is what made
  /// whole-run medians unsteady. A code change slows every pass alike, so
  /// the filter keeps it.
  std::vector<double> pass_s;
  int pass_queries = 0;
  double cpu_s = 0.0;
  /// Traced runs: registry counters (histograms as "<name>.sum")
  /// accumulated over the engine calls only, not the answer checks.
  std::map<std::string, int64_t> counters;
  int64_t failed = 0;  // errored, rejected, cancelled or shed
  std::vector<std::string> mismatches;  // wrong answers

  void Fail(const std::string& why) {
    ++failed;
    std::fprintf(stderr, "FAILED %s\n", why.c_str());
  }

  int64_t completed() const {
    int64_t n = 0;
    for (const auto& q : queries) n += q.ok ? 1 : 0;
    return n;
  }
  /// The fastest quarter of the passes, at least two (all of them for
  /// the open loop, which has none).
  std::vector<bool> QuietPasses() const {
    std::vector<bool> quiet(std::max<size_t>(1, pass_s.size()), true);
    if (pass_s.empty()) return quiet;
    std::vector<double> sorted = pass_s;
    std::sort(sorted.begin(), sorted.end());
    const size_t keep =
        std::min(sorted.size(), std::max<size_t>(2, (sorted.size() + 3) / 4));
    for (size_t i = 0; i < pass_s.size(); ++i) {
      quiet[i] = pass_s[i] <= sorted[keep - 1];
    }
    return quiet;
  }
  int QuietCount() const {
    int n = 0;
    for (bool q : QuietPasses()) n += q ? 1 : 0;
    return n;
  }
  /// Completed queries whose latency counts (those of quiet passes).
  std::vector<const QueryRecord*> Timed() const {
    const std::vector<bool> quiet = QuietPasses();
    std::vector<const QueryRecord*> out;
    for (const auto& q : queries) {
      if (q.ok && quiet[static_cast<size_t>(q.pass)]) out.push_back(&q);
    }
    return out;
  }
  /// Stamps the records appended since `first` with the pass just ended.
  void EndPass(size_t first, double seconds) {
    for (size_t i = first; i < queries.size(); ++i) {
      queries[i].pass = static_cast<int>(pass_s.size());
    }
    pass_s.push_back(seconds);
  }
  double qps() const {
    if (pass_s.empty()) {
      return wall_s > 0 ? static_cast<double>(completed()) / wall_s : 0.0;
    }
    const std::vector<bool> quiet = QuietPasses();
    double secs = 0.0;
    int n = 0;
    for (size_t i = 0; i < pass_s.size(); ++i) {
      if (!quiet[i]) continue;
      secs += pass_s[i];
      n += pass_queries;
    }
    return n / secs;
  }
  /// Geometric mean over templates of each template's median latency.
  double P50GeoMs(int* templates_used = nullptr) const {
    std::map<int, std::vector<double>> by;
    for (const QueryRecord* q : Timed()) by[q->tmpl].push_back(q->latency_ms);
    double log_sum = 0.0;
    for (const auto& [t, v] : by) log_sum += std::log(Median(v));
    if (templates_used != nullptr) *templates_used = static_cast<int>(by.size());
    return by.empty() ? 0.0
                      : std::exp(log_sum / static_cast<double>(by.size()));
  }
  std::vector<double> Latencies() const {
    std::vector<double> v;
    for (const QueryRecord* q : Timed()) v.push_back(q->latency_ms);
    return v;
  }
  double SimMean() const {
    std::vector<double> v;
    for (const auto& q : queries) {
      if (q.ok) v.push_back(q.sim_s);
    }
    return Mean(v);
  }
  double WithinEpsShare(int* scored = nullptr) const {
    int n = 0, hit = 0;
    for (const auto& q : queries) {
      if (q.ok && q.scored) {
        ++n;
        hit += q.within_eps ? 1 : 0;
      }
    }
    if (scored != nullptr) *scored = n;
    return n == 0 ? 0.0 : static_cast<double>(hit) / n;
  }
  double SpanMsPerQuery(const std::string& key) const {
    double s = 0.0;
    int64_t n = 0;
    for (const auto& q : queries) {
      if (!q.ok) continue;
      ++n;
      auto it = q.span_ms.find(key);
      if (it != q.span_ms.end()) s += it->second;
    }
    return n == 0 ? 0.0 : s / static_cast<double>(n);
  }
  /// A counter; a trailing '{' sums every labelled variant.
  int64_t Counter(const std::string& name) const {
    int64_t sum = 0;
    for (const auto& [k, v] : counters) {
      if (k == name || (name.back() == '{' && k.rfind(name, 0) == 0)) {
        sum += v;
      }
    }
    return sum;
  }
  void Accumulate(const obs::MetricsSnapshot& before) {
    for (const auto& e : Registry().DeltaFrom(before).entries) {
      if (e.kind == obs::MetricsSnapshot::Kind::kCounter) {
        counters[e.name] += e.value;
      } else if (e.kind == obs::MetricsSnapshot::Kind::kHistogram) {
        counters[e.name + ".sum"] += e.sum;
      }
    }
  }
};

/// Engine report span name -> per-layer key.
const char* SpanKey(const std::string& name) {
  if (name == "train") return "train";
  if (name == "sweep" || name == "test-sweep") return "sweep";
  if (name == "holdout-bootstrap") return "bootstrap";
  if (name == "verify") return "verify";
  if (name == "scan") return "scan";
  return nullptr;
}

void SumReportSpans(const QueryOutput& out, QueryRecord* rec) {
  if (out.report == nullptr || out.report->trace == nullptr) return;
  for (const auto& s : out.report->trace->spans()) {
    if (const char* key = SpanKey(s.name)) {
      rec->span_ms[key] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
}

/// Checks one answer and fills the record's score; `reference` is the
/// digest of a serial Execute of the same template (0 = record it).
void CheckAnswer(const TemplateInfo& info, const QueryOutput& out,
                 uint64_t* reference, QueryRecord* rec, Phase* phase) {
  const uint64_t digest = OutputDigest(out);
  if (*reference == 0) {
    *reference = digest;
  } else if (digest != *reference) {
    phase->mismatches.push_back(info.name +
                                ": answer differs from the serial Execute");
  }
  const std::string why = VerifyAgainstLabels(info, out);
  if (!why.empty()) phase->mismatches.push_back(info.name + ": " + why);
  rec->sim_s = out.cost.TotalSeconds();
  rec->detect_charged = out.cost.detection_calls();
  rec->filter_charged = out.cost.filter_calls();
  if (info.is_aggregate) {
    rec->scored = true;
    rec->within_eps = std::fabs(out.scalar - info.truth) <= info.epsilon;
  }
  SumReportSpans(out, rec);
}

/// Executes one template through BlazeItEngine::Execute (closed loop),
/// appends its record to `phase`, and returns the output for checking.
std::optional<QueryOutput> ExecuteTimed(BlazeItEngine* engine,
                                        const TemplateInfo& info, int tmpl,
                                        SpanLog* spans, int64_t query_id,
                                        Phase* phase) {
  QueryRecord rec;
  rec.tmpl = tmpl;
  const int root = spans->Open("query " + info.name, query_id);
  const int exec_span = spans->Open("core.execute", query_id, root);
  const int64_t exec_start = SpanLog::Now();
  const obs::MetricsSnapshot before =
      spans->enabled() ? Registry() : obs::MetricsSnapshot();
  const Clock::time_point t0 = Clock::now();
  auto out = engine->Execute(info.sql);
  rec.latency_ms = Ms(Clock::now() - t0);
  if (spans->enabled()) phase->Accumulate(before);
  spans->Close(exec_span);
  spans->Close(root);
  rec.ok = out.ok();
  phase->queries.push_back(std::move(rec));
  if (!out.ok()) {
    phase->Fail(info.name + ": " + out.status().ToString());
    return std::nullopt;
  }
  if (out.value().report != nullptr && out.value().report->trace) {
    spans->Import(*out.value().report->trace, query_id, exec_span,
                  exec_start);
  }
  return std::move(out).value();
}

/// ExecuteTimed, then the answer checks.
void RunOne(BlazeItEngine* engine, const TemplateInfo& info, int tmpl,
            uint64_t* reference, SpanLog* spans, int64_t query_id,
            Phase* phase) {
  auto out = ExecuteTimed(engine, info, tmpl, spans, query_id, phase);
  if (out) CheckAnswer(info, *out, reference, &phase->queries.back(), phase);
}

// ---------------------------------------------------------------------------
// Catalog set-up.
// ---------------------------------------------------------------------------

struct Setup {
  std::unique_ptr<VideoCatalog> catalog;
  std::unique_ptr<BlazeItEngine> engine;
  double open_ms = 0.0;
};

void OpenCatalog(const std::string& store_dir, EngineOptions options,
                 Setup* s, SpanLog* spans, int64_t query_id) {
  s->engine.reset();
  s->catalog.reset();
  s->catalog = std::make_unique<VideoCatalog>();
  const int open_span = spans->Open("storage.open", query_id);
  Clock::time_point t0 = Clock::now();
  Status st = s->catalog->EnableDetectionStore(store_dir);
  if (!st.ok()) Die("EnableDetectionStore: " + st.ToString());
  s->open_ms = Ms(Clock::now() - t0);
  spans->Close(open_span);
  const int reg_span = spans->Open("video.register_streams", query_id);
  for (const StreamConfig& cfg : AllStreamConfigs()) {
    st = s->catalog->AddStream(cfg, CiDays());
    if (!st.ok()) Die("AddStream(" + cfg.name + "): " + st.ToString());
  }
  spans->Close(reg_span);
  s->engine = std::make_unique<BlazeItEngine>(s->catalog.get(), options);
}

void CloseCatalog(Setup* s) {
  s->engine.reset();
  s->catalog.reset();
}

std::vector<TemplateInfo> DescribeAll(BlazeItEngine* engine,
                                      const std::vector<Template>& ts) {
  std::vector<TemplateInfo> out;
  for (const Template& t : ts) out.push_back(Describe(engine, t));
  return out;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct RunContext {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string store_dir;  // warm store (a private copy for this run)
  std::string work_dir;   // scratch for cold stores
  std::string trace_out;
  int64_t next_query_id = 1;
};

struct ColdResult {
  Phase phase;
  std::vector<double> setup_s;
  std::vector<double> store_mb;
  std::vector<double> flush_ms;
  int64_t detector_computed = 0;
  int64_t detector_store_hits = 0;
  int rounds = 0;
};

/// Runs whole rounds (every cold template once, seeded order, each round
/// on a fresh empty store) until `seconds` of query time have passed, at
/// least `min_rounds`. Setup of each round is timed separately.
void RunCold(RunContext* ctx, double seconds, int min_rounds, bool traced,
             SpanLog* spans, ColdResult* res) {
  Rng rng(ctx->seed * 1000003 + 17);
  const auto& ts = ColdTemplates();
  std::vector<uint64_t> refs(ts.size(), 0);
  while (res->rounds < min_rounds || res->phase.wall_s < seconds) {
    const std::string dir =
        ctx->work_dir + "/cold-" + std::to_string(res->rounds);
    std::error_code ec;
    fs::remove_all(dir, ec);
    Setup setup;
    const Clock::time_point s0 = SetupStart();
    OpenCatalog(dir, MakeOptions(false, traced), &setup, spans, 0);
    std::vector<TemplateInfo> infos;
    for (const Template& t : ts) {
      // Prepare binds the stream only; labels are read lazily below,
      // after the query ran (the first touch stays the query's own).
      auto p = setup.engine->Prepare(t.sql);
      if (!p.ok()) Die(std::string("prepare ") + t.name);
      TemplateInfo info;
      info.name = t.name;
      info.sql = t.sql;
      info.prepared = p.value();
      infos.push_back(std::move(info));
    }
    res->setup_s.push_back(Sec(Clock::now() - s0));

    std::vector<int> order = Iota(static_cast<int>(ts.size()));
    rng.Shuffle(&order);
    const double round_cpu0 = CpuSeconds();
    const size_t first = res->phase.queries.size();
    const Clock::time_point r0 = Clock::now();
    std::vector<std::pair<size_t, QueryOutput>> outputs;
    for (int i : order) {
      auto out = ExecuteTimed(setup.engine.get(),
                              infos[static_cast<size_t>(i)], i, spans,
                              ctx->next_query_id++, &res->phase);
      if (out) {
        outputs.emplace_back(res->phase.queries.size() - 1, std::move(*out));
      }
    }
    const int flush_span = spans->Open("storage.flush", 0);
    const obs::MetricsSnapshot before = Registry();
    const Clock::time_point f0 = Clock::now();
    Status st = setup.catalog->FlushDetectionStore();
    if (!st.ok()) Die("flush: " + st.ToString());
    res->flush_ms.push_back(Ms(Clock::now() - f0));
    res->phase.Accumulate(before);
    spans->Close(flush_span);
    const double round_s = Sec(Clock::now() - r0);
    const double round_cpu = CpuSeconds() - round_cpu0;
    res->phase.wall_s += round_s;
    res->phase.cpu_s += round_cpu;
    res->phase.EndPass(first, round_s);
    res->phase.pass_queries = static_cast<int>(ts.size());
    std::fprintf(stderr, "cold round %d: %.3f s wall, %.3f s cpu\n",
                 res->rounds, round_s, round_cpu);
    res->store_mb.push_back(DirMb(dir));
    for (const std::string& name : setup.catalog->StreamNames()) {
      auto* d = dynamic_cast<PersistentCachedDetector*>(
          setup.catalog->GetStream(name).value()->detector.get());
      if (d != nullptr) {
        res->detector_computed += d->store_misses();
        res->detector_store_hits += d->store_hits();
      }
    }

    // Checks run after the timed round (they read whole label days).
    for (auto& [idx, out] : outputs) {
      QueryRecord& rec = res->phase.queries[static_cast<size_t>(idx)];
      const int t = rec.tmpl;
      TemplateInfo full = Describe(setup.engine.get(), ts[static_cast<size_t>(t)]);
      CheckAnswer(full, out, &refs[static_cast<size_t>(t)], &rec, &res->phase);
    }
    CloseCatalog(&setup);
    fs::remove_all(dir, ec);
    ++res->rounds;
  }
}

struct WarmSetup {
  Setup setup;
  std::vector<TemplateInfo> infos;
  std::vector<uint64_t> refs;
  std::vector<double> setup_s;
  double open_ms = 0.0;
  int64_t crc_validated = 0;
};

/// Opens the warm store, registers the streams, and makes one untimed
/// serial pass over `ts` (filling caches and recording each template's
/// reference digest). Repeated `reps` times; the last set-up is kept.
void SetUpWarm(RunContext* ctx, const std::vector<Template>& ts, int reps,
               bool traced, SpanLog* spans, WarmSetup* w) {
  std::vector<double> open_ms;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point s0 = SetupStart();
    const obs::MetricsSnapshot before = Registry();
    OpenCatalog(ctx->store_dir, MakeOptions(true, traced), &w->setup, spans,
                0);
    w->crc_validated = CounterValue(Registry().DeltaFrom(before),
                                    "store.records_crc_validated");
    open_ms.push_back(w->setup.open_ms);
    w->infos = DescribeAll(w->setup.engine.get(), ts);
    if (w->refs.empty()) w->refs.assign(ts.size(), 0);
    Phase scratch;
    for (size_t i = 0; i < ts.size(); ++i) {
      RunOne(w->setup.engine.get(), w->infos[i], static_cast<int>(i),
             &w->refs[i], spans, 0, &scratch);
    }
    if (scratch.failed > 0 || !scratch.mismatches.empty()) {
      Die("untimed pass failed: " + (scratch.mismatches.empty()
                                         ? std::string("see FAILED above")
                                         : scratch.mismatches.front()));
    }
    w->setup_s.push_back(Sec(Clock::now() - s0));
  }
  w->open_ms = Median(open_ms);
}

/// Closed loop over whole seeded-shuffle passes of the warm templates
/// until `seconds` have passed.
void RunWarm(RunContext* ctx, WarmSetup* w, double seconds, SpanLog* spans,
             Phase* phase) {
  Rng rng(ctx->seed * 7919 + 3);
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  std::vector<int> order = Iota(static_cast<int>(w->infos.size()));
  phase->pass_queries = static_cast<int>(order.size());
  do {
    rng.Shuffle(&order);
    const size_t first = phase->queries.size();
    double pass_ms = 0.0;  // engine time only, not the answer checks
    for (int i : order) {
      RunOne(w->setup.engine.get(), w->infos[static_cast<size_t>(i)], i,
             &w->refs[static_cast<size_t>(i)], spans, ctx->next_query_id++,
             phase);
      pass_ms += phase->queries.back().latency_ms;
    }
    phase->EndPass(first, pass_ms / 1e3);
  } while (Sec(Clock::now() - t0) < seconds);
  phase->wall_s = Sec(Clock::now() - t0);
  phase->cpu_s = CpuSeconds() - cpu0;
}

struct ServedResult {
  Phase phase;
  serve::ServerStats stats;
  std::vector<double> lag_ms;
  std::vector<double> queue_wait_ms;  // traced runs: admitted -> executing
  std::vector<double> queue_wait_ticks;
  std::vector<double> exec_ms;
  int64_t arrivals = 0;
};

/// Open loop: `rate * seconds` arrivals at the order statistics of
/// uniform times over [0, seconds) — a Poisson process conditioned on its
/// count, so every seed offers the same load. Templates and tenants are
/// dealt round-robin from per-cycle shuffles. Latency is completion time
/// minus the time the query was due.
void RunServed(RunContext* ctx, WarmSetup* w, double seconds, SpanLog* spans,
               ServedResult* res) {
  Rng rng(ctx->seed * 104729 + 11);
  // Whole cycles of the templates, so every seed offers the same mix.
  const int nt = static_cast<int>(w->infos.size());
  const int64_t n =
      nt * std::max<int64_t>(1, std::llround(kServedRate * seconds / nt));
  res->arrivals = n;
  std::vector<double> due(static_cast<size_t>(n));
  for (double& d : due) d = rng.Uniform() * seconds;
  std::sort(due.begin(), due.end());
  std::vector<int> tmpl, tenant;
  std::vector<int> cycle_t = Iota(nt), cycle_c = Iota(kTenants);
  for (int64_t i = 0; i < n; ++i) {
    if (i % nt == 0) rng.Shuffle(&cycle_t);
    if (i % kTenants == 0) rng.Shuffle(&cycle_c);
    tmpl.push_back(cycle_t[static_cast<size_t>(i % nt)]);
    tenant.push_back(cycle_c[static_cast<size_t>(i % kTenants)]);
  }

  serve::ServeOptions options;
  options.window_ticks = 1;
  options.wall_clock_tick_ms = kTickMs;
  options.shed_depth = -1;
  options.max_queue_depth = 1024;
  options.per_client_quota = 256;
  const double cpu0 = CpuSeconds();
  std::map<int64_t, int64_t> by_ticket;  // ticket -> arrival index
  std::vector<int64_t> qids(static_cast<size_t>(n), 0);
  std::vector<int> roots(static_cast<size_t>(n), -1);
  std::vector<int64_t> submit_ns(static_cast<size_t>(n), 0);
  int64_t last_completion_ns = 0;
  {
    serve::AdmissionQueue queue(w->setup.engine.get(), options);
    const Clock::time_point t0 = Clock::now();
    auto at = [&](double s) {
      return t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s));
    };
    const Clock::time_point give_up = at(seconds + 120.0);
    int64_t next = 0;
    while (next < n || !by_ticket.empty()) {
      Clock::time_point now = Clock::now();
      while (next < n && now >= at(due[static_cast<size_t>(next)])) {
        const size_t i = static_cast<size_t>(next);
        const int64_t qid = ctx->next_query_id++;
        qids[i] = qid;
        roots[i] = spans->Add("query " + w->infos[static_cast<size_t>(
                                             tmpl[i])].name,
                              qid, -1,
                              SpanLog::Now() - static_cast<int64_t>(
                                  Ms(now - at(due[i])) * 1e6),
                              -1);
        const int submit = spans->Open("serve.submit", qid, roots[i]);
        submit_ns[i] = SpanLog::Now();
        auto ticket = queue.Submit(
            "tenant-" + std::to_string(tenant[i]),
            w->infos[static_cast<size_t>(tmpl[i])].sql);
        spans->Close(submit);
        res->lag_ms.push_back(Ms(now - at(due[i])));
        if (!ticket.ok()) {
          QueryRecord rec;
          rec.tmpl = tmpl[i];
          res->phase.queries.push_back(rec);
          res->phase.Fail("submit rejected: " + ticket.status().ToString());
        } else {
          by_ticket[ticket.value()] = next;
        }
        ++next;
        now = Clock::now();
      }
      for (serve::ServeResponse& r : queue.TakeCompleted()) {
        const Clock::time_point done = Clock::now();
        auto it = by_ticket.find(r.ticket);
        if (it == by_ticket.end()) continue;
        const size_t i = static_cast<size_t>(it->second);
        by_ticket.erase(it);
        const int t = tmpl[i];
        const TemplateInfo& info = w->infos[static_cast<size_t>(t)];
        QueryRecord rec;
        rec.tmpl = t;
        rec.latency_ms = Ms(done - at(due[i]));
        last_completion_ns = SpanLog::Now();
        if (roots[i] >= 0) {
          spans->Close(roots[i]);
        }
        if (!r.output.ok() || r.degraded) {
          res->phase.Fail(info.name + ": " +
                          (r.degraded ? std::string("shed")
                                      : r.output.status().ToString()));
        } else {
          rec.ok = true;
          CheckAnswer(info, r.output.value(),
                      &w->refs[static_cast<size_t>(t)], &rec, &res->phase);
          res->queue_wait_ticks.push_back(
              static_cast<double>(r.executed_tick - r.admitted_tick));
          const auto& report = r.output.value().report;
          if (report != nullptr && report->trace != nullptr) {
            // Parse/analyze run at Submit; the root spans after them are
            // the execution. The gap between the two is the queue wait.
            int64_t admitted = 0, lo = -1, hi = -1;
            for (const auto& s : report->trace->spans()) {
              if (s.parent >= 0) continue;
              if (s.name == "parse" || s.name == "analyze") {
                admitted = std::max(admitted, s.end_ns);
                continue;
              }
              lo = lo < 0 ? s.start_ns : std::min(lo, s.start_ns);
              hi = std::max(hi, s.end_ns);
            }
            if (lo >= admitted && hi >= lo) {
              res->queue_wait_ms.push_back(
                  static_cast<double>(lo - admitted) / 1e6);
              res->exec_ms.push_back(static_cast<double>(hi - lo) / 1e6);
            }
            spans->Import(*report->trace, qids[i], roots[i], submit_ns[i]);
          }
        }
        res->phase.queries.push_back(std::move(rec));
      }
      if (Clock::now() > give_up) {
        for (const auto& [ticket, idx] : by_ticket) {
          (void)queue.Cancel(ticket);
          QueryRecord rec;
          rec.tmpl = tmpl[static_cast<size_t>(idx)];
          res->phase.queries.push_back(rec);
          res->phase.Fail("query did not complete in time");
        }
        by_ticket.clear();
        break;
      }
      Clock::time_point wake = Clock::now() + std::chrono::microseconds(500);
      if (next < n) wake = std::min(wake, at(due[static_cast<size_t>(next)]));
      std::this_thread::sleep_until(wake);
    }
    res->phase.wall_s =
        static_cast<double>(last_completion_ns) / 1e9 -
        std::chrono::duration<double>(t0 - kProcessStart).count();
    res->stats = queue.stats();
  }
  res->phase.cpu_s = CpuSeconds() - cpu0;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;  // "lower" / "higher" / "" (per-layer: none)
  std::string base;    // sample count or ratio base
};

void PrintEnv(const RunContext& ctx, const std::string& extra) {
  const DayLengths d = CiDays();
  std::printf(
      "{\"env\":{\"nproc\":%d,\"pool\":%d,\"simd_tier\":\"%s\","
      "\"build_type\":\"%s\",\"workload\":\"%s\",\"seed\":%llu,"
      "\"seconds\":%s,\"trace\":%d,\"days\":{\"train\":%lld,"
      "\"held_out\":%lld,\"test\":%lld},\"offered_rate_qps\":%s,"
      "\"tenants\":%d,\"tick_ms\":%lld,\"store_fingerprint\":\"%016llx\"%s}}\n",
      Nproc(), PoolSize(), ActiveSimdTierName(), PERFBENCH_BUILD_TYPE,
      ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
      Fmt(ctx.seconds).c_str(), ctx.trace ? 1 : 0,
      static_cast<long long>(d.train), static_cast<long long>(d.held_out),
      static_cast<long long>(d.test), Fmt(kServedRate).c_str(), kTenants,
      static_cast<long long>(kTickMs),
      static_cast<unsigned long long>(StoreFingerprint()), extra.c_str());
}

int Finish(const RunContext& ctx, const std::vector<Metric>& metrics,
           int64_t attempted, int64_t failed,
           const std::vector<std::string>& mismatches) {
  std::printf("# %-34s %14s %-8s %-7s %s\n", "metric", "value", "unit",
              "better", "base");
  for (const Metric& m : metrics) {
    std::printf("# %-34s %14.6g %-8s %-7s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.better.empty() ? "-" : m.better.c_str(),
                m.base.c_str());
  }
  const bool correct = mismatches.empty();
  for (size_t i = 0; i < mismatches.size() && i < 20; ++i) {
    std::fprintf(stderr, "MISMATCH %s\n", mismatches[i].c_str());
  }
  std::printf("# workload=%s attempted=%lld failed=%lld correct=%s\n",
              ctx.workload.c_str(), static_cast<long long>(attempted),
              static_cast<long long>(failed), correct ? "true" : "false");
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

std::string N(int64_t n, const char* what = "queries") {
  return "n=" + std::to_string(n) + " " + what;
}

/// The eight end-to-end metrics of one phase.
std::vector<Metric> EndToEnd(const Phase& p, const std::vector<double>& setup,
                             double store_mb, bool open_loop) {
  std::vector<Metric> m;
  const auto lat = p.Latencies();
  int tmpl_used = 0;
  const double p50 = p.P50GeoMs(&tmpl_used);
  int scored = 0;
  const double eps_share = p.WithinEpsShare(&scored);
  m.push_back({"setup_s", Median(setup), "s", "lower",
               "median of " + std::to_string(setup.size()) + " set-ups"});
  m.push_back({"queries_per_s", p.qps(), "1/s", "higher",
               p.pass_s.empty()
                   ? N(p.completed()) + " over " + Fmt(p.wall_s) + " s"
                   : "fastest " + std::to_string(p.QuietCount()) + " of " +
                         std::to_string(p.pass_s.size()) + " passes of " +
                         std::to_string(p.pass_queries) + " queries"});
  m.push_back({"query_p50_ms", p50, "ms", "lower",
               "geomean of " + std::to_string(tmpl_used) +
                   " per-template medians, " + N(static_cast<int64_t>(lat.size())) +
                   (open_loop ? ", due-to-completion" : ", call duration")});
  m.push_back({"query_p90_ms", Quantile(lat, 0.9), "ms", "lower",
               "pooled, " + N(static_cast<int64_t>(lat.size())) +
                   (lat.size() < 100 ? " (fewer than 100)" : "")});
  m.push_back({"sim_s_per_query", p.SimMean(), "sim_s", "lower",
               "mean CostMeter total, " + N(p.completed())});
  m.push_back({"agg_within_eps_share", eps_share, "share", "higher",
               "of " + std::to_string(scored) + " aggregate answers"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB", "lower", "ru_maxrss"});
  m.push_back({"store_mb", store_mb, "MB", "lower", "store bytes on disk"});
  return m;
}

void WriteTrace(const RunContext& ctx, const SpanLog& spans) {
  if (ctx.trace_out.empty()) return;
  std::FILE* f = std::fopen(ctx.trace_out.c_str(), "w");
  if (f == nullptr) Die("cannot write " + ctx.trace_out);
  const std::string json = spans.ToChromeJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("# chrome trace: %s (%zu spans)\n", ctx.trace_out.c_str(),
              spans.size());
}

// ---------------------------------------------------------------------------
// Layer probes (traced run only): fixed inputs, timed directly.
// ---------------------------------------------------------------------------

struct Probes {
  double render_us = 0.0;
  double infer_us = 0.0;
  double detect_us = 0.0;
  double prepare_us = 0.0;
  double choose_plan_ms = 0.0;
  int64_t prepare_calls = 0;
  int64_t plan_calls = 0;
};

/// Median over 5 repetitions of the per-item time of `fn` (µs).
template <typename Fn>
double ProbeUs(int items, Fn fn) {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    reps.push_back(Ms(Clock::now() - t0) * 1e3 / items);
  }
  return Median(reps);
}

Probes RunProbes(WarmSetup* w, SpanLog* spans) {
  Probes p;
  auto stream = w->setup.catalog->GetStream("taipei");
  if (!stream.ok()) Die("no taipei stream");
  StreamData* s = stream.value();
  const SyntheticVideo& test = *s->test_day;
  constexpr int kFrames = 256;
  const SpecializedNNConfig nn = BenchNN();

  int span = spans->Open("probe video.RenderFrameFeatures", 0);
  std::vector<float> buf(static_cast<size_t>(nn.raster_width) *
                         nn.raster_height * kFeatureChannels);
  Image scratch;
  p.render_us = ProbeUs(kFrames, [&] {
    for (int64_t f = 0; f < kFrames; ++f) {
      RenderFrameFeatures(test, f, nn.raster_width, nn.raster_height,
                          buf.data(), &scratch);
    }
  });
  spans->Close(span);

  span = spans->Open("probe nn.SpecializedNN", 0);
  SpecializedNNConfig cfg = nn;
  cfg.max_train_frames = 2000;
  cfg.cache = nullptr;
  auto model = SpecializedNN::Train(*s->train_day,
                                    {s->train_labels->Counts(kCar)}, cfg);
  if (!model.ok()) Die("probe train: " + model.status().ToString());
  std::vector<int64_t> frames(kFrames);
  for (int i = 0; i < kFrames; ++i) frames[static_cast<size_t>(i)] = 1000 + i;
  p.infer_us = ProbeUs(kFrames, [&] {
    auto v = model.value().ExpectedCountsForFrames(test, frames);
    if (v.size() != frames.size()) Die("probe inference size");
  });
  spans->Close(span);

  span = spans->Open("probe detect.SimulatedDetector", 0);
  p.detect_us = ProbeUs(kFrames, [&] {
    for (int64_t f = 0; f < kFrames; ++f) {
      auto d = s->detector_impl->Detect(test, f);
      if (d.size() > 100000) Die("probe detect");
    }
  });
  spans->Close(span);

  span = spans->Open("probe frameql.Prepare+core.ChoosePlan", 0);
  constexpr int kPrepareReps = 20;
  std::vector<double> prep, plan;
  for (const TemplateInfo& info : w->infos) {
    for (int r = 0; r < kPrepareReps; ++r) {
      Clock::time_point t0 = Clock::now();
      auto pq = w->setup.engine->Prepare(info.sql);
      prep.push_back(Ms(Clock::now() - t0) * 1e3);
      if (!pq.ok()) Die("probe prepare");
      if (r < 3) {
        t0 = Clock::now();
        PlanChoice c = ChoosePlan(pq.value().query, pq.value().stream);
        plan.push_back(Ms(Clock::now() - t0));
        if (c.rationale.empty()) Die("probe plan");
      }
    }
  }
  spans->Close(span);
  p.prepare_us = Mean(prep);
  p.choose_plan_ms = Mean(plan);
  p.prepare_calls = static_cast<int64_t>(prep.size());
  p.plan_calls = static_cast<int64_t>(plan.size());
  return p;
}

/// Which end-to-end metric each per-layer metric should move, on which
/// workload — the prediction a change to that layer is judged against.
std::string Moves(const std::string& name) {
  static const std::map<std::string, std::string> kMoves = {
      {"frameql.prepare_us", "query_p50_ms@warm_mix (should stay negligible)"},
      {"core.choose_plan_ms", "query_p50_ms@warm_mix"},
      {"core.train_ms", "queries_per_s@cold_ingest"},
      {"core.sweep_ms", "queries_per_s@cold_ingest"},
      {"core.bootstrap_ms", "query_p50_ms@warm_mix"},
      {"core.verify_ms", "query_p50_ms@warm_mix"},
      {"core.scan_ms", "query_p50_ms@warm_mix"},
      {"exec.run_calls", "queries_per_s@cold_ingest"},
      {"exec.shards_total", "queries_per_s@cold_ingest"},
      {"exec.worker_shard_share", "queries_per_s@cold_ingest"},
      {"exec.cpu_per_wall", "queries_per_s@cold_ingest"},
      {"exec.cpu_per_wall.warm_mix", "nothing (reads about 1.0)"},
      {"video.render_features_us", "queries_per_s@cold_ingest"},
      {"nn.infer_us_per_frame", "queries_per_s@cold_ingest"},
      {"nn.inference_frames", "queries_per_s@cold_ingest"},
      {"nn.train_batches", "queries_per_s@cold_ingest"},
      {"detect.computed_calls", "queries_per_s@cold_ingest"},
      {"detect.us_per_call", "queries_per_s@cold_ingest"},
      {"detect.charged_calls", "sim_s_per_query@every workload"},
      {"filters.charged_calls", "sim_s_per_query@every workload"},
      {"storage.open_ms", "setup_s@warm_mix,served_open"},
      {"storage.records_crc_validated", "setup_s@warm_mix,served_open"},
      {"storage.payload_reads", "query_p50_ms@warm_mix"},
      {"storage.payload_bytes", "query_p50_ms@warm_mix"},
      {"storage.sketch_refute_share", "query_p50_ms@warm_mix"},
      {"storage.cache_hit_share", "query_p50_ms@warm_mix (about 1)"},
      {"storage.cache_hit_share.cold_ingest", "nothing (about 0)"},
      {"storage.flush_ms", "queries_per_s,store_mb@cold_ingest"},
      {"storage.segment_flushes", "queries_per_s,store_mb@cold_ingest"},
      {"serve.queue_wait_ms", "query_p50_ms,query_p90_ms@served_open"},
      {"serve.exec_ms", "query_p50_ms,query_p90_ms@served_open"},
      {"serve.batches", "queries_per_s@served_open"},
      {"serve.groups_per_batch", "queries_per_s@served_open"},
      {"serve.coalesced_share", "queries_per_s@served_open"},
      {"serve.shared_nn_frames", "queries_per_s@served_open"},
      {"serve.sim_saved_share", "queries_per_s@served_open"},
      {"gen.lag_ms", "nothing (well under the inter-arrival time)"},
      {"obs.trace_overhead_share", "nothing"},
  };
  auto it = kMoves.find(name);
  if (it == kMoves.end()) Die("no prediction for " + name);
  return it->second;
}

std::string Ratio(int64_t num, int64_t den) {
  return std::to_string(num) + "/" + std::to_string(den);
}
double Share(int64_t num, int64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// ---------------------------------------------------------------------------
// Modes.
// ---------------------------------------------------------------------------

int RunEndToEnd(RunContext* ctx) {
  SpanLog spans(false);
  if (ctx->workload == "cold_ingest") {
    ColdResult cold;
    // Extra bare set-ups: with the (at least 3) rounds' own set-ups,
    // setup_s is a median of at least kColdSetupReps.
    std::vector<double> bare;
    for (int i = 0; i + 3 < kColdSetupReps; ++i) {
      const Clock::time_point s0 = SetupStart();
      Setup s;
      OpenCatalog(ctx->work_dir + "/cold-bare", MakeOptions(false, false), &s,
                  &spans, 0);
      bare.push_back(Sec(Clock::now() - s0));
      CloseCatalog(&s);
      std::error_code ec;
      fs::remove_all(ctx->work_dir + "/cold-bare", ec);
    }
    RunCold(ctx, ctx->seconds, 3, false, &spans, &cold);
    std::vector<double> setup = cold.setup_s;
    setup.insert(setup.end(), bare.begin(), bare.end());
    PrintEnv(*ctx, ",\"rounds\":" + std::to_string(cold.rounds) +
                       ",\"templates\":" +
                       std::to_string(ColdTemplates().size()));
    return Finish(*ctx, EndToEnd(cold.phase, setup, Median(cold.store_mb), false),
                  static_cast<int64_t>(cold.phase.queries.size()),
                  cold.phase.failed, cold.phase.mismatches);
  }
  const bool served = ctx->workload == "served_open";
  WarmSetup w;
  SetUpWarm(ctx, served ? ServedTemplates() : WarmTemplates(), kWarmSetupReps,
            false, &spans, &w);
  Phase* phase = nullptr;
  ServedResult sres;
  Phase warm;
  if (served) {
    RunServed(ctx, &w, ctx->seconds, &spans, &sres);
    phase = &sres.phase;
  } else {
    RunWarm(ctx, &w, ctx->seconds, &spans, &warm);
    phase = &warm;
  }
  CloseCatalog(&w.setup);
  const double store_mb = DirMb(ctx->store_dir);
  std::string extra = ",\"templates\":" + std::to_string(w.infos.size());
  if (served) {
    extra += ",\"arrivals\":" + std::to_string(sres.arrivals) +
             ",\"gen_lag_p90_ms\":" + Fmt(Quantile(sres.lag_ms, 0.9)) +
             ",\"mean_interarrival_ms\":" + Fmt(1e3 / kServedRate);
  }
  PrintEnv(*ctx, extra);
  return Finish(*ctx, EndToEnd(*phase, w.setup_s, store_mb, served),
                static_cast<int64_t>(phase->queries.size()), phase->failed,
                phase->mismatches);
}

/// The traced run: every layer, from one process. Phases: the named
/// workload untraced (the overhead baseline), then cold_ingest (one
/// round), warm_mix and served_open traced, then the layer probes. Each
/// per-layer metric is read from the workload it is meant to move.
int RunTraced(RunContext* ctx) {
  SpanLog off(false);
  SpanLog spans(true);
  const double tseconds = std::max(3.0, ctx->seconds / 4.0);
  std::vector<std::string> mismatches;
  int64_t attempted = 0, failed = 0;
  auto account = [&](const Phase& p) {
    attempted += static_cast<int64_t>(p.queries.size());
    failed += p.failed;
    mismatches.insert(mismatches.end(), p.mismatches.begin(),
                      p.mismatches.end());
  };

  double untraced_qps = 0.0;
  ColdResult cold;
  if (ctx->workload == "cold_ingest") {
    ColdResult base;
    RunCold(ctx, 0.0, 1, false, &off, &base);
    account(base.phase);
    untraced_qps = base.phase.qps();
  }
  RunCold(ctx, 0.0, 1, true, &spans, &cold);
  account(cold.phase);

  WarmSetup w;
  const std::vector<Template>& warm_ts = WarmTemplates();
  SetUpWarm(ctx, warm_ts, 1, true, &spans, &w);
  Phase warm;
  if (ctx->workload == "warm_mix") {
    w.setup.engine->mutable_options()->collect_reports = false;
    Phase base;
    RunWarm(ctx, &w, tseconds, &off, &base);
    account(base);
    untraced_qps = base.qps();
    w.setup.engine->mutable_options()->collect_reports = true;
  }
  RunWarm(ctx, &w, tseconds, &spans, &warm);
  account(warm);
  const Probes probes = RunProbes(&w, &spans);

  CloseCatalog(&w.setup);
  // The served phase needs the served templates' references.
  WarmSetup ws;
  SetUpWarm(ctx, ServedTemplates(), 1, true, &spans, &ws);
  ServedResult served;
  if (ctx->workload == "served_open") {
    ws.setup.engine->mutable_options()->collect_reports = false;
    ServedResult base;
    RunServed(ctx, &ws, tseconds, &off, &base);
    account(base.phase);
    untraced_qps = base.phase.qps();
    ws.setup.engine->mutable_options()->collect_reports = true;
  }
  RunServed(ctx, &ws, tseconds, &spans, &served);
  account(served.phase);
  CloseCatalog(&ws.setup);

  double traced_qps = cold.phase.qps();
  if (ctx->workload == "warm_mix") traced_qps = warm.qps();
  if (ctx->workload == "served_open") traced_qps = served.phase.qps();

  std::vector<Metric> m;
  auto add = [&](const std::string& name, double v, const std::string& unit,
                 const std::string& base) {
    m.push_back({name, v, unit, "", base + "; moves " + Moves(name)});
  };
  const std::string wq = N(warm.completed(), "warm_mix queries");
  const std::string cq = N(cold.phase.completed(), "cold_ingest queries");
  const std::string sq = N(served.phase.completed(), "served_open queries");

  add("frameql.prepare_us", probes.prepare_us, "us",
      "mean of " + std::to_string(probes.prepare_calls) +
          " Prepare calls over the warm_mix templates");
  add("core.choose_plan_ms", probes.choose_plan_ms, "ms",
      "mean of " + std::to_string(probes.plan_calls) +
          " ChoosePlan calls over the warm_mix templates");
  add("core.train_ms", cold.phase.SpanMsPerQuery("train"), "ms/query", cq);
  add("core.sweep_ms", cold.phase.SpanMsPerQuery("sweep"), "ms/query", cq);
  add("core.bootstrap_ms", warm.SpanMsPerQuery("bootstrap"), "ms/query", wq);
  add("core.verify_ms", warm.SpanMsPerQuery("verify"), "ms/query", wq);
  add("core.scan_ms", warm.SpanMsPerQuery("scan"), "ms/query", wq);

  const int64_t shards = cold.phase.Counter("exec.shards_total");
  const int64_t worker_shards = cold.phase.Counter("exec.shards{where=worker}");
  add("exec.run_calls", static_cast<double>(cold.phase.Counter("exec.run_calls")),
      "count", "one cold_ingest round, " + cq);
  add("exec.shards_total", static_cast<double>(shards), "count",
      "one cold_ingest round, " + cq);
  add("exec.worker_shard_share", Share(worker_shards, shards), "share",
      Ratio(worker_shards, shards) + " shards on pool workers (cold_ingest)");
  add("exec.cpu_per_wall", cold.phase.cpu_s / cold.phase.wall_s, "ratio",
      Fmt(cold.phase.cpu_s) + " cpu s / " + Fmt(cold.phase.wall_s) +
          " wall s (cold_ingest)");
  add("exec.cpu_per_wall.warm_mix", warm.cpu_s / warm.wall_s, "ratio",
      Fmt(warm.cpu_s) + " cpu s / " + Fmt(warm.wall_s) + " wall s (warm_mix)");

  add("video.render_features_us", probes.render_us, "us/frame",
      "RenderFrameFeatures, 256 frames, median of 5");
  add("nn.infer_us_per_frame", probes.infer_us, "us/frame",
      "ExpectedCountsForFrames (ProbsForFrames), 256 frames, median of 5");
  add("nn.inference_frames",
      static_cast<double>(cold.phase.Counter("nn.inference_frames{")), "count",
      "one cold_ingest round");
  add("nn.train_batches",
      static_cast<double>(cold.phase.Counter("nn.train_batches")), "count",
      "one cold_ingest round");
  add("detect.computed_calls", static_cast<double>(cold.detector_computed),
      "count", "detector store misses, one cold_ingest round");
  add("detect.us_per_call", probes.detect_us, "us/call",
      "SimulatedDetector::Detect, 256 frames, median of 5");
  {
    double d = 0, f = 0;
    for (const auto& q : warm.queries) {
      d += static_cast<double>(q.detect_charged);
      f += static_cast<double>(q.filter_charged);
    }
    const double n = std::max<int64_t>(1, warm.completed());
    add("detect.charged_calls", d / n, "count/query", wq);
    add("filters.charged_calls", f / n, "count/query", wq);
  }

  add("storage.open_ms", w.open_ms, "ms", "EnableDetectionStore on the warm store");
  add("storage.records_crc_validated", static_cast<double>(w.crc_validated),
      "count", "one warm store open");
  const double wn = std::max<int64_t>(1, warm.completed());
  add("storage.payload_reads",
      static_cast<double>(warm.Counter("store.payload_reads")) / wn,
      "count/query", wq);
  add("storage.payload_bytes",
      static_cast<double>(warm.Counter("store.payload_bytes.sum")) / wn,
      "bytes/query", wq);
  {
    const int64_t consulted = warm.Counter("sketch.blocks_consulted");
    const int64_t refuted = warm.Counter("sketch.blocks_refuted");
    add("storage.sketch_refute_share", Share(refuted, consulted), "share",
        Ratio(refuted, consulted) + " sketch blocks refuted (warm_mix)");
  }
  {
    const int64_t hits = warm.Counter("cache.hits{tier=persistent}");
    const int64_t misses = warm.Counter("cache.misses{tier=persistent}");
    add("storage.cache_hit_share", Share(hits, hits + misses), "share",
        Ratio(hits, hits + misses) + " artifact lookups (warm_mix)");
    const int64_t ch = cold.phase.Counter("cache.hits{tier=persistent}") +
                       cold.detector_store_hits;
    const int64_t cl = ch + cold.phase.Counter("cache.misses{tier=persistent}") +
                       cold.detector_computed;
    add("storage.cache_hit_share.cold_ingest", Share(ch, cl), "share",
        Ratio(ch, cl) + " artifact + detection lookups (cold_ingest)");
  }
  add("storage.flush_ms", Median(cold.flush_ms), "ms",
      "FlushDetectionStore after one cold_ingest round");
  add("storage.segment_flushes",
      static_cast<double>(cold.phase.Counter("store.segment_flushes")),
      "count", "one cold_ingest round");

  const serve::ServerStats& st = served.stats;
  add("serve.queue_wait_ms", Median(served.queue_wait_ms), "ms",
      "p50 of wall time from admission to execution, " +
          N(static_cast<int64_t>(served.queue_wait_ms.size())) +
          "; p50 in window ticks " + Fmt(Median(served.queue_wait_ticks)) +
          " x " + std::to_string(kTickMs) + " ms");
  add("serve.exec_ms", Median(served.exec_ms), "ms",
      "p50 of engine execution spans, " +
          N(static_cast<int64_t>(served.exec_ms.size())));
  add("serve.batches", static_cast<double>(st.batches), "count",
      N(st.submitted, "submitted"));
  add("serve.groups_per_batch", Share(st.groups, st.batches), "ratio",
      Ratio(st.groups, st.batches) + " groups/batches");
  add("serve.coalesced_share", Share(st.coalesced_queries, st.submitted),
      "share", Ratio(st.coalesced_queries, st.submitted) + " queries");
  add("serve.shared_nn_frames", static_cast<double>(st.shared_nn_frames),
      "count", sq);
  add("serve.sim_saved_share",
      st.standalone_seconds > 0
          ? 1.0 - st.batch_seconds / st.standalone_seconds
          : 0.0,
      "share",
      "1 - " + Fmt(st.batch_seconds) + " / " + Fmt(st.standalone_seconds) +
          " sim s");
  add("gen.lag_ms", Quantile(served.lag_ms, 0.9), "ms",
      "p90 of " + N(static_cast<int64_t>(served.lag_ms.size()), "sends") +
          "; mean inter-arrival " + Fmt(1e3 / kServedRate) + " ms");
  add("obs.trace_overhead_share",
      untraced_qps > 0 ? 1.0 - traced_qps / untraced_qps : 0.0, "share",
      "1 - " + Fmt(traced_qps) + " / " + Fmt(untraced_qps) + " queries/s (" +
          ctx->workload + ")");

  PrintEnv(*ctx, ",\"traced_phase_seconds\":" + Fmt(tseconds));
  WriteTrace(*ctx, spans);
  return Finish(*ctx, m, attempted, failed, mismatches);
}

/// Builds the warm store from scratch: every warm/served template runs
/// once without the index (writing detections and NN artifacts), the
/// test-day sketches are built, then a pass with the index on persists
/// whatever that path reads.
int BuildStore(const std::string& dir) {
  const Clock::time_point t0 = Clock::now();
  std::error_code ec;
  fs::remove_all(dir, ec);
  SpanLog spans(false);
  for (bool index : {false, true}) {
    Setup s;
    OpenCatalog(dir, MakeOptions(index, false), &s, &spans, 0);
    for (const auto* set : {&WarmTemplates(), &ServedTemplates()}) {
      for (const Template& t : *set) {
        auto out = s.engine->Execute(t.sql);
        if (!out.ok()) {
          Die(std::string("build-store: ") + t.name + ": " +
              out.status().ToString());
        }
        std::fprintf(stderr, "build-store: %-30s %-26s\n", t.name,
                     PlanKindName(out.value().plan));
        // Fills the test-day labels the answer checks read.
        Describe(s.engine.get(), t);
      }
    }
    Status st = s.catalog->FlushDetectionStore();
    if (!st.ok()) Die("flush: " + st.ToString());
    if (!index) {
      // Sketch every stream whose test-day detections the templates
      // wrote (the others have nothing to index).
      DetectionStore* store = s.catalog->detection_store();
      for (const std::string& name : s.catalog->StreamNames()) {
        StreamData* sd = s.catalog->GetStream(name).value();
        if (store->RecordCount(sd->test_detections_ns) == 0) continue;
        st = store->BuildSketches(sd->test_detections_ns);
        if (!st.ok()) Die("BuildSketches(" + name + "): " + st.ToString());
      }
      st = s.catalog->FlushDetectionStore();
      if (!st.ok()) Die("flush: " + st.ToString());
    }
    CloseCatalog(&s);
  }
  std::printf("build-store: %s, %.1f MB in %.1f s\n", dir.c_str(), DirMb(dir),
              Sec(Clock::now() - t0));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Logger::set_level(LogLevel::kWarning);
  if (argc < 2) Die("usage: e2e_bench fingerprint|build-store|run ...");
  const std::string mode = argv[1];
  RunContext ctx;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") ctx.workload = v;
    else if (k == "--seed") ctx.seed = std::stoull(v);
    else if (k == "--seconds") ctx.seconds = std::stod(v);
    else if (k == "--trace") ctx.trace = v == "1";
    else if (k == "--store") ctx.store_dir = v;
    else if (k == "--work") ctx.work_dir = v;
    else if (k == "--trace-out") ctx.trace_out = v;
    else Die("unknown flag " + k);
  }
  exec::ThreadPool::Instance().Reconfigure(PoolSize());
  if (mode == "fingerprint") {
    std::printf("%016llx\n",
                static_cast<unsigned long long>(StoreFingerprint()));
    return 0;
  }
  if (mode == "capacity") {
    // Closed-loop capacity of the served templates (serial Execute on the
    // warm store): the basis of kServedRate.
    if (ctx.store_dir.empty()) Die("capacity needs --store");
    ctx.workload = "capacity";
    SpanLog off(false);
    WarmSetup w;
    SetUpWarm(&ctx, ServedTemplates(), 1, false, &off, &w);
    Phase p;
    RunWarm(&ctx, &w, ctx.seconds, &off, &p);
    std::printf("closed-loop capacity of the served templates: %.3f "
                "queries/s (n=%lld, pool %d)\n",
                p.qps(), static_cast<long long>(p.completed()), PoolSize());
    return p.mismatches.empty() ? 0 : 1;
  }
  if (mode == "build-store") {
    if (ctx.store_dir.empty()) Die("build-store needs --store");
    return BuildStore(ctx.store_dir);
  }
  if (mode != "run") Die("unknown mode " + mode);
  if (ctx.workload != "cold_ingest" && ctx.workload != "warm_mix" &&
      ctx.workload != "served_open") {
    Die("unknown workload '" + ctx.workload + "'");
  }
  if (ctx.store_dir.empty() || ctx.work_dir.empty()) {
    Die("run needs --store and --work");
  }
  fs::create_directories(ctx.work_dir);
  return ctx.trace ? RunTraced(&ctx) : RunEndToEnd(&ctx);
}
