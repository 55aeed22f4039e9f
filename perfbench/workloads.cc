#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <initializer_list>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "algebra/translate.h"
#include "common/copy_stats.h"
#include "common/rng.h"
#include "common/vm_stats.h"
#include "engine/database.h"
#include "exec/physical.h"
#include "exec/vm.h"
#include "line_client.h"
#include "oracle.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "storage/segment_store.h"
#include "vql/binder.h"
#include "vql/parser.h"
#include "workload/document_db.h"
#include "workload/document_knowledge.h"

namespace perfbench {

uint64_t Report::attempted() const {
  uint64_t n = 0;
  for (const auto& [cls, t] : classes) n += t.attempted;
  return n;
}

uint64_t Report::failed() const {
  uint64_t n = 0;
  for (const auto& [cls, t] : classes) n += t.failed;
  return n;
}

void Report::Error(const std::string& what) {
  correct = false;
  if (errors.size() < 20) errors.push_back(what);
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"paper_methods",
                                                 "scan_service", "read_write"};
  return names;
}

namespace {

using namespace vodak;
using Clock = std::chrono::steady_clock;

// ----------------------------------------------------------------- sizes
// Corpus sizes in documents; each document has 3 sections of 4
// paragraphs of 30 words (120 for the large ones) over a 500-term
// Zipf vocabulary — the DocumentDb defaults.
constexpr uint32_t kPaperDocs = 2000;
constexpr uint32_t kScanDocs = 4000;
constexpr uint32_t kReadWriteDocs = 1000;
/// scan_service buffer cache: 32 pages of 64 KiB (2 MiB), many times
/// smaller than the page file RefreshSegments writes.
constexpr size_t kScanCachePages = 32;
/// paper_methods draws its operations from this many distinct rounds,
/// whose answers are computed at set-up.
constexpr size_t kPaperRounds = 96;
/// paper_methods and scan_service have no writes of their own: each
/// times this many single-row paragraph writes after its timed phase,
/// with a pause after each (TimeWriteProbes).
constexpr size_t kWriteProbes = 160;
constexpr int kProbePauseMs = 10;
/// read_write's read_numbers_above covers the writes of about this many
/// most recent writer operations.
constexpr int64_t kRecentWrites = 128;
/// read_write's rounds are gated (RoundGate), so the slower party sets
/// the pace. A reader's round repeats the 7-read mix this many times:
/// on the 4-core reference host that makes it somewhat longer than the
/// writer's round (both are reported as facts), so the readers, which
/// send most of the operations, set throughput_ops_s, and the writer
/// writes through most of each reader round.
constexpr int kReaderMixRepeats = 12;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::max<size_t>(rank, 1);
  return v[std::min(rank, v.size()) - 1];
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// The current resident set, from /proc/self/statm (0 where absent).
double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0, resident = 0;
  const bool ok = std::fscanf(f, "%llu %llu", &size, &resident) == 2;
  std::fclose(f);
  return ok ? static_cast<double>(resident) *
                  static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0)
            : 0.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string Quote(const std::string& s) { return "'" + s + "'"; }

/// Client threads of scan_service and read_write: one fewer than the
/// cores (the service's event loop and drain lanes, or the reclaimer,
/// need one), at least 2 and at most 4.
size_t ClientThreads() {
  const size_t hc = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hc > 0 ? hc - 1 : 1, 2, 4);
}

// ---------------------------------------------------------------- tracer
/// The traced run's spans, kept in memory and written at the end.
class Tracer {
 public:
  int Begin(const std::string& name, int parent, uint64_t op) {
    spans_.push_back({name, Now(), 0, parent, op});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_ns = Now(); }


  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d, \"op\": %llu}%s\n",
                   i, s.name.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.op),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

  size_t size() const { return spans_.size(); }
  /// Operations replayed: root spans that carry an operation id.
  size_t ops() const {
    size_t n = 0;
    for (const Span& s : spans_) n += s.parent < 0 && s.op != 0;
    return n;
  }
  /// Median duration in ms of the spans with any of `names` (0 when
  /// none): robust to the odd descheduled span, which a mean would
  /// smear over the layer.
  double MedianMs(std::initializer_list<const char*> names) const {
    std::vector<double> ms;
    for (const Span& s : spans_) {
      for (const char* n : names) {
        if (s.name == n) ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      }
    }
    return Percentile(std::move(ms), 0.5);
  }
  /// What recording one span costs here, in ns (Begin + End).
  static double SpanCostNs() {
    Tracer t;
    constexpr int kN = 100000;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kN; ++i) t.End(t.Begin("calibrate", -1, 0));
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() / kN;
  }

 private:
  struct Span {
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    uint64_t op;
  };
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* t, const std::string& name, int parent, uint64_t op)
      : t_(t), id_(t ? t->Begin(name, parent, op) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer* t_;
  int id_;
};

// -------------------------------------------------------------- counters
/// The program's own counters, read as deltas around a phase.
struct Counters {
  uint64_t property_reads = 0, extent_scans = 0, snapshot_reads = 0;
  uint64_t versions_created = 0, versions_reclaimed = 0, epochs = 0;
  uint64_t invocations = 0, batch_invocations = 0, batch_rows = 0;
  uint64_t ir_searches = 0, ir_postings = 0, title_lookups = 0;
  uint64_t vm_compiled = 0, vm_fallbacks = 0, handoffs = 0, copies = 0;
  uint64_t cache_hits = 0, cache_misses = 0, evictions = 0;
  uint64_t seg_scanned = 0, seg_skipped = 0;
};

Counters ReadCounters(workload::DocumentDb& db,
                      const storage::SegmentStore* segments) {
  constexpr auto kR = std::memory_order_relaxed;
  Counters c;
  const StoreStats& s = db.store().stats();
  c.property_reads = s.property_reads.load(kR);
  c.extent_scans = s.extent_scans.load(kR);
  c.snapshot_reads = s.snapshot_reads.load(kR);
  c.versions_created = s.versions_created.load(kR);
  c.versions_reclaimed = s.versions_reclaimed.load(kR);
  c.epochs = s.epochs_committed.load(kR);
  const MethodRegistry& m = db.methods();
  c.invocations = m.total_invocations();
  static const std::vector<std::tuple<const char*, const char*, MethodLevel>>
      kMethods = {
          {"Document", "select_by_index", MethodLevel::kClassObject},
          {"Document", "paragraphs", MethodLevel::kInstance},
          {"Paragraph", "retrieve_by_string", MethodLevel::kClassObject},
          {"Paragraph", "document", MethodLevel::kInstance},
          {"Paragraph", "contains_string", MethodLevel::kInstance},
          {"Paragraph", "sameDocument", MethodLevel::kInstance},
          {"Paragraph", "wordCount", MethodLevel::kInstance}};
  for (const auto& [cls, name, level] : kMethods) {
    c.batch_invocations += m.batch_invocation_count(cls, name, level);
    c.batch_rows += m.batch_row_count(cls, name, level);
  }
  c.ir_searches = db.paragraph_index().search_count();
  c.ir_postings = db.paragraph_index().postings_scanned();
  c.title_lookups = db.title_index().lookup_count();
  c.vm_compiled = VmStats::vm_compiled.load(kR);
  c.vm_fallbacks = VmStats::vm_fallbacks.load(kR);
  c.handoffs = VmStats::operator_handoffs.load(kR);
  c.copies = BatchCopyStats::TotalMoves();
  if (segments != nullptr) {
    const storage::PagerStats& p = segments->pager()->stats();
    c.cache_hits = p.cache_hits.load(kR);
    c.cache_misses = p.cache_misses.load(kR);
    c.evictions = p.evictions.load(kR);
    c.seg_scanned = segments->stats().segments_scanned.load(kR);
    c.seg_skipped = segments->stats().segments_skipped.load(kR);
  }
  return c;
}

Counters Delta(const Counters& a, const Counters& b) {
  Counters d;
  d.property_reads = b.property_reads - a.property_reads;
  d.extent_scans = b.extent_scans - a.extent_scans;
  d.snapshot_reads = b.snapshot_reads - a.snapshot_reads;
  d.versions_created = b.versions_created - a.versions_created;
  d.versions_reclaimed = b.versions_reclaimed - a.versions_reclaimed;
  d.epochs = b.epochs - a.epochs;
  d.invocations = b.invocations - a.invocations;
  d.batch_invocations = b.batch_invocations - a.batch_invocations;
  d.batch_rows = b.batch_rows - a.batch_rows;
  d.ir_searches = b.ir_searches - a.ir_searches;
  d.ir_postings = b.ir_postings - a.ir_postings;
  d.title_lookups = b.title_lookups - a.title_lookups;
  d.vm_compiled = b.vm_compiled - a.vm_compiled;
  d.vm_fallbacks = b.vm_fallbacks - a.vm_fallbacks;
  d.handoffs = b.handoffs - a.handoffs;
  d.copies = b.copies - a.copies;
  d.cache_hits = b.cache_hits - a.cache_hits;
  d.cache_misses = b.cache_misses - a.cache_misses;
  d.evictions = b.evictions - a.evictions;
  d.seg_scanned = b.seg_scanned - a.seg_scanned;
  d.seg_skipped = b.seg_skipped - a.seg_skipped;
  return d;
}

// ----------------------------------------------------------- phase stats
/// What the clients of one phase saw; merged across client threads.
struct PhaseStats {
  std::vector<double> latency_ms;
  std::map<std::string, std::vector<double>> class_ms;
  std::vector<double> write_ms;
  uint64_t reads = 0, writes = 0, result_rows = 0;
  /// Writes that committed one row and returned their epoch.
  uint64_t acked = 0;
  /// Sums over reads of the program's QueryStats.
  double plan_ms = 0, queue_ms = 0, drain_ms = 0, wire_ms = 0;
  /// Sums over writes: QueryStats::plan_ms (parse, bind, expansion)
  /// and drain_ms (the Apply).
  double expand_ms = 0, apply_ms = 0;
  std::map<std::string, ClassTally> classes;
  std::vector<std::string> wrong;  // answers that did not match
  std::vector<std::string> failures;

  void Merge(const PhaseStats& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    for (const auto& [cls, v] : o.class_ms) {
      class_ms[cls].insert(class_ms[cls].end(), v.begin(), v.end());
    }
    write_ms.insert(write_ms.end(), o.write_ms.begin(), o.write_ms.end());
    reads += o.reads;
    writes += o.writes;
    acked += o.acked;
    result_rows += o.result_rows;
    plan_ms += o.plan_ms;
    queue_ms += o.queue_ms;
    drain_ms += o.drain_ms;
    wire_ms += o.wire_ms;
    expand_ms += o.expand_ms;
    apply_ms += o.apply_ms;
    for (const auto& [cls, t] : o.classes) {
      classes[cls].attempted += t.attempted;
      classes[cls].failed += t.failed;
    }
    wrong.insert(wrong.end(), o.wrong.begin(), o.wrong.end());
    failures.insert(failures.end(), o.failures.begin(), o.failures.end());
  }
  void Latency(const Op& op, double ms) {
    latency_ms.push_back(ms);
    class_ms[op.cls].push_back(ms);
  }
  void Fail(const Op& op, const std::string& why) {
    ++classes[op.cls].failed;
    if (failures.size() < 5) failures.push_back(op.cls + ": " + why);
  }
  void Wrong(const Op& op, const std::string& why) {
    if (wrong.size() < 5) wrong.push_back(op.cls + ": " + why + " [" + op.vql + "]");
  }
};

void FoldInto(const PhaseStats& st, Report* report) {
  for (const auto& [cls, t] : st.classes) {
    report->classes[cls].attempted += t.attempted;
    report->classes[cls].failed += t.failed;
  }
  for (const std::string& w : st.wrong) report->Error("wrong answer: " + w);
  for (const std::string& f : st.failures) {
    std::fprintf(stderr, "perfbench: failed operation: %s\n", f.c_str());
  }
}

// ------------------------------------------------------------ set-up
struct Env {
  workload::CorpusParams params;
  workload::DocumentDb db;
  std::unique_ptr<engine::Database> session;
  std::unique_ptr<storage::SegmentStore> segments;
  std::string page_file;
  std::unique_ptr<service::QueryService> service;
  CorpusCopy copy;
  std::unique_ptr<Answerer> answerer;
  double generate_ms = 0, ingest_ms = 0;
  /// Resident set when set-up ended, before the benchmark's copy, and
  /// what the copy and the precomputed answers added to it.
  double rss_setup_mb = 0, harness_mb = 0;
  /// The cold set-up: process start to ready, minus bookkeeping.
  double setup_s = 0;

  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
  ~Env() {
    if (service != nullptr) service->Stop();
    db.store().StopBackgroundReclaim();
    session.reset();
    segments.reset();
    if (!page_file.empty()) std::remove(page_file.c_str());
  }
};

Status SetUp(const RunConfig& config, Clock::time_point process_start,
             Tracer* tracer, Env* env) {
  const std::string& w = config.workload;
  env->params.num_documents = w == "paper_methods"  ? kPaperDocs
                              : w == "scan_service" ? kScanDocs
                                                    : kReadWriteDocs;
  env->params.seed = 0x5eed0000ull ^ (config.seed * 0x9e3779b97f4a7c15ull);
  {
    Scope s(tracer, "setup.populate", -1, 0);
    VODAK_RETURN_IF_ERROR(env->db.Init());
    VODAK_RETURN_IF_ERROR(env->db.Populate(env->params));
  }
  env->session = std::make_unique<engine::Database>(
      &env->db.catalog(), &env->db.store(), &env->db.methods());
  VODAK_RETURN_IF_ERROR(
      workload::RegisterPaperKnowledge(env->session.get(), env->params));
  workload::InstallStatsProviders(env->session.get(), &env->db);
  {
    Scope s(tracer, "semantics.generate", -1, 0);
    const Clock::time_point t0 = Clock::now();
    VODAK_RETURN_IF_ERROR(env->session->GenerateOptimizer());
    env->generate_ms = MsBetween(t0, Clock::now());
  }
  if (w == "scan_service") {
    env->page_file = std::string(kOutDir) + "/scan_service-" +
                     std::to_string(getpid()) + ".pages";
    storage::PagerOptions pager;
    pager.cache_pages = kScanCachePages;
    VODAK_ASSIGN_OR_RETURN(env->segments,
                           storage::SegmentStore::Open(env->page_file, pager));
    env->session->AttachSegmentStore(env->segments.get());
    Scope s(tracer, "storage.ingest", -1, 0);
    const Clock::time_point t0 = Clock::now();
    VODAK_RETURN_IF_ERROR(env->session->RefreshSegments());
    env->ingest_ms = MsBetween(t0, Clock::now());
  }
  if (w == "read_write") env->db.store().StartBackgroundReclaim();
  if (w == "scan_service") {
    service::ServiceOptions options;
    options.optimize = true;
    env->service =
        std::make_unique<service::QueryService>(env->session.get(), options);
    Scope s(tracer, "service.start", -1, 0);
    VODAK_RETURN_IF_ERROR(env->service->Start());
  }
  env->setup_s = std::chrono::duration<double>(Clock::now() - process_start).count();

  // Bookkeeping, not set-up: the independent copy, with content as
  // the workload's operations need it.
  env->rss_setup_mb = CurrentRssMb();
  const ContentCopy content = w == "paper_methods" ? ContentCopy::kWords
                              : w == "read_write"  ? ContentCopy::kText
                                                   : ContentCopy::kNone;
  VODAK_RETURN_IF_ERROR(
      CopyCorpus(env->db.catalog(), env->db.store(), content, &env->copy));
  env->answerer = std::make_unique<Answerer>(
      &env->copy, env->params.large_paragraph_threshold);
  return Status::OK();
}

// ------------------------------------------------------------- op makers
/// A Zipf-drawn vocabulary term, with the corpus generator's skew.
std::string ZipfTerm(ZipfSampler& zipf) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "term%04zu", zipf.Next());
  return buf;
}

uint32_t Pick(std::mt19937_64& rng, size_t n) {
  return static_cast<uint32_t>(std::uniform_int_distribution<size_t>(0, n - 1)(rng));
}

Op PaperOp(const CorpusCopy& c, Template t, const std::string& term,
           uint32_t doc) {
  Op op;
  op.tmpl = t;
  op.term = term;
  op.document = doc;
  const std::string title = Quote(c.documents[doc].title);
  const std::string s = Quote(term);
  switch (t) {
    case Template::kExample4:
      op.cls = "example4";
      op.vql = "ACCESS p FROM p IN Paragraph WHERE p->contains_string(" + s +
               ") AND (p->document()).title == " + title;
      break;
    case Template::kE1Path:
      op.cls = "e1_path_method";
      op.vql = "ACCESS p FROM p IN Paragraph WHERE (p->document()).title == " + title;
      break;
    case Template::kE2Index:
      op.cls = "e2_select_by_index";
      op.vql = "ACCESS d FROM d IN Document WHERE d.title == " + title;
      break;
    case Template::kE3Inverse:
      op.cls = "e3_inverse_link";
      op.vql = "ACCESS p FROM p IN Paragraph WHERE p.section.document IS-IN "
               "Document->select_by_index(" + title + ")";
      break;
    case Template::kE4Inverse:
      op.cls = "e4_inverse_link";
      op.vql = "ACCESS p FROM p IN Paragraph WHERE p.section IS-IN "
               "(Document->select_by_index(" + title + ")).sections";
      break;
    case Template::kE5Contains:
      op.cls = "e5_contains_string";
      op.vql = "ACCESS p FROM p IN Paragraph WHERE p->contains_string(" + s + ")";
      break;
    case Template::kE5Retrieve:
      op.cls = "e5_retrieve_by_string";
      op.vql = "ACCESS p FROM p IN Paragraph->retrieve_by_string(" + s + ")";
      break;
    case Template::kLarge:
      op.cls = "large_word_count";
      op.vql = "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 100";
      break;
    case Template::kExample2:
      op.cls = "example2_dependent_range";
      op.vql = "ACCESS d.title FROM d IN Document, p IN d->paragraphs() "
               "WHERE p->contains_string(" + s + ")";
      break;
    default:
      break;
  }
  return op;
}

/// paper_methods: rounds of the paper's method-rich templates. Half of
/// each round is Example 4 — the paper's own query first, then variants
/// — so latency_p50_ms is Example 4's latency; the E1–E4 index plans
/// sit below it and E5, LARGE and Example 2 above it. Search terms are
/// drawn Zipf over the vocabulary, titles uniformly.
std::vector<std::vector<Op>> PaperRounds(const Env& env, uint64_t seed) {
  std::mt19937_64 rng(seed * 7 + 1);
  ZipfSampler zipf(env.params.vocabulary_size, env.params.zipf_theta, seed * 11 + 2);
  const CorpusCopy& c = env.copy;
  const size_t docs = c.documents.size();
  // LARGE has no parameter: every round shares its one answer.
  const Expectation large =
      Expect(env.answerer->Expected(PaperOp(c, Template::kLarge, "", 0), 0));
  std::vector<std::vector<Op>> rounds(kPaperRounds);
  for (std::vector<Op>& round : rounds) {
    round.push_back(PaperOp(c, Template::kExample4,
                            workload::DocumentDb::kSearchWord, 0));
    for (int i = 0; i < 7; ++i) {
      round.push_back(PaperOp(c, Template::kExample4, ZipfTerm(zipf), Pick(rng, docs)));
    }
    round.push_back(PaperOp(c, Template::kE1Path, "", Pick(rng, docs)));
    round.push_back(PaperOp(c, Template::kE2Index, "", Pick(rng, docs)));
    round.push_back(PaperOp(c, Template::kE3Inverse, "", Pick(rng, docs)));
    round.push_back(PaperOp(c, Template::kE4Inverse, "", Pick(rng, docs)));
    round.push_back(PaperOp(c, Template::kE5Contains, ZipfTerm(zipf), 0));
    round.push_back(PaperOp(c, Template::kE5Retrieve, ZipfTerm(zipf), 0));
    round.push_back(PaperOp(c, Template::kLarge, "", 0));
    round.push_back(PaperOp(c, Template::kExample2, ZipfTerm(zipf), 0));
    for (Op& op : round) {
      op.expected = op.tmpl == Template::kLarge
                        ? large
                        : Expect(env.answerer->Expected(op, 0));
    }
  }
  return rounds;
}

/// scan_service: attribute scans, range selections, projections and a
/// path expression, no methods — bench_service's shapes.
std::vector<std::vector<Op>> ScanVariants(const Env& env) {
  auto make = [&](Template t, int64_t k, std::string cls, std::string vql) {
    Op op;
    op.tmpl = t;
    op.k = k;
    op.cls = std::move(cls);
    op.vql = std::move(vql);
    op.expected = Expect(env.answerer->Expected(op, 0));
    return op;
  };
  std::vector<std::vector<Op>> v(8);
  v[0].push_back(make(Template::kScanNumbers, 0, "scan_numbers",
                      "ACCESS p.number FROM p IN Paragraph"));
  v[5].push_back(make(Template::kDocTitles, 0, "doc_titles",
                      "ACCESS d.title FROM d IN Document"));
  v[6].push_back(make(Template::kDocProjection, 0, "doc_projection",
                      "ACCESS [a: d.author, t: d.title] FROM d IN Document"));
  for (int64_t k = 0; k < 4; ++k) {
    const std::string n = std::to_string(k);
    if (k >= 1) {
      v[1].push_back(make(Template::kRangeGe, k, "range_ge",
                          "ACCESS p FROM p IN Paragraph WHERE p.number >= " + n));
    }
    v[2].push_back(make(Template::kPointEq, k, "point_eq",
                        "ACCESS p FROM p IN Paragraph WHERE p.number == " + n));
    if (k <= 2) {
      v[3].push_back(make(Template::kRangeBetween, k, "range_between",
                          "ACCESS p FROM p IN Paragraph WHERE p.number >= " + n +
                              " AND p.number <= " + std::to_string(k + 1)));
      v[4].push_back(make(Template::kSectionEq, k, "section_eq",
                          "ACCESS s FROM s IN Section WHERE s.number == " + n));
    }
    v[7].push_back(make(Template::kPathTitles, k, "path_titles",
                        "ACCESS p.section.document.title FROM p IN Paragraph "
                        "WHERE p.number == " + n));
  }
  return v;
}

/// One scan_service round: every shape once, parameters and order
/// drawn from the client's generator.
std::vector<const Op*> ScanRound(const std::vector<std::vector<Op>>& variants,
                                 std::mt19937_64& rng) {
  std::vector<const Op*> round;
  for (const std::vector<Op>& shape : variants) {
    round.push_back(&shape[Pick(rng, shape.size())]);
  }
  std::shuffle(round.begin(), round.end(), rng);
  return round;
}

std::string SectionOf(const CorpusCopy& c, uint32_t p) {
  return Quote(c.sections[c.paragraphs[p].section].title);
}

/// The read_write writer's next operation, made from the copy's latest
/// state (the writer is the copy's only user during the phase).
/// Writes touch Paragraph.number, Document.author and (kb_drift)
/// Paragraph.content; a target is named by its section title and its
/// current number, which stay unique within a section.
Op WriterOp(Env* env, Template t, std::mt19937_64& rng, uint64_t seed,
            uint64_t* seq) {
  const CorpusCopy& c = env->copy;
  Op op;
  op.tmpl = t;
  const uint64_t n = (*seq)++;
  if (t == Template::kWriteAuthor) {
    op.cls = "write_author";
    op.document = Pick(rng, c.documents.size());
    op.text = "Author w" + std::to_string(n);
    op.vql = "UPDATE Document SET author = " + Quote(op.text) +
             " WHERE self.title == " + Quote(c.documents[op.document].title);
    return op;
  }
  op.paragraph = Pick(rng, c.paragraphs.size());
  const ParagraphRec& p = c.paragraphs[op.paragraph];
  const std::string where = " WHERE self.section.title == " +
                            SectionOf(c, op.paragraph) +
                            " AND self.number == " +
                            std::to_string(p.number.Latest());
  if (t == Template::kWriteNumber) {
    op.cls = "write_number";
    op.k = 4 + static_cast<int64_t>(n);  // above every initial number
    op.vql = "UPDATE Paragraph SET number = " + std::to_string(op.k) + where;
    return op;
  }
  // kb_drift: append a fresh marker word, then search for it with the
  // optimizer on. Appending keeps every other word's postings true.
  VODAK_CHECK(CopyContent(env->db.catalog(), env->db.store(), op.paragraph,
                          &env->copy)
                  .ok());
  op.cls = "kb_drift";
  op.term = "drift" + std::to_string(seed) + "x" + std::to_string(n);
  op.text = p.content.Latest() + " " + op.term;
  op.vql = "UPDATE Paragraph SET content = " + Quote(op.text) + where;
  op.read_vql = "ACCESS p FROM p IN Paragraph WHERE p->contains_string(" +
                Quote(op.term) + ")";
  return op;
}

/// `recent` is the first number of the writer's most recent window of
/// kRecentWrites write_number values: read_numbers_above asks for the
/// paragraphs written since, so its answer stays about as large at the
/// end of a run as at the start.
Op ReaderOp(const CorpusCopy& c, Template t, std::mt19937_64& rng,
            int64_t recent) {
  Op op;
  op.tmpl = t;
  op.document = Pick(rng, c.documents.size());
  const std::string title = Quote(c.documents[op.document].title);
  switch (t) {
    case Template::kReadDocParagraphs:
      op.cls = "read_doc_paragraphs";
      op.vql = "ACCESS [n: p.number, p: p] FROM p IN Paragraph WHERE "
               "(p->document()).title == " + title;
      break;
    case Template::kReadSectionLink:
      op.cls = "read_section_link";
      op.vql = "ACCESS [n: p.number, p: p] FROM p IN Paragraph WHERE "
               "p.section IS-IN (Document->select_by_index(" + title +
               ")).sections";
      break;
    case Template::kReadAuthor:
      op.cls = "read_author";
      op.vql = "ACCESS [a: d.author, t: d.title] FROM d IN Document WHERE "
               "d.title == " + title;
      break;
    default:
      op.cls = "read_numbers_above";
      op.k = recent;
      op.vql = "ACCESS [n: p.number, p: p] FROM p IN Paragraph WHERE "
               "p.number >= " + std::to_string(recent);
      break;
  }
  return op;
}

const std::vector<Template>& WriterRound() {
  static const std::vector<Template> r = {
      Template::kWriteNumber, Template::kWriteNumber, Template::kWriteAuthor,
      Template::kKbDrift};
  return r;
}

/// A reader's round: the 7-read mix kReaderMixRepeats times.
const std::vector<Template>& ReaderRound() {
  static const std::vector<Template> r = [] {
    const std::vector<Template> mix = {
        Template::kReadDocParagraphs, Template::kReadSectionLink,
        Template::kReadAuthor,        Template::kReadDocParagraphs,
        Template::kReadSectionLink,   Template::kReadAuthor,
        Template::kReadNumbersAbove};
    std::vector<Template> round;
    for (int i = 0; i < kReaderMixRepeats; ++i) {
      round.insert(round.end(), mix.begin(), mix.end());
    }
    return round;
  }();
  return r;
}

// ------------------------------------------------------- Submit clients
/// Sends one read through Database::Submit with the optimizer on.
/// Returns the outcome; latency and program stats go to `st`.
engine::QueryOutcome SubmitRead(engine::Database* session,
                                const std::string& vql, const Op& op,
                                PhaseStats* st) {
  engine::QueryRequest req;
  req.vql = vql;
  req.plan.optimize = true;
  const Clock::time_point t0 = Clock::now();
  std::vector<engine::QueryOutcome> out = session->Submit({req});
  st->Latency(op, MsBetween(t0, Clock::now()));
  ++st->classes[op.cls].attempted;
  ++st->reads;
  st->plan_ms += out[0].stats.plan_ms;
  st->queue_ms += out[0].stats.queue_ms;
  st->drain_ms += out[0].stats.drain_ms;
  if (out[0].status.ok() && out[0].result.result.is_set()) {
    st->result_rows += out[0].result.result.AsSet().size();
  }
  return std::move(out[0]);
}

/// Checks a static read inline.
void StaticRead(engine::Database* session, const Op& op, PhaseStats* st) {
  engine::QueryOutcome o = SubmitRead(session, op.vql, op, st);
  if (!o.status.ok()) {
    st->Fail(op, o.status.ToString());
  } else if (!Matches(op.expected, o.result.result)) {
    st->Wrong(op, "Submit answer differs from the copy");
  }
}

/// Sends one write through Database::Submit; returns the commit epoch
/// (0 when the write failed or was not acknowledged as one row).
Epoch SubmitWrite(engine::Database* session, const Op& op, double* ms,
                  PhaseStats* st) {
  engine::QueryRequest req;
  req.vql = op.vql;
  const Clock::time_point t0 = Clock::now();
  std::vector<engine::QueryOutcome> out = session->Submit({req});
  *ms = MsBetween(t0, Clock::now());
  st->write_ms.push_back(*ms);
  ++st->writes;
  st->expand_ms += out[0].stats.plan_ms;
  st->apply_ms += out[0].stats.drain_ms;
  if (!out[0].status.ok()) {
    st->Fail(op, "write: " + out[0].status.ToString());
    return 0;
  }
  if (!(out[0].result.result == Value::Int(1))) {
    st->Wrong(op, "write acknowledged " + out[0].result.result.ToString() +
                      " rows, expected 1");
    return 0;
  }
  ++st->acked;
  return out[0].stats.snapshot_epoch;
}

double ReplyField(const std::string& line, const std::string& key) {
  const size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + key.size() + 2, nullptr);
}

/// One query over the socket, checked against the expected set.
void ServiceRead(LineClient* client, const Op& op, const std::string& id,
                 PhaseStats* st) {
  std::string reply;
  const Clock::time_point t0 = Clock::now();
  const bool ok = client->Call("Q " + id + " 0 " + op.vql, &reply);
  const double ms = MsBetween(t0, Clock::now());
  ++st->classes[op.cls].attempted;
  ++st->reads;
  st->Latency(op, ms);
  if (!ok) {
    st->Fail(op, "connection lost");
    return;
  }
  const double queue = ReplyField(reply, "queue_ms");
  const double plan = ReplyField(reply, "plan_ms");
  const double drain = ReplyField(reply, "drain_ms");
  st->queue_ms += queue;
  st->plan_ms += plan;
  st->drain_ms += drain;
  st->wire_ms += ms - queue - plan - drain;
  st->result_rows += static_cast<uint64_t>(ReplyField(reply, "rows"));
  if (reply.rfind("R " + id + " OK", 0) != 0) {
    st->Fail(op, reply);
    return;
  }
  const std::string why = CheckReply(reply, id, op.expected);
  if (!why.empty()) st->Wrong(op, why);
}

Result<service::ServiceStats> StatsLine(LineClient* client) {
  std::string line;
  if (!client->Call("S", &line)) return Status::Internal("S request failed");
  return service::ParseStatsLine(line);
}

// ------------------------------------------------------------ round gate
/// Ends every read_write round for all client threads at once, so each
/// run attempts whole rounds and kb_drift stays an exact share of the
/// operations. The last thread to arrive decides whether another round
/// starts.
class RoundGate {
 public:
  RoundGate(size_t parties, Clock::time_point deadline)
      : parties_(parties), deadline_(deadline) {}

  bool Next() {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t gen = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      more_ = Clock::now() < deadline_;
      ++generation_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return generation_ != gen; });
    }
    return more_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const size_t parties_;
  const Clock::time_point deadline_;
  size_t arrived_ = 0;
  uint64_t generation_ = 0;
  bool more_ = true;
};

// ---------------------------------------------------------- the replay
/// Program-reported planner numbers of the replayed queries.
struct ReplayStats {
  double optimize_ms = 0, memo_exprs = 0, rule_applications = 0;
  uint64_t queries = 0;
};

/// Replays one read's layers one at a time with a span around each
/// public entry point: parse, bind, translate, Prepare (optimize),
/// physical build + VM compile, drain. Returns the drained answer.
Result<Value> ReplayLayers(Env* env, Tracer* tracer, int parent, uint64_t id,
                           const std::string& vql, ReplayStats* rs) {
  const Catalog* catalog = &env->db.catalog();
  vql::BoundQuery bound;
  {
    vql::Query query;
    {
      Scope s(tracer, "vql.parse", parent, id);
      VODAK_ASSIGN_OR_RETURN(query, vql::ParseQuery(vql));
    }
    Scope s(tracer, "vql.bind", parent, id);
    VODAK_ASSIGN_OR_RETURN(bound, vql::Binder(catalog).Bind(query));
  }
  {
    Scope s(tracer, "algebra.translate", parent, id);
    algebra::AlgebraContext ctx(catalog);
    VODAK_ASSIGN_OR_RETURN(algebra::LogicalRef plan,
                           algebra::TranslateQuery(ctx, bound));
    (void)plan;
  }
  engine::PreparedQuery prepared;
  {
    Scope s(tracer, "engine.prepare", parent, id);
    engine::PlanOptions plan;
    plan.optimize = true;
    VODAK_ASSIGN_OR_RETURN(prepared, env->session->Prepare(vql, plan));
  }
  rs->optimize_ms += prepared.planned.optimize_ms;
  rs->memo_exprs += static_cast<double>(prepared.planned.memo_exprs);
  rs->rule_applications += static_cast<double>(prepared.planned.rule_applications);
  ++rs->queries;
  EpochPin pin(&env->db.store());
  exec::ExecContext ctx;
  ctx.catalog = catalog;
  ctx.store = &env->db.store();
  ctx.methods = &env->db.methods();
  ctx.snapshot_epoch = pin.epoch();
  ctx.segments = env->segments.get();
  exec::PhysOpPtr root;
  {
    Scope s(tracer, "exec.build", parent, id);
    VODAK_ASSIGN_OR_RETURN(root,
                           exec::BuildPhysical(prepared.planned.chosen_plan, ctx));
    VODAK_ASSIGN_OR_RETURN(
        exec::VmChoice vm,
        exec::TryCompileVm(prepared.planned.chosen_plan, ctx, false));
    if (vm.compiled) root = std::move(vm.op);
  }
  Scope s(tracer, "exec.drain", parent, id);
  return exec::ExecuteColumn(root.get(), prepared.result_ref,
                             exec::ExecMode::kBatch);
}

/// A write's parse and bind, replayed with spans.
Status ReplayWriteLayers(Env* env, Tracer* tracer, int parent, uint64_t id,
                         const std::string& vql) {
  vql::WriteStatement stmt;
  {
    Scope s(tracer, "vql.parse", parent, id);
    VODAK_ASSIGN_OR_RETURN(stmt, vql::ParseWrite(vql));
  }
  Scope s(tracer, "vql.bind", parent, id);
  VODAK_ASSIGN_OR_RETURN(vql::BoundWrite bound,
                         vql::Binder(&env->db.catalog()).BindWrite(stmt));
  (void)bound;
  return Status::OK();
}

void CheckReplayAnswer(const Result<Value>& got, const Expectation& want,
                       const Op& op, PhaseStats* st) {
  if (!got.ok()) {
    st->Wrong(op, "replay failed: " + got.status().ToString());
  } else if (!Matches(want, got.value())) {
    st->Wrong(op, "replayed layers' answer differs from the copy");
  }
}

// ---------------------------------------------------------------- report
struct Outcome {
  PhaseStats phase;        // the timed phase
  double phase_s = 0;
  Counters delta;          // program counters over the timed phase
  PhaseStats writes;       // the writes the write metrics come from
  Counters write_delta;    // program counters around those writes
  service::ServiceStats service_delta;
  uint64_t replies = 0;
  uint64_t logged_reads = 0;  // read_write's ReadRecords
};

void EndToEnd(const Env& env, const Outcome& o, Report* r) {
  const size_t n = o.phase.latency_ms.size();
  r->metrics.push_back({"setup_s", "s", env.setup_s});
  r->metrics.push_back({"throughput_ops_s", "ops/s",
                        Ratio(static_cast<double>(n), o.phase_s)});
  r->metrics.push_back({"latency_p50_ms", "ms", Percentile(o.phase.latency_ms, 0.50)});
  r->metrics.push_back({"latency_p99_ms", "ms", Percentile(o.phase.latency_ms, 0.99)});
  r->metrics.push_back({"write_p50_ms", "ms", Percentile(o.writes.write_ms, 0.50)});
  r->metrics.push_back({"peak_rss_mb", "MiB", PeakRssMb()});
  r->facts.push_back({"latency_samples", std::to_string(n)});
  for (const auto& [cls, v] : o.phase.class_ms) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f / %.3f", Percentile(v, 0.5), Percentile(v, 0.99));
    r->facts.push_back({"p50/p99_ms." + cls, buf});
  }
  r->facts.push_back({"write_samples", std::to_string(o.writes.write_ms.size())});
  r->facts.push_back({"rss_at_setup_mb", std::to_string(env.rss_setup_mb)});
  r->facts.push_back({"harness_rss_mb", std::to_string(env.harness_mb)});
  // What the timed phase logs grow to: two latency samples per
  // operation (all, and per class) and read_write's read records.
  const double log_bytes =
      static_cast<double>(n) * 2 * sizeof(double) +
      static_cast<double>(o.logged_reads) * sizeof(ReadRecord);
  r->facts.push_back({"harness_log_mb", std::to_string(log_bytes / (1024.0 * 1024.0))});
  if (n < 1000) {
    std::fprintf(stderr,
                 "perfbench: only %zu latency samples; p99 has fewer than "
                 "ten beyond it\n", n);
  }
}

void PerLayer(const Env& env, const Outcome& o, const Tracer& t,
              const ReplayStats& rs, Report* r) {
  const Counters& d = o.delta;
  const PhaseStats& p = o.phase;
  const double ops = static_cast<double>(p.latency_ms.size());
  const double reads = static_cast<double>(p.reads);
  const double writes = static_cast<double>(o.writes.writes);
  const double q = static_cast<double>(rs.queries);
  const Counters& wd = o.write_delta;
  const service::ServiceStats& sd = o.service_delta;
  auto add = [r](const char* name, const char* unit, double v) {
    r->metrics.push_back({name, unit, v});
  };
  add("vql.parse_us", "us/op", t.MedianMs({"vql.parse"}) * 1e3);
  add("vql.bind_us", "us/op", t.MedianMs({"vql.bind"}) * 1e3);
  add("algebra.translate_us", "us/query", t.MedianMs({"algebra.translate"}) * 1e3);
  add("semantics.generate_ms", "ms", env.generate_ms);
  add("optimizer.optimize_us", "us/query", Ratio(rs.optimize_ms * 1e3, q));
  add("optimizer.memo_exprs", "count/query", Ratio(rs.memo_exprs, q));
  add("optimizer.rule_applications", "count/query", Ratio(rs.rule_applications, q));
  add("engine.plan_ms", "ms/op", Ratio(p.plan_ms, reads));
  add("engine.queue_ms", "ms/op", Ratio(p.queue_ms, reads));
  add("engine.drain_ms", "ms/op", Ratio(p.drain_ms, reads));
  add("engine.write_expand_ms", "ms/write", Ratio(o.writes.expand_ms, writes));
  add("exec.build_us", "us/query", t.MedianMs({"exec.build"}) * 1e3);
  add("exec.drain_ms", "ms/query", t.MedianMs({"exec.drain"}));
  add("exec.vm_compiled_share", "share",
      Ratio(static_cast<double>(d.vm_compiled),
            static_cast<double>(d.vm_compiled + d.vm_fallbacks)));
  add("exec.operator_handoffs", "count/query", Ratio(static_cast<double>(d.handoffs), reads));
  add("exec.copies_per_row", "count/row",
      Ratio(static_cast<double>(d.copies), static_cast<double>(p.result_rows)));
  add("methods.invocations", "count/query", Ratio(static_cast<double>(d.invocations), reads));
  add("methods.rows_per_batch", "rows/dispatch",
      Ratio(static_cast<double>(d.batch_rows), static_cast<double>(d.batch_invocations)));
  add("extindex.ir_searches", "count/query", Ratio(static_cast<double>(d.ir_searches), reads));
  add("extindex.ir_postings", "count/query", Ratio(static_cast<double>(d.ir_postings), reads));
  add("extindex.title_lookups", "count/query",
      Ratio(static_cast<double>(d.title_lookups), reads));
  add("objstore.property_reads", "count/op", Ratio(static_cast<double>(d.property_reads), ops));
  add("objstore.extent_scans", "count/op", Ratio(static_cast<double>(d.extent_scans), ops));
  add("objstore.snapshot_reads", "count/op", Ratio(static_cast<double>(d.snapshot_reads), ops));
  add("objstore.apply_ms", "ms/write", Ratio(o.writes.apply_ms, writes));
  add("objstore.versions_per_write", "count/write",
      Ratio(static_cast<double>(wd.versions_created), writes));
  add("objstore.reclaimed_share", "share",
      Ratio(static_cast<double>(wd.versions_reclaimed),
            static_cast<double>(wd.versions_created)));
  add("storage.ingest_ms", "ms", env.ingest_ms);
  add("storage.cache_hit_share", "share",
      Ratio(static_cast<double>(d.cache_hits),
            static_cast<double>(d.cache_hits + d.cache_misses)));
  add("storage.page_misses", "count/query", Ratio(static_cast<double>(d.cache_misses), reads));
  add("storage.evictions", "count/query", Ratio(static_cast<double>(d.evictions), reads));
  add("storage.skipped_share", "share",
      Ratio(static_cast<double>(d.seg_skipped),
            static_cast<double>(d.seg_scanned + d.seg_skipped)));
  const double sq = static_cast<double>(sd.queries_admitted);
  add("service.wire_ms", "ms/query", Ratio(p.wire_ms, sq));
  add("service.generations_per_query", "count/query",
      Ratio(static_cast<double>(sd.generations), sq));
  add("service.extent_passes_per_query", "count/query",
      Ratio(static_cast<double>(sd.extent_passes), sq));
  add("service.late_attach_share", "share",
      Ratio(static_cast<double>(sd.late_attached), sq));
}

service::ServiceStats StatsDelta(const service::ServiceStats& a,
                                 const service::ServiceStats& b) {
  service::ServiceStats d;
  d.queries_admitted = b.queries_admitted - a.queries_admitted;
  d.queries_ok = b.queries_ok - a.queries_ok;
  d.generations = b.generations - a.generations;
  d.late_attached = b.late_attached - a.late_attached;
  d.extent_passes = b.extent_passes - a.extent_passes;
  d.property_reads = b.property_reads - a.property_reads;
  return d;
}

/// Runs one write (and kb_drift's read) through Submit, checks it and
/// applies it to the copy at its commit epoch.
void WriterStep(Env* env, const Op& op, PhaseStats* st, Tracer* tracer,
                uint64_t id) {
  Scope root(tracer, op.cls, -1, id);
  const Clock::time_point t0 = Clock::now();
  ++st->classes[op.cls].attempted;
  if (tracer != nullptr) {
    Status s = ReplayWriteLayers(env, tracer, root.id(), id, op.vql);
    if (!s.ok()) st->Wrong(op, "replayed write failed: " + s.ToString());
  }
  double ms = 0;
  Epoch at = 0;
  {
    Scope s(tracer, "engine.submit", root.id(), id);
    at = SubmitWrite(env->session.get(), op, &ms, st);
  }
  if (at == 0) return;
  ApplyWrite(&env->copy, op, at);
  if (op.tmpl != Template::kKbDrift) {
    st->Latency(op, ms);
    return;
  }
  // kb_drift's read: the new marker must be found in the one paragraph
  // it was appended to, at any snapshot at or after the write.
  engine::QueryRequest req;
  req.vql = op.read_vql;
  req.plan.optimize = true;
  std::vector<engine::QueryOutcome> out;
  {
    Scope s(tracer, "engine.submit", root.id(), id);
    out = env->session->Submit({req});
  }
  st->Latency(op, MsBetween(t0, Clock::now()));
  if (!out[0].status.ok()) {
    st->Fail(op, out[0].status.ToString());
  } else if (!(out[0].result.result ==
               env->answerer->Expected(op, out[0].stats.snapshot_epoch))) {
    st->Fail(op, "contains_string found " +
                     std::to_string(out[0].result.result.AsSet().size()) +
                     " paragraphs with a marker written to one");
  }
}

/// The paragraph write the workloads without writes of their own time
/// (read_write's write_number on a random paragraph).
Op ProbeOp(Env* env, std::mt19937_64& rng, uint64_t seed, uint64_t* seq) {
  Op op = WriterOp(env, Template::kWriteNumber, rng, seed, seq);
  op.cls = "write_probe";
  return op;
}

/// After all writes: the store's written attributes equal the copy's
/// latest state, read back through ObjectStore::GetProperty.
void CheckStoreMatchesCopy(Env* env, Report* r) {
  const Catalog& catalog = env->db.catalog();
  const ObjectStore& store = env->db.store();
  const uint32_t number = catalog.FindClass("Paragraph")->FindProperty("number")->slot;
  const uint32_t content = catalog.FindClass("Paragraph")->FindProperty("content")->slot;
  const uint32_t author = catalog.FindClass("Document")->FindProperty("author")->slot;
  for (const ParagraphRec& p : env->copy.paragraphs) {
    auto n = store.GetProperty(p.oid, number);
    auto c = store.GetProperty(p.oid, content);
    if (!n.ok() || !c.ok() || !(n.value() == Value::Int(p.number.Latest())) ||
        (!p.content.empty() &&
         !(c.value() == Value::String(p.content.Latest())))) {
      r->Error("paragraph " + p.oid.ToString() + " differs between store and copy");
      return;
    }
  }
  for (const DocumentRec& d : env->copy.documents) {
    auto a = store.GetProperty(d.oid, author);
    if (!a.ok() || !(a.value() == Value::String(d.author.Latest()))) {
      r->Error("document " + d.oid.ToString() + " differs between store and copy");
      return;
    }
  }
}

/// write_p50_ms on a workload without writes of its own: kWriteProbes
/// single-row paragraph writes through Submit after the timed phase
/// (read_write's write_number, on an attribute no template of these
/// workloads filters on), each followed by a pause so the sample spans
/// a few seconds.
void TimeWriteProbes(Env* env, const RunConfig& config, Tracer* tracer,
                     Outcome* o, Report* r) {
  std::mt19937_64 rng(config.seed * 13 + 5);
  uint64_t seq = 0;
  const Counters before = ReadCounters(env->db, env->segments.get());
  for (size_t i = 0; i < kWriteProbes; ++i) {
    WriterStep(env, ProbeOp(env, rng, config.seed, &seq), &o->writes,
               tracer, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(kProbePauseMs));
  }
  o->write_delta = Delta(before, ReadCounters(env->db, env->segments.get()));
  FoldInto(o->writes, r);
  const std::string why = CheckWriteTotals(o->writes.acked, o->write_delta.epochs);
  if (!why.empty()) r->Error(why);
}

/// What the benchmark's own copy and precomputed answers hold.
void NoteHarness(Env* env) {
  env->harness_mb = CurrentRssMb() - env->rss_setup_mb;
}

// -------------------------------------------------------------- workloads
void RunPaperMethods(Env* env, const RunConfig& config, Tracer* tracer,
                     Report* r) {
  const std::vector<std::vector<Op>> rounds = PaperRounds(*env, config.seed);
  NoteHarness(env);
  Outcome o;
  const Counters before = ReadCounters(env->db, nullptr);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  for (size_t i = 0;; ++i) {
    for (const Op& op : rounds[i % rounds.size()]) {
      StaticRead(env->session.get(), op, &o.phase);
    }
    if (Clock::now() >= deadline) break;
  }
  o.phase_s = std::chrono::duration<double>(Clock::now() - start).count();
  o.delta = Delta(before, ReadCounters(env->db, nullptr));
  FoldInto(o.phase, r);

  ReplayStats rs;
  if (tracer != nullptr) {
    PhaseStats replay;
    const Clock::time_point stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                      std::chrono::duration<double>(config.seconds / 4));
    uint64_t id = 0;
    for (size_t i = 0; i == 0 || Clock::now() < stop; ++i) {
      for (const Op& op : rounds[i % rounds.size()]) {
        Scope root(tracer, op.cls, -1, ++id);
        CheckReplayAnswer(ReplayLayers(env, tracer, root.id(), id, op.vql, &rs),
                          op.expected, op, &replay);
        Scope s(tracer, "engine.submit", root.id(), id);
        StaticRead(env->session.get(), op, &replay);
      }
    }
    FoldInto(replay, r);
  }
  TimeWriteProbes(env, config, tracer, &o, r);
  CheckStoreMatchesCopy(env, r);
  r->facts.push_back({"documents", std::to_string(env->copy.documents.size())});
  r->facts.push_back({"paragraphs", std::to_string(env->copy.paragraphs.size())});
  r->facts.push_back({"clients", "1"});
  if (tracer != nullptr) {
    PerLayer(*env, o, *tracer, rs, r);
  } else {
    EndToEnd(*env, o, r);
  }
}

void RunScanService(Env* env, const RunConfig& config, Tracer* tracer,
                    Report* r) {
  const std::vector<std::vector<Op>> variants = ScanVariants(*env);
  NoteHarness(env);
  const size_t clients = ClientThreads();
  Outcome o;
  LineClient stats_client;
  if (!stats_client.Connect(env->service->port())) {
    r->Error("cannot connect to the service");
    return;
  }
  auto s0 = StatsLine(&stats_client);
  const Counters before = ReadCounters(env->db, env->segments.get());
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  std::vector<PhaseStats> per(clients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937_64 rng(config.seed * 31 + c);
      LineClient client;
      if (!client.Connect(env->service->port())) {
        per[c].failures.push_back("client cannot connect");
        return;
      }
      uint64_t n = 0;
      do {
        for (const Op* op : ScanRound(variants, rng)) {
          ServiceRead(&client, *op, "c" + std::to_string(c) + "q" + std::to_string(n++),
                      &per[c]);
        }
      } while (Clock::now() < deadline);
    });
  }
  for (std::thread& t : threads) t.join();
  o.phase_s = std::chrono::duration<double>(Clock::now() - start).count();
  o.delta = Delta(before, ReadCounters(env->db, env->segments.get()));
  auto s1 = StatsLine(&stats_client);
  for (const PhaseStats& p : per) o.phase.Merge(p);
  FoldInto(o.phase, r);
  if (!s0.ok() || !s1.ok()) {
    r->Error("service S line unreadable");
  } else {
    o.service_delta = StatsDelta(s0.value(), s1.value());
    uint64_t replies = 0;
    for (const auto& [cls, t] : o.phase.classes) replies += t.attempted - t.failed;
    const std::string why = CheckServiceTotals(
        replies, o.service_delta.queries_ok, o.service_delta.queries_admitted);
    if (!why.empty()) r->Error(why);
  }

  ReplayStats rs;
  if (tracer != nullptr) {
    PhaseStats replay;
    LineClient client;
    if (!client.Connect(env->service->port())) {
      r->Error("cannot connect to the service");
      return;
    }
    std::mt19937_64 rng(config.seed * 37);
    const Clock::time_point stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                      std::chrono::duration<double>(config.seconds / 4));
    uint64_t id = 0;
    do {
      for (const Op* op : ScanRound(variants, rng)) {
        Scope root(tracer, op->cls, -1, ++id);
        CheckReplayAnswer(ReplayLayers(env, tracer, root.id(), id, op->vql, &rs),
                          op->expected, *op, &replay);
        Scope s(tracer, "service.round_trip", root.id(), id);
        ServiceRead(&client, *op, "r" + std::to_string(id), &replay);
      }
    } while (Clock::now() < stop);
    FoldInto(replay, r);
  }
  env->service->Stop();
  // The service has no write path, and a write would close the segment
  // versions the scans read: the write probes run after it stopped.
  TimeWriteProbes(env, config, tracer, &o, r);
  CheckStoreMatchesCopy(env, r);
  const storage::Pager* pager = env->segments->pager();
  r->facts.push_back({"documents", std::to_string(env->copy.documents.size())});
  r->facts.push_back({"paragraphs", std::to_string(env->copy.paragraphs.size())});
  r->facts.push_back({"clients", std::to_string(clients)});
  r->facts.push_back({"cache_bytes", std::to_string(kScanCachePages * pager->page_size())});
  std::FILE* f = std::fopen(env->page_file.c_str(), "rb");
  if (f != nullptr) {
    std::fseek(f, 0, SEEK_END);
    r->facts.push_back({"page_file_bytes", std::to_string(std::ftell(f))});
    std::fclose(f);
  }
  if (tracer != nullptr) {
    PerLayer(*env, o, *tracer, rs, r);
  } else {
    EndToEnd(*env, o, r);
  }
}

void RunReadWrite(Env* env, const RunConfig& config, Tracer* tracer,
                  Report* r) {
  const size_t readers = ClientThreads() - 1;
  Outcome o;
  uint64_t seq = 0;
  std::mt19937_64 writer_rng(config.seed * 41 + 3);
  std::vector<std::vector<ReadRecord>> reader_log(readers);
  std::vector<PhaseStats> per(readers + 1);
  // write_number sets number = 4 + seq, and the writer's seq advances
  // by one per writer operation: after r rounds it is r * WriterRound's
  // size, so every reader knows the recent numbers from its round count.
  auto recent = [](uint64_t seq_now) {
    return 4 + std::max<int64_t>(0, static_cast<int64_t>(seq_now) - kRecentWrites);
  };

  // Per thread (readers first, the writer last): how long each of its
  // rounds took, gate wait excluded.
  std::vector<std::vector<double>> round_ms(readers + 1);
  NoteHarness(env);
  const Counters before = ReadCounters(env->db, nullptr);
  const Clock::time_point start = Clock::now();
  RoundGate gate(readers + 1,
                 start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(config.seconds)));
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    do {
      const Clock::time_point t0 = Clock::now();
      for (Template t : WriterRound()) {
        WriterStep(env, WriterOp(env, t, writer_rng, config.seed, &seq),
                   &per[readers], nullptr, 0);
      }
      round_ms[readers].push_back(MsBetween(t0, Clock::now()));
    } while (gate.Next());
  });
  for (size_t c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937_64 rng(config.seed * 43 + c);
      uint64_t round = 0;
      do {
        const Clock::time_point t0 = Clock::now();
        for (Template t : ReaderRound()) {
          const Op op = ReaderOp(env->copy, t, rng,
                                 recent(round * WriterRound().size()));
          engine::QueryOutcome out = SubmitRead(env->session.get(), op.vql, op, &per[c]);
          if (!out.status.ok()) {
            per[c].Fail(op, out.status.ToString());
            continue;
          }
          reader_log[c].push_back(
              RecordRead(op, out.stats.snapshot_epoch, out.result.result));
        }
        round_ms[c].push_back(MsBetween(t0, Clock::now()));
        ++round;
      } while (gate.Next());
    });
  }
  for (std::thread& t : threads) t.join();
  o.phase_s = std::chrono::duration<double>(Clock::now() - start).count();
  o.delta = Delta(before, ReadCounters(env->db, nullptr));
  o.write_delta = o.delta;
  for (const PhaseStats& p : per) o.phase.Merge(p);
  o.writes = per[readers];
  FoldInto(o.phase, r);
  for (size_t c = 0; c < readers; ++c) {
    o.logged_reads += reader_log[c].size();
    std::vector<std::string> errors;
    const size_t bad = CheckReads(*env->answerer, reader_log[c], &errors);
    for (const std::string& e : errors) r->Error(e);
    if (bad > errors.size()) r->Error(std::to_string(bad) + " reads disagree with the copy");
  }
  const uint64_t acked = per[readers].acked;
  const std::string why = CheckWriteTotals(acked, o.delta.epochs);
  if (!why.empty()) r->Error(why);

  ReplayStats rs;
  if (tracer != nullptr) {
    PhaseStats replay;
    std::mt19937_64 rng(config.seed * 47);
    const Clock::time_point stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                      std::chrono::duration<double>(config.seconds / 4));
    uint64_t id = 0;
    do {
      for (Template t : WriterRound()) {
        WriterStep(env, WriterOp(env, t, writer_rng, config.seed, &seq),
                   &replay, tracer, ++id);
      }
      for (size_t c = 0; c < readers; ++c) {
        for (Template t : ReaderRound()) {
          const Op op = ReaderOp(env->copy, t, rng, recent(seq));
          Scope root(tracer, op.cls, -1, ++id);
          const Result<Value> layers = ReplayLayers(env, tracer, root.id(), id, op.vql, &rs);
          engine::QueryOutcome out;
          {
            Scope s(tracer, "engine.submit", root.id(), id);
            out = SubmitRead(env->session.get(), op.vql, op, &replay);
          }
          if (!out.status.ok()) {
            replay.Fail(op, out.status.ToString());
            continue;
          }
          // No writer runs during the replay: both answers are the
          // copy's latest state.
          const Expectation want =
              Expect(env->answerer->Expected(op, out.stats.snapshot_epoch));
          CheckReplayAnswer(layers, want, op, &replay);
          if (!Matches(want, out.result.result)) {
            replay.Wrong(op, "Submit answer differs from the copy");
          }
        }
      }
    } while (Clock::now() < stop);
    FoldInto(replay, r);
  }
  r->facts.push_back({"documents", std::to_string(env->copy.documents.size())});
  r->facts.push_back({"paragraphs", std::to_string(env->copy.paragraphs.size())});
  CheckStoreMatchesCopy(env, r);
  r->facts.push_back({"clients", "1 writer + " + std::to_string(readers) + " readers"});
  r->facts.push_back({"writes_acknowledged", std::to_string(acked)});
  // How the gated rounds balance: each party's median round, and the
  // share of the phase it spent waiting at the gate.
  std::vector<double> reader_rounds;
  double reader_busy_ms = 0;
  for (size_t c = 0; c < readers; ++c) {
    reader_rounds.insert(reader_rounds.end(), round_ms[c].begin(), round_ms[c].end());
    for (double ms : round_ms[c]) reader_busy_ms += ms;
  }
  double writer_busy_ms = 0;
  for (double ms : round_ms[readers]) writer_busy_ms += ms;
  const double phase_ms = o.phase_s * 1e3;
  r->facts.push_back({"rounds", std::to_string(round_ms[readers].size())});
  r->facts.push_back({"writer_round_p50_ms",
                      std::to_string(Percentile(round_ms[readers], 0.5))});
  r->facts.push_back({"reader_round_p50_ms", std::to_string(Percentile(reader_rounds, 0.5))});
  r->facts.push_back({"writer_gate_wait_share",
                      std::to_string(1.0 - Ratio(writer_busy_ms, phase_ms))});
  r->facts.push_back(
      {"reader_gate_wait_share",
       std::to_string(1.0 - Ratio(reader_busy_ms, phase_ms * static_cast<double>(readers)))});
  if (tracer != nullptr) {
    PerLayer(*env, o, *tracer, rs, r);
  } else {
    EndToEnd(*env, o, r);
  }
}

}  // namespace

Report RunWorkload(const RunConfig& config, Clock::time_point process_start) {
  Report report;
  std::unique_ptr<Tracer> tracer;
  if (config.trace) tracer = std::make_unique<Tracer>();
  Env env;
  Status s = SetUp(config, process_start, tracer.get(), &env);
  if (!s.ok()) {
    report.Error("set-up failed: " + s.ToString());
    return report;
  }
  if (config.workload == "paper_methods") {
    RunPaperMethods(&env, config, tracer.get(), &report);
  } else if (config.workload == "scan_service") {
    RunScanService(&env, config, tracer.get(), &report);
  } else {
    RunReadWrite(&env, config, tracer.get(), &report);
  }
  if (tracer != nullptr) {
    report.trace_path = std::string(kOutDir) + "/trace-" + config.workload + "-seed" +
                        std::to_string(config.seed) + ".json";
    if (!tracer->Write(report.trace_path)) {
      report.Error("cannot write " + report.trace_path);
    }
    // Tracing overhead: the spans' own cost per replayed operation, and
    // the real operation's latency as measured inside the traced replay
    // (compare with an untraced run's latency_p50_ms).
    const double per_op = Ratio(static_cast<double>(tracer->size()),
                                static_cast<double>(tracer->ops()));
    const double cost = Tracer::SpanCostNs();
    report.facts.push_back({"spans", std::to_string(tracer->size())});
    report.facts.push_back({"spans_per_op", std::to_string(per_op)});
    report.facts.push_back({"span_cost_ns", std::to_string(cost)});
    report.facts.push_back({"tracing_overhead_us_per_op", std::to_string(per_op * cost / 1e3)});
    report.facts.push_back(
        {"traced_op_p50_ms",
         std::to_string(tracer->MedianMs({"engine.submit", "service.round_trip"}))});
  }
  return report;
}

}  // namespace perfbench
