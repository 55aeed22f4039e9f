// The benchmark's own tests: each answer check must reject what it is
// there to catch. Runs against the real engine and service on a small
// corpus:
//   - a corrupted expected answer (Submit reads and service replies),
//   - a dropped reply (client count vs the service's S-line counters),
//   - a write missing from its epoch (snapshot reads vs the copy, and
//     acknowledged writes vs committed epochs).
// Exits 0 when every check both accepts the true case and rejects the
// broken one. Run: python3 perfbench/run.py --selftest
#include <cstdio>
#include <memory>
#include <string>

#include "engine/database.h"
#include "line_client.h"
#include "oracle.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "workload/document_db.h"
#include "workload/document_knowledge.h"

namespace {

using namespace perfbench;
using vodak::engine::QueryOutcome;
using vodak::engine::QueryRequest;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

struct Fixture {
  vodak::workload::DocumentDb db;
  std::unique_ptr<vodak::engine::Database> session;
  CorpusCopy copy;

  Fixture() {
    vodak::workload::CorpusParams params;
    params.num_documents = 30;
    VODAK_CHECK(db.Init().ok());
    VODAK_CHECK(db.Populate(params).ok());
    auto s = vodak::workload::MakePaperSession(&db);
    VODAK_CHECK(s.ok());
    session = std::move(s).value();
    VODAK_CHECK(CopyCorpus(db.catalog(), db.store(), ContentCopy::kNone, &copy).ok());
  }

  QueryOutcome Submit(const std::string& vql) {
    QueryRequest req;
    req.vql = vql;
    return std::move(session->Submit({req})[0]);
  }
};

Op TitleOp(const CorpusCopy& c, Template t, uint32_t doc) {
  Op op;
  op.tmpl = t;
  op.document = doc;
  const std::string title = "'" + c.documents[doc].title + "'";
  op.vql = t == Template::kReadDocParagraphs
               ? "ACCESS [n: p.number, p: p] FROM p IN Paragraph WHERE "
                 "(p->document()).title == " + title
               : "ACCESS p FROM p IN Paragraph WHERE "
                 "(p->document()).title == " + title;
  return op;
}

void CorruptedExpectedAnswer() {
  std::printf("a corrupted expected answer is rejected\n");
  Fixture f;
  // Submit path: the optimizer's index plan against the copy.
  const Op op = TitleOp(f.copy, Template::kE1Path, 0);
  const QueryOutcome got = f.Submit(op.vql);
  Expect(got.status.ok(), "E1 query runs");
  const Answerer answerer(&f.copy, 100);
  Expect(Matches(perfbench::Expect(answerer.Expected(op, 0)), got.result.result),
         "the Submit answer matches the copy's rows and digest");
  CorpusCopy corrupted = f.copy;
  corrupted.sections[corrupted.documents[0].sections[0]].paragraphs.pop_back();
  const Answerer wrong(&corrupted, 100);
  Expect(!Matches(perfbench::Expect(wrong.Expected(op, 0)), got.result.result),
         "an expected set missing one paragraph is rejected");

  // Service path: rows= and hash= of a real reply.
  vodak::service::ServiceOptions options;
  options.optimize = true;
  vodak::service::QueryService service(f.session.get(), options);
  Expect(service.Start().ok(), "service starts");
  LineClient client;
  Expect(client.Connect(service.port()), "client connects");
  std::string reply;
  Expect(client.Call("Q q1 0 " + op.vql, &reply), "reply arrives");
  const Value want = answerer.Expected(op, 0);
  Expect(CheckReply(reply, "q1", perfbench::Expect(want)).empty(), "the true reply is accepted");
  Expect(!CheckReply(reply, "q1", perfbench::Expect(wrong.Expected(op, 0))).empty(),
         "a reply against a shorter expected set is rejected (rows=)");
  std::vector<Value> swapped = want.AsSet();
  swapped.back() = Value::OfOid(f.copy.paragraphs.back().oid);
  Expect(!CheckReply(reply, "q1", perfbench::Expect(Value::Set(swapped))).empty(),
         "a reply against a same-size, different set is rejected (hash=)");
  Expect(!Matches(perfbench::Expect(Value::Set(swapped)), got.result.result),
         "a Submit answer against a same-size, different set is rejected");
  Expect(!CheckReply(reply, "q2", perfbench::Expect(want)).empty(),
         "a reply carrying another request's id is rejected");
  service.Stop();
}

void DroppedReply() {
  std::printf("a dropped reply is rejected\n");
  Fixture f;
  vodak::service::QueryService service(f.session.get());
  Expect(service.Start().ok(), "service starts");
  LineClient client, stats;
  Expect(client.Connect(service.port()) && stats.Connect(service.port()),
         "clients connect");
  std::string line;
  Expect(stats.Call("S", &line), "S line arrives");
  auto before = vodak::service::ParseStatsLine(line);
  uint64_t replies = 0;
  for (int i = 0; i < 5; ++i) {
    std::string reply;
    if (client.Call("Q r" + std::to_string(i) + " 0 ACCESS d FROM d IN Document",
                    &reply) &&
        reply.find(" OK ") != std::string::npos) {
      ++replies;
    }
  }
  Expect(stats.Call("S", &line), "S line arrives");
  auto after = vodak::service::ParseStatsLine(line);
  Expect(before.ok() && after.ok(), "S lines parse");
  const uint64_t ok = after.value().queries_ok - before.value().queries_ok;
  const uint64_t admitted =
      after.value().queries_admitted - before.value().queries_admitted;
  Expect(CheckServiceTotals(replies, ok, admitted).empty(),
         "every reply counted: totals agree");
  Expect(!CheckServiceTotals(replies - 1, ok, admitted).empty(),
         "one reply dropped: totals disagree");
  service.Stop();
}

void WriteMissingFromItsEpoch() {
  std::printf("a write missing from its epoch is rejected\n");
  Fixture f;
  const CorpusCopy before_writes = f.copy;
  const uint64_t epochs0 =
      f.db.store().stats().epochs_committed.load(std::memory_order_relaxed);
  // Two single-row writes to document 0's first paragraph, each followed
  // by a read of that document at the snapshot Submit pins.
  const uint32_t p = f.copy.sections[f.copy.documents[0].sections[0]].paragraphs[0];
  const std::string section =
      "'" + f.copy.sections[f.copy.paragraphs[p].section].title + "'";
  const Op read = TitleOp(f.copy, Template::kReadDocParagraphs, 0);
  std::vector<Op> writes;
  std::vector<vodak::Epoch> commits;
  std::vector<ReadRecord> reads;
  int64_t current = f.copy.paragraphs[p].number.Latest();
  for (int64_t k : {100, 101}) {
    Op w;
    w.tmpl = Template::kWriteNumber;
    w.paragraph = p;
    w.k = k;
    w.vql = "UPDATE Paragraph SET number = " + std::to_string(k) +
            " WHERE self.section.title == " + section +
            " AND self.number == " + std::to_string(current);
    const QueryOutcome o = f.Submit(w.vql);
    Expect(o.status.ok() && o.result.result == Value::Int(1), "write commits one row");
    current = k;
    writes.push_back(w);
    commits.push_back(o.stats.snapshot_epoch);
    const QueryOutcome r = f.Submit(read.vql);
    Expect(r.status.ok(), "read runs");
    reads.push_back(RecordRead(read, r.stats.snapshot_epoch, r.result.result));
  }
  const uint64_t epochs =
      f.db.store().stats().epochs_committed.load(std::memory_order_relaxed) - epochs0;

  auto mismatches = [&](const CorpusCopy& copy) {
    std::vector<std::string> errors;
    return CheckReads(Answerer(&copy, 100), reads, &errors);
  };
  CorpusCopy all = before_writes;
  ApplyWrite(&all, writes[0], commits[0]);
  ApplyWrite(&all, writes[1], commits[1]);
  Expect(mismatches(all) == 0, "every write applied at its epoch: reads agree");

  CorpusCopy missing = before_writes;
  ApplyWrite(&missing, writes[0], commits[0]);
  Expect(mismatches(missing) == 1, "second write missing: its read disagrees");

  CorpusCopy late = before_writes;
  ApplyWrite(&late, writes[0], commits[0]);
  ApplyWrite(&late, writes[1], commits[1] + 1);
  Expect(mismatches(late) == 1, "second write filed one epoch late: its read disagrees");

  Expect(CheckWriteTotals(2, epochs).empty(), "two acknowledged writes, two epochs");
  Expect(!CheckWriteTotals(1, epochs).empty(),
         "an acknowledged write not counted: totals disagree");
}

}  // namespace

int main() {
  CorruptedExpectedAnswer();
  DroppedReply();
  WriteMissingFromItsEpoch();
  std::printf("%s: %d failed\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
