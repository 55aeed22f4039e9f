// The benchmark's independent answer check. At set-up the corpus is
// copied out of the store once, through ObjectStore property reads,
// into the plain structures below; every expected answer is then
// computed from that copy with plain loops, a whitespace tokenizer of
// its own and the paper's method definitions (§2.1). Nothing here uses
// vql, algebra, optimizer, exec, methods, extindex or storage, so a
// fault in any of those shows as a mismatch instead of being repeated
// by the check.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "objstore/object_store.h"
#include "schema/catalog.h"
#include "types/value.h"

namespace perfbench {

using vodak::Epoch;
using vodak::Oid;
using vodak::Value;

/// A value with its write history: (commit epoch, value) pairs in
/// ascending epoch order. The first entry is the value the copy was
/// taken with, valid from epoch 0.
template <typename T>
class History {
 public:
  History() = default;
  explicit History(T initial) { versions_.emplace_back(0, std::move(initial)); }

  /// Records a write that became visible at `commit`.
  void Set(Epoch commit, T value) {
    versions_.emplace_back(commit, std::move(value));
  }
  /// The value a reader pinned at `at` must see.
  const T& At(Epoch at) const {
    auto it = std::upper_bound(
        versions_.begin(), versions_.end(), at,
        [](Epoch e, const std::pair<Epoch, T>& v) { return e < v.first; });
    return std::prev(it)->second;
  }
  const T& Latest() const { return versions_.back().second; }
  bool empty() const { return versions_.empty(); }

 private:
  std::vector<std::pair<Epoch, T>> versions_;
};

struct ParagraphRec {
  Oid oid;
  uint32_t section = 0;  // index into CorpusCopy::sections
  History<int64_t> number;
  History<std::string> content;  // kText, once CopyContent copied it
};

struct SectionRec {
  Oid oid;
  int64_t number = 0;
  std::string title;
  uint32_t document = 0;  // index into CorpusCopy::documents
  std::vector<uint32_t> paragraphs;
};

struct DocumentRec {
  Oid oid;
  std::string title;
  History<std::string> author;
  std::vector<uint32_t> sections;
};

/// How Paragraph.content is copied. It is most of the corpus's bytes,
/// so each workload copies only what its operations need.
enum class ContentCopy {
  kNone,   // no operation reads or writes content
  kText,   // content is written (kKbDrift): the text of each paragraph
           // a write targets, with its history (see CopyContent)
  kWords,  // content is only searched: each paragraph's word ids
};

struct CorpusCopy {
  std::vector<DocumentRec> documents;
  std::vector<SectionRec> sections;
  std::vector<ParagraphRec> paragraphs;
  ContentCopy content = ContentCopy::kNone;
  /// kWords: every word seen, its id, and per paragraph the sorted,
  /// unique ids of its words and its word count.
  std::unordered_map<std::string, uint32_t> word_ids;
  std::vector<std::vector<uint32_t>> words;
  std::vector<uint32_t> word_counts;
};

/// Copies Document, Section and Paragraph out of `store` at its latest
/// epoch, one GetProperty call per attribute, and Paragraph.content as
/// `content` says.
vodak::Status CopyCorpus(const vodak::Catalog& catalog,
                         const vodak::ObjectStore& store, ContentCopy content,
                         CorpusCopy* out);

/// kText: copies paragraph `p`'s content out of `store`, unless it was
/// copied before. Call it before the first write to `p`: only kKbDrift
/// writes content, so until then the store holds the content as of
/// epoch 0. The other paragraphs' text, most of the corpus's bytes, is
/// never copied.
vodak::Status CopyContent(const vodak::Catalog& catalog,
                          const vodak::ObjectStore& store, uint32_t p,
                          CorpusCopy* copy);

/// Lower-cased runs of letters and digits: the paper's word notion.
std::vector<std::string> Words(const std::string& text);

/// contains_string(s): every word of `query` occurs in `content`; a
/// query without words matches nothing.
bool ContainsAllWords(const std::vector<std::string>& sorted_content_words,
                      const std::string& query);

/// What a read must return, kept as its row count and two digests
/// rather than the answer itself, so a run's expected answers take a
/// few bytes each.
struct Expectation {
  size_t rows = 0;
  uint64_t digest = 0;    // ValueDigest of the answer
  std::string wire_hash;  // the service reply's hash= for the answer
};

Expectation Expect(const Value& answer);
/// True when `got` has the expected rows and digest.
bool Matches(const Expectation& want, const Value& got);

/// Every operation the three workloads send. Reads compare against
/// Expected(); writes are applied to the copy by ApplyWrite().
enum class Template {
  // paper_methods
  kExample4,      // contains_string AND (p->document()).title == t
  kE1Path,        // (p->document()).title == t
  kE2Index,       // d.title == t
  kE3Inverse,     // p.section.document IS-IN select_by_index(t)
  kE4Inverse,     // p.section IS-IN (select_by_index(t)).sections
  kE5Contains,    // p->contains_string(s)
  kE5Retrieve,    // FROM Paragraph->retrieve_by_string(s)
  kLarge,         // p->wordCount() > threshold
  kExample2,      // dependent range d->paragraphs()
  // scan_service
  kScanNumbers,   // ACCESS p.number
  kRangeGe,       // p.number >= k
  kPointEq,       // p.number == k
  kRangeBetween,  // p.number >= k AND p.number <= k + 1
  kSectionEq,     // s.number == k
  kDocTitles,     // ACCESS d.title
  kDocProjection, // ACCESS [a: d.author, t: d.title]
  kPathTitles,    // ACCESS p.section.document.title WHERE p.number == k
  // read_write reads
  kReadDocParagraphs,  // [n, p] WHERE (p->document()).title == t
  kReadSectionLink,    // [n, p] WHERE p.section IS-IN (...).sections
  kReadAuthor,         // [a, t] WHERE d.title == t
  kReadNumbersAbove,   // [n, p] WHERE p.number >= k
  // writes
  kWriteNumber,   // UPDATE Paragraph SET number
  kWriteAuthor,   // UPDATE Document SET author
  kKbDrift,       // UPDATE Paragraph SET content (+ marker), then read
};

struct Op {
  std::string cls;  // operation class, as reported per class
  Template tmpl = Template::kExample4;
  /// The VQL sent (for kKbDrift: the write; `read_vql` is the read).
  std::string vql;
  std::string read_vql;
  std::string term;        // search string of the IR templates
  uint32_t document = 0;   // document index (title templates, kWriteAuthor)
  uint32_t paragraph = 0;  // target of kWriteNumber / kKbDrift
  int64_t k = 0;           // integer parameter / new paragraph number
  std::string text;        // new author / new content
  /// Static workloads: the answer, computed at set-up.
  Expectation expected;
};

/// Answers read templates from the copy. Content is searched through
/// the copy's word ids, or, for a copy of the text, by tokenizing the
/// text as of the read's epoch.
class Answerer {
 public:
  Answerer(const CorpusCopy* copy, uint32_t large_threshold);

  /// The answer of read op `op` (for kKbDrift: of its read) at `at`.
  Value Expected(const Op& op, Epoch at) const;

 private:
  /// contains_string(query) on paragraph `p` as of `at`.
  bool Contains(uint32_t p, Epoch at, const std::string& query) const;
  size_t WordCount(uint32_t p, Epoch at) const;
  std::vector<uint32_t> ParagraphsOfTitle(const std::string& title) const;

  const CorpusCopy* copy_;
  uint32_t large_threshold_;
};

/// Applies an acknowledged write to the copy at its commit epoch.
void ApplyWrite(CorpusCopy* copy, const Op& op, Epoch commit);

/// Checks one service reply against the expected set: the status is
/// OK, the id is the one sent, and rows= and hash= equal the expected
/// set's size and digest. Returns "" or the reason.
std::string CheckReply(const std::string& reply_line, const std::string& id,
                       const Expectation& expected);

/// Totals reached by independent paths must agree: the replies the
/// clients counted against the service's `S`-line counters, and the
/// writes acknowledged against the store's committed epochs. Returns
/// "" or the reason.
std::string CheckServiceTotals(uint64_t replies_counted, uint64_t ok_delta,
                               uint64_t admitted_delta);
std::string CheckWriteTotals(uint64_t writes_acknowledged,
                             uint64_t epochs_committed_delta);

/// An order-sensitive 64-bit digest of a value's structure (sets are
/// canonical, so equal sets digest equally). Cheap enough to take in
/// the read loop, so the log holds 40 bytes per read, not the answer.
uint64_t ValueDigest(const Value& value);

/// One read of the read_write workload as it came back: checked after
/// the timed phase against the copy at `snapshot`.
struct ReadRecord {
  Template tmpl = Template::kReadAuthor;
  uint32_t document = 0;
  int64_t k = 0;
  Epoch snapshot = 0;
  uint64_t digest = 0;
};

ReadRecord RecordRead(const Op& op, Epoch snapshot, const Value& result);

/// Checks every record; returns the number of mismatches and appends a
/// description of the first few to `errors`.
size_t CheckReads(const Answerer& answerer,
                  const std::vector<ReadRecord>& reads,
                  std::vector<std::string>* errors);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
