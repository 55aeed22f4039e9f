#include "oracle.h"

#include <cctype>
#include <cstdio>
#include <map>
#include <sstream>

namespace perfbench {

namespace {

using vodak::Status;

Status SlotOf(const vodak::Catalog& catalog, const std::string& cls,
              const std::string& prop, uint32_t* class_id, uint32_t* slot) {
  const vodak::ClassDef* def = catalog.FindClass(cls);
  if (def == nullptr) return Status::NotFound("no class " + cls);
  const vodak::PropertyDef* p = def->FindProperty(prop);
  if (p == nullptr) return Status::NotFound("no property " + cls + "." + prop);
  *class_id = def->class_id();
  *slot = p->slot;
  return Status::OK();
}

/// Reads `cls.prop` of every object of the extent.
Status ReadAll(const vodak::Catalog& catalog, const vodak::ObjectStore& store,
               const std::string& cls, const std::string& prop,
               std::vector<Oid>* extent, std::vector<Value>* values) {
  uint32_t class_id = 0;
  uint32_t slot = 0;
  VODAK_RETURN_IF_ERROR(SlotOf(catalog, cls, prop, &class_id, &slot));
  if (extent->empty()) {
    VODAK_ASSIGN_OR_RETURN(*extent, store.Extent(class_id));
  }
  values->clear();
  values->reserve(extent->size());
  for (Oid oid : *extent) {
    VODAK_ASSIGN_OR_RETURN(Value v, store.GetProperty(oid, slot));
    values->push_back(std::move(v));
  }
  return Status::OK();
}

std::string AsText(const Value& v) { return v.is_string() ? v.AsString() : ""; }

/// The reply digest: 64-bit FNV-1a over each set element's text, with a
/// separator byte after each, as the wire protocol defines `hash=`.
std::string DigestHex(const Value& value) {
  constexpr uint64_t kBasis = 1469598103934665603ull;
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h = kBasis;
  auto mix = [&h](const std::string& s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= kPrime;
    }
    h ^= 0x1f;
    h *= kPrime;
  };
  if (value.is_set()) {
    for (const Value& v : value.AsSet()) mix(v.ToString());
  } else {
    mix(value.ToString());
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

Value NumberedParagraph(const ParagraphRec& p, Epoch at) {
  return Value::Tuple(
      {{"n", Value::Int(p.number.At(at))}, {"p", Value::OfOid(p.oid)}});
}

}  // namespace

Status CopyCorpus(const vodak::Catalog& catalog,
                  const vodak::ObjectStore& store, ContentCopy content,
                  CorpusCopy* out) {
  std::vector<Oid> docs, secs, pars;
  std::vector<Value> v;
  std::map<Oid, uint32_t> doc_index, sec_index;

  VODAK_RETURN_IF_ERROR(ReadAll(catalog, store, "Document", "title", &docs, &v));
  out->documents.resize(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    out->documents[i].oid = docs[i];
    out->documents[i].title = AsText(v[i]);
    doc_index[docs[i]] = static_cast<uint32_t>(i);
  }
  VODAK_RETURN_IF_ERROR(ReadAll(catalog, store, "Document", "author", &docs, &v));
  for (size_t i = 0; i < docs.size(); ++i) {
    out->documents[i].author = History<std::string>(AsText(v[i]));
  }

  VODAK_RETURN_IF_ERROR(ReadAll(catalog, store, "Section", "number", &secs, &v));
  out->sections.resize(secs.size());
  for (size_t i = 0; i < secs.size(); ++i) {
    out->sections[i].oid = secs[i];
    out->sections[i].number = v[i].is_int() ? v[i].AsInt() : 0;
    sec_index[secs[i]] = static_cast<uint32_t>(i);
  }
  VODAK_RETURN_IF_ERROR(ReadAll(catalog, store, "Section", "title", &secs, &v));
  for (size_t i = 0; i < secs.size(); ++i) out->sections[i].title = AsText(v[i]);
  VODAK_RETURN_IF_ERROR(
      ReadAll(catalog, store, "Section", "document", &secs, &v));
  for (size_t i = 0; i < secs.size(); ++i) {
    if (!v[i].is_oid() || doc_index.count(v[i].AsOid()) == 0) {
      return Status::InvalidArgument("section without a document");
    }
    const uint32_t d = doc_index[v[i].AsOid()];
    out->sections[i].document = d;
    out->documents[d].sections.push_back(static_cast<uint32_t>(i));
  }

  VODAK_RETURN_IF_ERROR(
      ReadAll(catalog, store, "Paragraph", "section", &pars, &v));
  out->paragraphs.resize(pars.size());
  for (size_t i = 0; i < pars.size(); ++i) {
    if (!v[i].is_oid() || sec_index.count(v[i].AsOid()) == 0) {
      return Status::InvalidArgument("paragraph without a section");
    }
    const uint32_t s = sec_index[v[i].AsOid()];
    out->paragraphs[i].oid = pars[i];
    out->paragraphs[i].section = s;
    out->sections[s].paragraphs.push_back(static_cast<uint32_t>(i));
  }
  VODAK_RETURN_IF_ERROR(
      ReadAll(catalog, store, "Paragraph", "number", &pars, &v));
  for (size_t i = 0; i < pars.size(); ++i) {
    out->paragraphs[i].number =
        History<int64_t>(v[i].is_int() ? v[i].AsInt() : 0);
  }
  out->content = content;
  if (content != ContentCopy::kWords) return Status::OK();
  // One paragraph at a time: no second copy of every content at once.
  uint32_t class_id = 0;
  uint32_t slot = 0;
  VODAK_RETURN_IF_ERROR(SlotOf(catalog, "Paragraph", "content", &class_id, &slot));
  for (ParagraphRec& p : out->paragraphs) {
    VODAK_ASSIGN_OR_RETURN(Value text, store.GetProperty(p.oid, slot));
    const std::vector<std::string> words = Words(AsText(text));
    std::vector<uint32_t> ids;
    ids.reserve(words.size());
    for (const std::string& w : words) {
      const uint32_t next = static_cast<uint32_t>(out->word_ids.size());
      ids.push_back(out->word_ids.emplace(w, next).first->second);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    ids.shrink_to_fit();
    out->words.push_back(std::move(ids));
    out->word_counts.push_back(static_cast<uint32_t>(words.size()));
  }
  return Status::OK();
}

Status CopyContent(const vodak::Catalog& catalog,
                   const vodak::ObjectStore& store, uint32_t p,
                   CorpusCopy* copy) {
  ParagraphRec& rec = copy->paragraphs[p];
  if (!rec.content.empty()) return Status::OK();
  uint32_t class_id = 0;
  uint32_t slot = 0;
  VODAK_RETURN_IF_ERROR(SlotOf(catalog, "Paragraph", "content", &class_id, &slot));
  VODAK_ASSIGN_OR_RETURN(Value text, store.GetProperty(rec.oid, slot));
  rec.content = History<std::string>(AsText(text));
  return Status::OK();
}

std::vector<std::string> Words(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u)) {
      cur.push_back(static_cast<char>(std::tolower(u)));
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

bool ContainsAllWords(const std::vector<std::string>& sorted_content_words,
                      const std::string& query) {
  const std::vector<std::string> wanted = Words(query);
  if (wanted.empty()) return false;
  for (const std::string& w : wanted) {
    if (!std::binary_search(sorted_content_words.begin(),
                            sorted_content_words.end(), w)) {
      return false;
    }
  }
  return true;
}

Answerer::Answerer(const CorpusCopy* copy, uint32_t large_threshold)
    : copy_(copy), large_threshold_(large_threshold) {}

bool Answerer::Contains(uint32_t p, Epoch at, const std::string& query) const {
  if (copy_->content == ContentCopy::kText) {
    std::vector<std::string> words = Words(copy_->paragraphs[p].content.At(at));
    std::sort(words.begin(), words.end());
    return ContainsAllWords(words, query);
  }
  const std::vector<std::string> wanted = Words(query);
  if (wanted.empty() || copy_->content != ContentCopy::kWords) return false;
  const std::vector<uint32_t>& ids = copy_->words[p];
  for (const std::string& w : wanted) {
    auto it = copy_->word_ids.find(w);
    if (it == copy_->word_ids.end() ||
        !std::binary_search(ids.begin(), ids.end(), it->second)) {
      return false;
    }
  }
  return true;
}

size_t Answerer::WordCount(uint32_t p, Epoch at) const {
  switch (copy_->content) {
    case ContentCopy::kText:
      return Words(copy_->paragraphs[p].content.At(at)).size();
    case ContentCopy::kWords:
      return copy_->word_counts[p];
    case ContentCopy::kNone:
      break;
  }
  return 0;
}

std::vector<uint32_t> Answerer::ParagraphsOfTitle(
    const std::string& title) const {
  std::vector<uint32_t> out;
  for (const DocumentRec& d : copy_->documents) {
    if (d.title != title) continue;
    for (uint32_t s : d.sections) {
      for (uint32_t p : copy_->sections[s].paragraphs) out.push_back(p);
    }
  }
  return out;
}

Value Answerer::Expected(const Op& op, Epoch at) const {
  const CorpusCopy& c = *copy_;
  const std::string title =
      op.document < c.documents.size() ? c.documents[op.document].title : "";
  std::vector<Value> out;
  auto contains = [&](uint32_t p, const std::string& s) {
    return Contains(p, at, s);
  };
  switch (op.tmpl) {
    case Template::kExample4:
      for (uint32_t p : ParagraphsOfTitle(title)) {
        if (contains(p, op.term)) out.push_back(Value::OfOid(c.paragraphs[p].oid));
      }
      break;
    case Template::kE1Path:
    case Template::kE3Inverse:
    case Template::kE4Inverse:
      for (uint32_t p : ParagraphsOfTitle(title)) {
        out.push_back(Value::OfOid(c.paragraphs[p].oid));
      }
      break;
    case Template::kE2Index:
      for (const DocumentRec& d : c.documents) {
        if (d.title == title) out.push_back(Value::OfOid(d.oid));
      }
      break;
    case Template::kE5Contains:
    case Template::kE5Retrieve:
      for (uint32_t p = 0; p < c.paragraphs.size(); ++p) {
        if (contains(p, op.term)) out.push_back(Value::OfOid(c.paragraphs[p].oid));
      }
      break;
    case Template::kKbDrift:
      // Every marker word is fresh, so only the paragraph it was
      // appended to can hold it.
      if (contains(op.paragraph, op.term)) {
        out.push_back(Value::OfOid(c.paragraphs[op.paragraph].oid));
      }
      break;
    case Template::kLarge:
      for (uint32_t p = 0; p < c.paragraphs.size(); ++p) {
        if (WordCount(p, at) > large_threshold_) {
          out.push_back(Value::OfOid(c.paragraphs[p].oid));
        }
      }
      break;
    case Template::kExample2:
      for (const DocumentRec& d : c.documents) {
        bool hit = false;
        for (uint32_t s : d.sections) {
          for (uint32_t p : c.sections[s].paragraphs) hit = hit || contains(p, op.term);
        }
        if (hit) out.push_back(Value::String(d.title));
      }
      break;
    case Template::kScanNumbers:
      for (const ParagraphRec& p : c.paragraphs) out.push_back(Value::Int(p.number.At(at)));
      break;
    case Template::kRangeGe:
    case Template::kPointEq:
    case Template::kRangeBetween:
      for (const ParagraphRec& p : c.paragraphs) {
        const int64_t n = p.number.At(at);
        const bool keep = op.tmpl == Template::kRangeGe   ? n >= op.k
                          : op.tmpl == Template::kPointEq ? n == op.k
                                                          : n >= op.k && n <= op.k + 1;
        if (keep) out.push_back(Value::OfOid(p.oid));
      }
      break;
    case Template::kSectionEq:
      for (const SectionRec& s : c.sections) {
        if (s.number == op.k) out.push_back(Value::OfOid(s.oid));
      }
      break;
    case Template::kDocTitles:
      for (const DocumentRec& d : c.documents) out.push_back(Value::String(d.title));
      break;
    case Template::kDocProjection:
      for (const DocumentRec& d : c.documents) {
        out.push_back(Value::Tuple({{"a", Value::String(d.author.At(at))},
                                    {"t", Value::String(d.title)}}));
      }
      break;
    case Template::kPathTitles:
      for (const ParagraphRec& p : c.paragraphs) {
        if (p.number.At(at) != op.k) continue;
        out.push_back(Value::String(
            c.documents[c.sections[p.section].document].title));
      }
      break;
    case Template::kReadDocParagraphs:
    case Template::kReadSectionLink:
      for (uint32_t p : ParagraphsOfTitle(title)) {
        out.push_back(NumberedParagraph(c.paragraphs[p], at));
      }
      break;
    case Template::kReadAuthor:
      for (const DocumentRec& d : c.documents) {
        if (d.title != title) continue;
        out.push_back(Value::Tuple({{"a", Value::String(d.author.At(at))},
                                    {"t", Value::String(d.title)}}));
      }
      break;
    case Template::kReadNumbersAbove:
      for (const ParagraphRec& p : c.paragraphs) {
        if (p.number.At(at) >= op.k) out.push_back(NumberedParagraph(p, at));
      }
      break;
    case Template::kWriteNumber:
    case Template::kWriteAuthor:
      // A single-row UPDATE acknowledges the number of rows it changed.
      return Value::Int(1);
  }
  return Value::Set(std::move(out));
}

void ApplyWrite(CorpusCopy* copy, const Op& op, Epoch commit) {
  switch (op.tmpl) {
    case Template::kWriteNumber:
      copy->paragraphs[op.paragraph].number.Set(commit, op.k);
      break;
    case Template::kWriteAuthor:
      copy->documents[op.document].author.Set(commit, op.text);
      break;
    case Template::kKbDrift:
      copy->paragraphs[op.paragraph].content.Set(commit, op.text);
      break;
    default:
      break;
  }
}

Expectation Expect(const Value& answer) {
  Expectation e;
  e.rows = answer.is_set() ? answer.AsSet().size() : 1;
  e.digest = ValueDigest(answer);
  e.wire_hash = DigestHex(answer);
  return e;
}

bool Matches(const Expectation& want, const Value& got) {
  const size_t rows = got.is_set() ? got.AsSet().size() : 1;
  return rows == want.rows && ValueDigest(got) == want.digest;
}

std::string CheckReply(const std::string& reply_line, const std::string& id,
                       const Expectation& expected) {
  std::istringstream in(reply_line);
  std::string kind, got_id, status;
  in >> kind >> got_id >> status;
  if (kind != "R") return "not a reply line: " + reply_line;
  if (got_id != id) return "reply for " + got_id + " where " + id + " was sent";
  if (status != "OK") return "status " + status + ": " + reply_line;
  std::string rows, hash, field;
  while (in >> field) {
    if (field.rfind("rows=", 0) == 0) rows = field.substr(5);
    if (field.rfind("hash=", 0) == 0) hash = field.substr(5);
  }
  if (rows != std::to_string(expected.rows)) {
    return "rows=" + rows + ", expected " + std::to_string(expected.rows);
  }
  if (hash != expected.wire_hash) {
    return "hash=" + hash + ", expected " + expected.wire_hash;
  }
  return "";
}

std::string CheckServiceTotals(uint64_t replies_counted, uint64_t ok_delta,
                               uint64_t admitted_delta) {
  if (replies_counted == ok_delta && replies_counted == admitted_delta) {
    return "";
  }
  return "clients counted " + std::to_string(replies_counted) +
         " OK replies; the service counted " + std::to_string(ok_delta) +
         " ok of " + std::to_string(admitted_delta) + " admitted";
}

std::string CheckWriteTotals(uint64_t writes_acknowledged,
                             uint64_t epochs_committed_delta) {
  if (writes_acknowledged == epochs_committed_delta) return "";
  return std::to_string(writes_acknowledged) +
         " writes acknowledged but the store committed " +
         std::to_string(epochs_committed_delta) + " epochs";
}

uint64_t ValueDigest(const Value& value) {
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h = 1469598103934665603ull ^ static_cast<uint64_t>(value.kind());
  auto mix = [&h](uint64_t x) { h = (h ^ x) * kPrime; };
  if (value.is_int()) {
    mix(static_cast<uint64_t>(value.AsInt()));
  } else if (value.is_oid()) {
    mix(value.AsOid().Hash());
  } else if (value.is_string()) {
    mix(std::hash<std::string>()(value.AsString()));
  } else if (value.is_set()) {
    for (const Value& v : value.AsSet()) mix(ValueDigest(v));
  } else if (value.is_tuple()) {
    for (const auto& [name, v] : value.AsTuple()) {
      mix(std::hash<std::string>()(name));
      mix(ValueDigest(v));
    }
  } else {
    mix(std::hash<std::string>()(value.ToString()));
  }
  return h;
}

ReadRecord RecordRead(const Op& op, Epoch snapshot, const Value& result) {
  ReadRecord r;
  r.tmpl = op.tmpl;
  r.document = op.document;
  r.k = op.k;
  r.snapshot = snapshot;
  r.digest = ValueDigest(result);
  return r;
}

size_t CheckReads(const Answerer& answerer,
                  const std::vector<ReadRecord>& reads,
                  std::vector<std::string>* errors) {
  size_t bad = 0;
  for (const ReadRecord& r : reads) {
    Op op;
    op.tmpl = r.tmpl;
    op.document = r.document;
    op.k = r.k;
    if (r.digest == ValueDigest(answerer.Expected(op, r.snapshot))) continue;
    if (++bad <= 3) {
      errors->push_back("read template " +
                        std::to_string(static_cast<int>(r.tmpl)) +
                        " on document " + std::to_string(r.document) +
                        " at epoch " + std::to_string(r.snapshot) +
                        " disagrees with the copy");
    }
  }
  return bad;
}

}  // namespace perfbench
