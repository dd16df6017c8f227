#include "src/obs/journal.hpp"

#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "src/obs/journal_segment.hpp"
#include "src/testing/fault.hpp"
#include "src/util/fs.hpp"

namespace vapro::obs {

namespace {

std::string unescape_json_string(const std::string& raw) {
  // `raw` includes the surrounding quotes.
  std::string out;
  for (std::size_t i = 1; i + 1 < raw.size(); ++i) {
    char c = raw[i];
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i + 1 >= raw.size()) break;  // dangling backslash before the quote
    switch (raw[i]) {
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        if (i + 4 < raw.size()) {
          const std::string hex = raw.substr(i + 1, 4);
          out += static_cast<char>(std::strtol(hex.c_str(), nullptr, 16));
          i += 4;
        }
        break;
      }
      default: out += raw[i];
    }
  }
  return out;
}

}  // namespace

std::string journal_json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  // inf/nan are not valid JSON: null (consumers treat it as absent).
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

JournalField JournalField::num(const std::string& key, double v) {
  return {key, json_number(v)};
}

JournalField JournalField::num(const std::string& key, std::uint64_t v) {
  return {key, std::to_string(v)};
}

JournalField JournalField::num(const std::string& key, std::int64_t v) {
  return {key, std::to_string(v)};
}

JournalField JournalField::str(const std::string& key, const std::string& v) {
  return {key, '"' + journal_json_escape(v) + '"'};
}

JournalField JournalField::boolean(const std::string& key, bool v) {
  return {key, v ? "true" : "false"};
}

std::string JournalEvent::to_json_line() const {
  std::ostringstream oss;
  oss << "{\"seq\":" << seq << ",\"type\":\"" << journal_json_escape(type)
      << '"';
  if (window >= 0) oss << ",\"window\":" << window;
  oss << ",\"t\":" << json_number(virtual_time);
  for (const JournalField& f : fields)
    oss << ",\"" << journal_json_escape(f.key) << "\":" << f.json;
  oss << '}';
  return oss.str();
}

bool JournalEvent::has(const std::string& key) const {
  for (const JournalField& f : fields)
    if (f.key == key) return true;
  return false;
}

double JournalEvent::number(const std::string& key, double fallback) const {
  for (const JournalField& f : fields) {
    if (f.key != key) continue;
    if (f.json.empty() || f.json[0] == '"' || f.json == "null" ||
        f.json == "true" || f.json == "false")
      return fallback;
    return std::strtod(f.json.c_str(), nullptr);
  }
  return fallback;
}

std::string JournalEvent::str(const std::string& key) const {
  for (const JournalField& f : fields) {
    if (f.key != key) continue;
    if (f.json.size() >= 2 && f.json.front() == '"')
      return unescape_json_string(f.json);
    return {};
  }
  return {};
}

bool JournalEvent::flag(const std::string& key, bool fallback) const {
  for (const JournalField& f : fields) {
    if (f.key != key) continue;
    if (f.json == "true") return true;
    if (f.json == "false") return false;
    return fallback;
  }
  return fallback;
}

// --- Journal --------------------------------------------------------------

void Journal::add_sink(JournalSink* sink) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  sinks_.push_back(sink);
}

std::uint64_t Journal::emit(JournalEvent event) {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  event.seq = next_seq_++;
  const std::uint64_t seq = event.seq;
  if (dispatching_) {
    // Re-entrant emit from inside a sink callback (e.g. the alert engine
    // journaling a fired alert): queue it; the outer dispatch drains.
    pending_.push_back(std::move(event));
    return seq;
  }
  dispatching_ = true;
  dispatch_locked(event);
  while (!pending_.empty()) {
    std::vector<JournalEvent> batch;
    batch.swap(pending_);
    for (const JournalEvent& ev : batch) dispatch_locked(ev);
  }
  dispatching_ = false;
  return seq;
}

std::uint64_t Journal::emit(const std::string& type, std::int64_t window,
                            double virtual_time,
                            std::vector<JournalField> fields) {
  JournalEvent ev;
  ev.type = type;
  ev.window = window;
  ev.virtual_time = virtual_time;
  ev.fields = std::move(fields);
  return emit(std::move(ev));
}

void Journal::dispatch_locked(const JournalEvent& event) {
  for (JournalSink* sink : sinks_) sink->on_event(event);
}

void Journal::flush() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  for (JournalSink* sink : sinks_) sink->flush();
}

std::uint64_t Journal::events_emitted() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return next_seq_;
}

// --- JournalFileSink ------------------------------------------------------

std::string journal_header_line(std::uint64_t dropped_events) {
  std::ostringstream oss;
  oss << "{\"type\":\"journal_header\",\"schema\":\"" << kJournalSchemaName
      << "\",\"schema_version\":" << kJournalSchemaVersion;
  if (dropped_events > 0) oss << ",\"dropped_events\":" << dropped_events;
  oss << "}\n";
  return oss.str();
}

std::string journal_segment_name(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "journal-%06zu.jsonl", index);
  return buf;
}

bool is_journal_segment_name(const std::string& name) {
  return name.starts_with("journal-") && name.ends_with(".jsonl");
}

namespace {

bool holds_segment(const std::string& directory) {
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory, ec))
    if (is_journal_segment_name(entry.path().filename().string())) return true;
  return false;  // a missing directory holds nothing
}

}  // namespace

JournalFileSink::JournalFileSink(const std::string& path) : path_(path) {
  ok_ = open_segment_locked();
}

JournalFileSink::JournalFileSink(SegmentOptions options)
    : options_(std::move(options)) {
  ok_ = !holds_segment(options_.directory) && open_segment_locked();
}

JournalFileSink::~JournalFileSink() {
  if (file_) std::fclose(file_);
}

bool JournalFileSink::open_segment_locked() {
  const std::string path =
      options_.directory.empty()
          ? path_
          : options_.directory + "/" + journal_segment_name(segments_opened_);
  util::ensure_parent_dirs(path);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const std::string header = journal_header_line();
  if (std::fwrite(header.data(), 1, header.size(), f) != header.size()) {
    std::fclose(f);
    return false;
  }
  if (file_) std::fclose(file_);
  file_ = f;
  ++segments_opened_;
  segment_bytes_ = header.size();
  segment_lines_ = 0;
  return true;
}

bool JournalFileSink::should_rotate_locked(std::size_t line_bytes,
                                           double virtual_time) const {
  // Never rotate an event-less segment: a line larger than the size cap
  // must still land somewhere, and rotation loops would otherwise spin.
  if (segment_lines_ == 0) return false;
  if (options_.max_segment_bytes > 0 &&
      segment_bytes_ + line_bytes > options_.max_segment_bytes)
    return true;
  if (options_.max_segment_seconds > 0.0 &&
      virtual_time - segment_open_vt_ >= options_.max_segment_seconds)
    return true;
  return false;
}

void JournalFileSink::on_event(const JournalEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ok_) return;
  const std::string line = event.to_json_line() + '\n';
  if (should_rotate_locked(line.size(), event.virtual_time)) {
    // The finished segment must be durable before the next one opens; on
    // failure the active segment keeps growing and the next write retries.
    std::fflush(file_);
    ::fsync(fileno(file_));
    if (VAPRO_FAULT("journal.rotate") == testing::FaultAction::kFail ||
        !open_segment_locked())
      ++rotate_faults_;
  }
  switch (VAPRO_FAULT("journal.write")) {
    case testing::FaultAction::kShortWrite:
      // Torn write: a prefix reaches the disk and the writer dies.  The
      // sink goes quiet like a crashed process; the reader's torn-tail
      // recovery drops the partial line.
      std::fwrite(line.data(), 1, line.size() / 2, file_);
      std::fflush(file_);
      ok_ = false;
      ++write_faults_;
      return;
    case testing::FaultAction::kFail:
      // ENOSPC: this line is lost but the writer keeps going — readers see
      // a seq gap, never a reorder.
      ++write_faults_;
      return;
    default:
      break;
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    ++write_faults_;
    return;
  }
  if (segment_lines_ == 0) segment_open_vt_ = event.virtual_time;
  ++segment_lines_;
  segment_bytes_ += line.size();
  ++lines_written_;
}

void JournalFileSink::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (ok_) std::fflush(file_);
}

// --- reader ---------------------------------------------------------------

namespace {

// Minimal parser for one flat JSON object of scalar values.  Captures each
// value's raw text verbatim so rewriting is byte-identical.
class LineParser {
 public:
  explicit LineParser(const std::string& line) : s_(line) {}

  bool parse(std::vector<JournalField>* out, std::string* error) {
    skip_ws();
    if (!eat('{')) return fail(error, "expected '{'");
    skip_ws();
    if (eat('}')) return finish(error);
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return fail(error, "expected key string");
      skip_ws();
      if (!eat(':')) return fail(error, "expected ':'");
      skip_ws();
      std::string raw;
      if (!parse_scalar(&raw)) return fail(error, "expected scalar value");
      out->push_back({std::move(key), std::move(raw)});
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return finish(error);
      return fail(error, "expected ',' or '}'");
    }
  }

 private:
  bool finish(std::string* error) {
    skip_ws();
    if (pos_ != s_.size()) return fail(error, "trailing characters");
    return true;
  }
  bool fail(std::string* error, const char* what) {
    if (error) *error = what;
    return false;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  // Parses a quoted string; returns the *unescaped* content.
  bool parse_string(std::string* out) {
    std::string raw;
    if (!parse_raw_string(&raw)) return false;
    *out = unescape_json_string(raw);
    return true;
  }
  bool parse_raw_string(std::string* raw) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    const std::size_t start = pos_++;
    while (pos_ < s_.size()) {
      if (s_[pos_] == '\\') {
        pos_ += 2;
        continue;
      }
      if (s_[pos_] == '"') {
        ++pos_;
        *raw = s_.substr(start, pos_ - start);
        return true;
      }
      ++pos_;
    }
    return false;
  }
  bool parse_scalar(std::string* raw) {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '"') return parse_raw_string(raw);
    if (c == '{' || c == '[') return false;  // journal values are flat
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}' &&
           !std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
    *raw = s_.substr(start, pos_ - start);
    if (*raw == "true" || *raw == "false" || *raw == "null") return true;
    // Must look like a JSON number.
    char* end = nullptr;
    std::strtod(raw->c_str(), &end);
    return end && *end == '\0' && !raw->empty();
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

JournalReadResult fail_result(const std::string& error) {
  JournalReadResult r;
  r.error = error;
  return r;
}

}  // namespace

JournalReadResult parse_journal(std::istream& in, JournalReadOptions opts) {
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  JournalReadResult result;
  bool saw_header = false;
  std::int64_t last_seq = -1;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::size_t line_no = i + 1;
    if (line.empty()) continue;
    std::vector<JournalField> fields;
    std::string err;
    if (!LineParser(line).parse(&fields, &err)) {
      // A torn final line (writer killed mid-write) can never parse as a
      // complete object — the closing '}' is the last byte out.  Recovery
      // applies only there; corruption before the tail stays fatal.
      if (opts.recover_truncated_tail && i + 1 == lines.size() && saw_header) {
        result.truncated_tail = true;
        break;
      }
      return fail_result("line " + std::to_string(line_no) + ": " + err);
    }

    JournalEvent ev;
    bool have_seq = false;
    for (JournalField& f : fields) {
      if (f.key == "seq") {
        ev.seq = static_cast<std::uint64_t>(std::strtoull(f.json.c_str(),
                                                          nullptr, 10));
        have_seq = true;
      } else if (f.key == "type") {
        if (f.json.size() >= 2 && f.json.front() == '"')
          ev.type = unescape_json_string(f.json);
      } else if (f.key == "window") {
        ev.window = static_cast<std::int64_t>(std::strtoll(f.json.c_str(),
                                                           nullptr, 10));
      } else if (f.key == "t") {
        ev.virtual_time = std::strtod(f.json.c_str(), nullptr);
      } else {
        ev.fields.push_back(std::move(f));
      }
    }

    if (!saw_header) {
      if (ev.type != "journal_header")
        return fail_result("line 1: not a vapro.journal header");
      const JournalEvent& h = ev;
      if (h.str("schema") != kJournalSchemaName)
        return fail_result("schema name mismatch: '" + h.str("schema") +
                           "' (want " + kJournalSchemaName + ")");
      result.schema_version = static_cast<int>(h.number("schema_version", -1));
      if (result.schema_version < kJournalMinReaderVersion ||
          result.schema_version > kJournalSchemaVersion)
        return fail_result(
            "schema version mismatch: journal is v" +
            std::to_string(result.schema_version) + ", reader accepts v" +
            std::to_string(kJournalMinReaderVersion) + "..v" +
            std::to_string(kJournalSchemaVersion));
      // A compacted journal's header records how many superseded events
      // were removed, so replay can reconstruct the original count.
      result.compacted_dropped +=
          static_cast<std::uint64_t>(h.number("dropped_events", 0.0));
      saw_header = true;
      continue;
    }

    if (!have_seq)
      return fail_result("line " + std::to_string(line_no) + ": missing seq");
    if (static_cast<std::int64_t>(ev.seq) <= last_seq)
      return fail_result("line " + std::to_string(line_no) +
                         ": non-monotonic seq " + std::to_string(ev.seq));
    last_seq = static_cast<std::int64_t>(ev.seq);
    result.events.push_back(std::move(ev));
  }
  if (!saw_header) return fail_result("empty journal (no header line)");
  result.ok = true;
  return result;
}

JournalReadResult read_journal(const std::string& path,
                               JournalReadOptions opts) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec))
    return read_journal_dir(path, opts);
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail_result("cannot open " + path);
  return parse_journal(in, opts);
}

}  // namespace vapro::obs
