// Schema-versioned JSONL event journal — Vapro's machine-readable record
// of *what it concluded*, not just what it measured.
//
// One line per event: variance regions located, rare-path findings,
// progressive-diagnosis verdicts, PMU reprograms, per-window detection
// health, and fired alerts.  Events carry monotonic sequence numbers so a
// consumer can detect truncation; the first line of a journal file is a
// header object naming the schema ("vapro.journal") and its version, and
// the reader rejects any mismatch instead of guessing.
//
// Field values are serialized exactly once, at emission (doubles via
// json_number, %.17g, so they round-trip bit-exactly); the reader
// preserves the raw value text, which is what makes write → read →
// rewrite byte-identical and lets `vapro_replay --from-journal` reproduce
// the original run's detection/diagnosis summaries character for
// character.
//
// Sinks observe the event stream live: JournalFileSink appends JSONL to
// one file or to rotating segments (flushed on every window boundary by
// ObsContext), and the alert engine (alerts.hpp) subscribes as just
// another sink.  Emission from inside a sink callback (e.g. an alert
// recording itself as an event) is legal — the journal queues re-entrant
// events and drains them after the current dispatch, preserving sequence
// order without recursive locking.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vapro::obs {

inline constexpr const char* kJournalSchemaName = "vapro.journal";
// v1: detection/diagnosis conclusion events.  v2 adds the "ground_truth"
// event type (injected noise windows/ranks/factor classes — see
// src/obs/quality.hpp) and the "quality" / "quality_cell" scoreboard
// events.  v3 adds the ingest-plane degradation events: "shed" (an
// admitted-then-evicted or refused batch, with tenant/seq/fragment
// accounting — see src/net/session.hpp) and "net_drop" (a batch refused
// before admission, e.g. outside the reorder window).  Writers stamp the
// current version; the reader accepts any version in
// [kJournalMinReaderVersion, kJournalSchemaVersion] — older files simply
// contain none of the newer event types.
inline constexpr int kJournalSchemaVersion = 3;
inline constexpr int kJournalMinReaderVersion = 1;

// One "key":value pair; `json` is already valid JSON text.  Build with the
// typed factories so doubles go through json_number like every other
// machine surface.
struct JournalField {
  std::string key;
  std::string json;

  static JournalField num(const std::string& key, double v);
  static JournalField num(const std::string& key, std::uint64_t v);
  static JournalField num(const std::string& key, std::int64_t v);
  static JournalField str(const std::string& key, const std::string& v);
  static JournalField boolean(const std::string& key, bool v);
};

struct JournalEvent {
  std::uint64_t seq = 0;        // assigned by the journal, monotonic from 0
  std::string type;             // e.g. "variance_region", "rare_finding"
  std::int64_t window = -1;     // analysis-window ordinal; -1 = not tied
  double virtual_time = 0.0;    // simulator time associated with the event
  std::vector<JournalField> fields;

  // One JSON object on one line, no trailing newline.
  std::string to_json_line() const;

  // --- field accessors (for consumers; raw text stays untouched) ---
  bool has(const std::string& key) const;
  // Numeric field value; `fallback` when absent or non-numeric.
  double number(const std::string& key, double fallback = 0.0) const;
  // Unescaped string field value; empty when absent or not a string.
  std::string str(const std::string& key) const;
  bool flag(const std::string& key, bool fallback = false) const;
};

class JournalSink {
 public:
  virtual ~JournalSink() = default;
  virtual void on_event(const JournalEvent& event) = 0;
  // Window boundary: buffered sinks should push bytes to durable storage.
  virtual void flush() {}
};

// Assigns sequence numbers and fans events out to sinks.  All emission is
// serialized; re-entrant emits from inside a sink are queued and
// dispatched after the current event, in order.
class Journal {
 public:
  // Borrowed sink; must outlive the journal's use.
  void add_sink(JournalSink* sink);

  // Fills in seq and dispatches.  Returns the assigned sequence number.
  std::uint64_t emit(JournalEvent event);
  // Convenience: build-and-emit.
  std::uint64_t emit(const std::string& type, std::int64_t window,
                     double virtual_time, std::vector<JournalField> fields);

  void flush();
  std::uint64_t events_emitted() const;

 private:
  void dispatch_locked(const JournalEvent& event);

  // Recursive: a sink may emit() from inside its on_event callback (the
  // alert engine journaling a fired alert).  The re-entrant frame takes
  // the lock again on the same thread, sees dispatching_, and queues.
  mutable std::recursive_mutex mu_;
  std::uint64_t next_seq_ = 0;
  bool dispatching_ = false;
  std::vector<JournalEvent> pending_;
  std::vector<JournalSink*> sinks_;
};

// The schema header line every journal file and segment opens with;
// `dropped_events` > 0 records how many events an offline compaction
// removed (see src/obs/journal_segment.hpp).
std::string journal_header_line(std::uint64_t dropped_events = 0);

// Segment file name for index `i`: "journal-%06zu.jsonl".  Zero-padded, so
// name order is write order.
std::string journal_segment_name(std::size_t index);
// True for the names journal_segment_name produces.
bool is_journal_segment_name(const std::string& name);

struct SegmentOptions {
  std::string directory;                // created if missing
  std::uint64_t max_segment_bytes = 0;  // 0 = never rotate on size
  double max_segment_seconds = 0.0;     // 0 = never rotate on event age
};

// The journal writer: appends events as JSONL, one line per event, after
// the schema header line.  Missing parent directories are created.
//
// Constructed with a path it writes that one file and never rotates.
// Constructed with SegmentOptions it writes journal-%06zu.jsonl segments
// into the directory, rotating on size (`max_segment_bytes`) and/or event
// age (`max_segment_seconds`, virtual time so tests are deterministic);
// every segment starts with its own header, so any segment reads alone and
// the directory reads as one stream (read_journal_dir).  A directory that
// already holds a segment is refused and left untouched: this run's
// segments would interleave with the older run's, and their seqs could
// still rise across the seam.  A finished segment is flushed and fsynced
// before the next one opens, so a rotation never loses written events.
//
// A writer killed mid-line leaves a torn final line; readers drop it with
// JournalReadOptions::recover_truncated_tail.
//
// Fault sites (src/testing): "journal.write" honors short_write (torn
// line, the sink stops as a crashed writer would) and fail (ENOSPC: the
// line is dropped and counted, seq numbers keep a gap); "journal.rotate"
// honors fail (the next segment cannot be created; the active segment
// keeps growing and a later write retries the rotation).
class JournalFileSink final : public JournalSink {
 public:
  explicit JournalFileSink(const std::string& path);
  explicit JournalFileSink(SegmentOptions options);
  ~JournalFileSink() override;

  // False once the sink cannot write: it never opened, or a torn write
  // stopped it.  Safe to call from any thread.
  bool ok() const { return ok_; }
  std::size_t segments_opened() const { return segments_opened_; }
  std::uint64_t lines_written() const { return lines_written_; }
  // Lines dropped or torn by injected/real write errors.
  std::uint64_t write_faults() const { return write_faults_; }
  // Rotations that could not open their next segment.
  std::uint64_t rotate_faults() const { return rotate_faults_; }

  void on_event(const JournalEvent& event) override;
  void flush() override;

 private:
  bool open_segment_locked();
  bool should_rotate_locked(std::size_t line_bytes, double virtual_time) const;

  std::string path_;        // the single file; empty in directory mode
  SegmentOptions options_;  // directory mode when options_.directory is set
  std::FILE* file_ = nullptr;
  std::atomic<bool> ok_{false};
  std::size_t segments_opened_ = 0;
  std::uint64_t segment_bytes_ = 0;    // bytes in the active segment
  std::uint64_t segment_lines_ = 0;    // event lines in the active segment
  double segment_open_vt_ = 0.0;       // virtual time of its first event
  std::uint64_t lines_written_ = 0;
  std::uint64_t write_faults_ = 0;
  std::uint64_t rotate_faults_ = 0;
  std::mutex mu_;
};

// --- reader API -----------------------------------------------------------

struct JournalReadOptions {
  // A writer killed mid-line leaves a torn final line.  With this set the
  // reader accepts such a journal: the unparseable FINAL line is dropped,
  // every complete event before it is returned, and `truncated_tail` is
  // reported.  Corruption anywhere but the final line stays fatal.
  bool recover_truncated_tail = false;
};

struct JournalReadResult {
  bool ok = false;
  std::string error;            // set when !ok (schema mismatch, bad JSON…)
  int schema_version = 0;       // from the header line
  bool truncated_tail = false;  // a torn final line was dropped
  // Events removed by offline compaction, from the `dropped_events` header
  // field (summed across segments).  Replay adds them back into its event
  // count so a compacted journal renders identically to the original.
  std::uint64_t compacted_dropped = 0;
  std::size_t segments = 1;     // files merged (>1 only for directory reads)
  std::vector<JournalEvent> events;
};

// Parses a journal file/stream.  Fails (ok=false) on: missing or malformed
// header, schema name/version mismatch, a line that is not a flat JSON
// object of scalars, or a non-monotonic sequence number.  Sequence numbers
// may be sparse (a writer may drop lines on ENOSPC) but never reorder.
//
// When `path` names a directory, the call forwards to read_journal_dir
// (all segments, one stream; src/obs/journal_segment.hpp).
JournalReadResult read_journal(const std::string& path,
                               JournalReadOptions opts = {});
JournalReadResult parse_journal(std::istream& in, JournalReadOptions opts = {});

// JSON string escaping shared by journal/exposition/alert serializers.
std::string journal_json_escape(const std::string& s);

// The one JSON number writer: every machine-readable surface (journal,
// --json, metrics.json, /v1 routes, latency/quality/webhook documents)
// formats doubles here.  %.17g, so a double round-trips bit-exactly;
// inf and nan, which JSON cannot spell, become null.
std::string json_number(double v);

}  // namespace vapro::obs
