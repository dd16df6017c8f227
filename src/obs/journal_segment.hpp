// Segmented journal store — the production-run shape of the event journal.
//
// A single ever-growing JSONL file is fine for a test run; a long-lived
// daemon needs bounded segments it can rotate, ship, and compact.
// JournalFileSink (src/obs/journal.hpp), constructed with SegmentOptions,
// writes a directory of JSONL segments
//
//   journal-000000.jsonl, journal-000001.jsonl, ...
//
// each opening with the same schema header line a single-file journal
// carries, so any segment can be read alone and a directory can be read as
// one stream.  This header holds the directory reader and offline
// compaction.
//
// Offline compaction (`compact_journal`) drops events that replay can no
// longer observe — variance_region/variance_clear snapshots below the
// final revision of their kind, and quality/quality_cell scoreboard
// snapshots superseded by a later one — and records the count in the
// header's `dropped_events` field so `vapro_replay --from-journal` still
// renders the original `events:` line.  Everything kept retains its
// original seq and raw field text, which is what makes the compacted
// replay byte-identical to the uncompacted one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/journal.hpp"

namespace vapro::obs {

// --- directory reader -----------------------------------------------------

// Reads every journal segment in `directory` (files named journal-*.jsonl,
// sorted by name) as one event stream.  Each segment must carry a valid
// header; sequence numbers must stay monotonic across segment boundaries.
// Torn-tail recovery (opts.recover_truncated_tail) applies only to the
// final segment — an earlier segment was sealed by a rotation and can
// only be short through corruption.  `compacted_dropped` sums the
// segments' `dropped_events` header fields.
JournalReadResult read_journal_dir(const std::string& directory,
                                   JournalReadOptions opts = {});

// --- writer / compaction --------------------------------------------------

// Writes `events` as a single JSONL journal file at `path`.  The header
// records `dropped_events` when non-zero.  Events keep their seq / raw field
// text, so write → read → write round-trips byte-identically.
bool write_journal_file(const std::string& path,
                        const std::vector<JournalEvent>& events,
                        std::uint64_t dropped_events, std::string* error);

struct CompactionStats {
  std::uint64_t kept = 0;
  std::uint64_t dropped = 0;
};

// In-place supersession pass: removes variance_region/variance_clear
// events below the final revision of their kind and quality/quality_cell
// snapshots older than the last scoreboard snapshot.  Every surviving
// event keeps its original seq (order is untouched), so replay of the
// kept stream reaches the same final state as replay of the full one.
CompactionStats compact_journal_events(std::vector<JournalEvent>* events);

// read (file or directory) → compact → write_journal_file.  The written
// header's dropped_events also carries forward drops recorded by earlier
// compactions of the source.  On success `stats` (if non-null) reports
// this pass's kept/dropped counts.
bool compact_journal(const std::string& source, const std::string& dest,
                     CompactionStats* stats, std::string* error);

}  // namespace vapro::obs
