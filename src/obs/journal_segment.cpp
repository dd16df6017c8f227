#include "src/obs/journal_segment.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "src/util/fs.hpp"

namespace vapro::obs {

namespace fs = std::filesystem;

// --- directory reader -----------------------------------------------------

JournalReadResult read_journal_dir(const std::string& directory,
                                   JournalReadOptions opts) {
  JournalReadResult result;
  std::vector<std::string> names;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (is_journal_segment_name(name)) names.push_back(name);
  }
  if (ec) {
    result.error = "cannot list " + directory + ": " + ec.message();
    return result;
  }
  if (names.empty()) {
    result.error = "no journal segments in " + directory;
    return result;
  }
  // Zero-padded indices make the lexicographic order the write order.
  std::sort(names.begin(), names.end());

  result.segments = names.size();
  std::int64_t last_seq = -1;
  for (std::size_t i = 0; i < names.size(); ++i) {
    JournalReadOptions seg_opts = opts;
    // A sealed segment ends with a rotation fsync; only the final segment
    // can legitimately be torn by a writer crash.
    seg_opts.recover_truncated_tail =
        opts.recover_truncated_tail && i + 1 == names.size();
    JournalReadResult seg =
        read_journal(directory + "/" + names[i], seg_opts);
    if (!seg.ok) {
      result.error = names[i] + ": " + seg.error;
      return result;
    }
    result.schema_version = std::max(result.schema_version, seg.schema_version);
    result.truncated_tail = result.truncated_tail || seg.truncated_tail;
    result.compacted_dropped += seg.compacted_dropped;
    for (JournalEvent& ev : seg.events) {
      if (static_cast<std::int64_t>(ev.seq) <= last_seq) {
        result.error = names[i] + ": non-monotonic seq " +
                       std::to_string(ev.seq) + " across segment boundary";
        return result;
      }
      last_seq = static_cast<std::int64_t>(ev.seq);
      result.events.push_back(std::move(ev));
    }
  }
  result.ok = true;
  return result;
}

// --- writer / compaction --------------------------------------------------

bool write_journal_file(const std::string& path,
                        const std::vector<JournalEvent>& events,
                        std::uint64_t dropped_events, std::string* error) {
  util::ensure_parent_dirs(path);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  out << journal_header_line(dropped_events);
  for (const JournalEvent& ev : events) out << ev.to_json_line() << '\n';
  out.flush();
  if (!out) {
    if (error) *error = "short write to " + path;
    return false;
  }
  return true;
}

CompactionStats compact_journal_events(std::vector<JournalEvent>* events) {
  CompactionStats stats;
  // Final revision per region kind: everything below it was superseded
  // in-stream and replay (core::summarize_journal) discards it anyway.
  std::uint64_t final_revision[3] = {0, 0, 0};
  constexpr const char* kKindNames[3] = {"computation", "communication", "io"};
  for (const JournalEvent& ev : *events) {
    if (ev.type != "variance_region" && ev.type != "variance_clear") continue;
    const std::string kind = ev.str("kind");
    for (int k = 0; k < 3; ++k)
      if (kind == kKindNames[k])
        final_revision[k] = std::max(
            final_revision[k], static_cast<std::uint64_t>(ev.number("revision")));
  }
  // Quality scoreboard snapshots: each `quality` event closes a snapshot
  // (its cells precede it), and a later snapshot supersedes the whole
  // earlier one.  Keep only the cells after the last-but-one `quality`
  // plus the final `quality` itself.
  std::int64_t last_quality_seq = -1;
  std::int64_t prev_quality_seq = -1;
  for (const JournalEvent& ev : *events) {
    if (ev.type != "quality") continue;
    prev_quality_seq = last_quality_seq;
    last_quality_seq = static_cast<std::int64_t>(ev.seq);
  }

  auto superseded = [&](const JournalEvent& ev) {
    if (ev.type == "variance_region" || ev.type == "variance_clear") {
      const std::string kind = ev.str("kind");
      for (int k = 0; k < 3; ++k)
        if (kind == kKindNames[k])
          return static_cast<std::uint64_t>(ev.number("revision")) <
                 final_revision[k];
      return false;
    }
    if (ev.type == "quality")
      return static_cast<std::int64_t>(ev.seq) != last_quality_seq;
    if (ev.type == "quality_cell")
      return static_cast<std::int64_t>(ev.seq) < prev_quality_seq;
    return false;
  };

  std::vector<JournalEvent> kept;
  kept.reserve(events->size());
  for (JournalEvent& ev : *events) {
    if (superseded(ev))
      ++stats.dropped;
    else
      kept.push_back(std::move(ev));
  }
  stats.kept = kept.size();
  *events = std::move(kept);
  return stats;
}

bool compact_journal(const std::string& source, const std::string& dest,
                     CompactionStats* stats, std::string* error) {
  JournalReadOptions opts;
  opts.recover_truncated_tail = true;
  JournalReadResult read = read_journal(source, opts);
  if (!read.ok) {
    if (error) *error = read.error;
    return false;
  }
  const CompactionStats pass = compact_journal_events(&read.events);
  if (stats) *stats = pass;
  return write_journal_file(dest, read.events,
                            read.compacted_dropped + pass.dropped, error);
}

}  // namespace vapro::obs
