// Sustained throughput of the segmented journal store
// (src/obs/journal_segment): events/sec written through a rotating
// JournalFileSink, events/sec read back from the JSONL segment directory,
// on-disk bytes/event, segments per run, and offline compaction rate.
// The numbers bound how much conclusion traffic a production run can
// journal inside the paper's <1% overhead budget (PAPER.md §1), and
// BENCH_journal.json is the committed baseline successive commits diff
// against (scripts/journal_schema.py validates the shape in CI).
//
//   ./build/bench/journal_throughput --json BENCH_journal.json
//
// The event mix is deterministic (no Rng, no wall-clock content): a
// variance_region sweep cycling region kinds and revisions with a
// quality_cell/quality snapshot every 64 events — the same shapes the
// live pipeline emits, and enough supersession that compaction has real
// work to do.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/obs/journal_segment.hpp"
#include "src/util/table.hpp"

namespace vapro {
namespace {

constexpr int kReps = 5;
constexpr std::size_t kEvents = 50000;
constexpr const char* kKinds[3] = {"computation", "communication", "io"};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Emits the deterministic event mix into `journal`.  Every 64th/65th event
// is a quality_cell/quality pair (so each new snapshot supersedes the
// previous one), the rest are variance_region records whose revision rises
// once per 256-event "window" (so compaction keeps only the last sweep).
void emit_mix(obs::Journal& journal, std::size_t events) {
  for (std::size_t i = 0; i < events; ++i) {
    const double vt = 0.001 * static_cast<double>(i);
    const std::int64_t window = static_cast<std::int64_t>(i / 256);
    if (i % 64 == 62) {
      journal.emit("quality_cell", window, vt,
                   {obs::JournalField::str("app", "CG"),
                    obs::JournalField::str("noise", "cpu"),
                    obs::JournalField::num("recall", 0.9),
                    obs::JournalField::num("precision", 0.8)});
    } else if (i % 64 == 63) {
      journal.emit("quality", window, vt,
                   {obs::JournalField::num("recall", 0.9),
                    obs::JournalField::num("precision", 0.8),
                    obs::JournalField::num("cells", std::uint64_t{1})});
    } else {
      journal.emit(
          "variance_region", window, vt,
          {obs::JournalField::str("kind", kKinds[i % 3]),
           obs::JournalField::num("revision",
                                  static_cast<std::uint64_t>(window + 1)),
           obs::JournalField::num("rank_lo", std::uint64_t{0}),
           obs::JournalField::num("rank_hi", std::uint64_t{15}),
           obs::JournalField::num("bin_lo", static_cast<std::uint64_t>(i % 7)),
           obs::JournalField::num("bin_hi",
                                  static_cast<std::uint64_t>(i % 7 + 2)),
           obs::JournalField::num("variance_ratio",
                                  1.0 + 0.001 * static_cast<double>(i % 97)),
           obs::JournalField::num("impact_seconds",
                                  0.25 + 0.01 * static_cast<double>(i % 13))});
    }
  }
}

std::uintmax_t dir_bytes(const std::string& dir) {
  std::uintmax_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

struct SegmentResult {
  std::vector<double> write_eps;
  std::vector<double> read_eps;
  double bytes_per_event = 0.0;
  std::size_t segments = 0;
  std::string last_dir;
};

SegmentResult run_segments(const std::string& scratch) {
  SegmentResult res;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::string dir = scratch + "/jsonl-" + std::to_string(rep);
    std::filesystem::remove_all(dir);
    obs::SegmentOptions seg;
    seg.directory = dir;
    seg.max_segment_bytes = 1u << 20;  // rotation is part of the cost

    const auto t0 = std::chrono::steady_clock::now();
    {
      obs::Journal journal;
      obs::JournalFileSink sink(seg);
      if (!sink.ok()) {
        std::cerr << "cannot create segment dir " << dir << "\n";
        std::exit(1);
      }
      journal.add_sink(&sink);
      emit_mix(journal, kEvents);
      journal.flush();
      res.segments = sink.segments_opened();
    }
    res.write_eps.push_back(static_cast<double>(kEvents) / seconds_since(t0));

    const auto t1 = std::chrono::steady_clock::now();
    const obs::JournalReadResult read = obs::read_journal_dir(dir);
    if (!read.ok || read.events.size() != kEvents) {
      std::cerr << "read-back failed for " << dir << ": " << read.error
                << " (" << read.events.size() << " events)\n";
      std::exit(1);
    }
    res.read_eps.push_back(static_cast<double>(kEvents) / seconds_since(t1));
    res.bytes_per_event =
        static_cast<double>(dir_bytes(dir)) / static_cast<double>(kEvents);
    res.last_dir = dir;
  }
  return res;
}

}  // namespace
}  // namespace vapro

int main(int argc, char** argv) {
  using namespace vapro;
  bench::JsonReport report("journal_throughput", argc, argv);
  bench::print_header("Journal segment store sustained throughput",
                      "production-run deployment budget, §1 / §5");

  const std::string scratch = "/tmp/vapro_journal_bench";
  std::filesystem::remove_all(scratch);

  const SegmentResult jsonl = run_segments(scratch);

  // Offline compaction over the segment directory of the last rep: the
  // event mix leaves one live region sweep + one live quality snapshot,
  // so most of the stream is superseded.
  std::vector<double> compact_eps;
  double drop_ratio = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::string out =
        scratch + "/compacted-" + std::to_string(rep) + ".jsonl";
    obs::CompactionStats stats;
    std::string error;
    const auto t0 = std::chrono::steady_clock::now();
    if (!obs::compact_journal(jsonl.last_dir, out, &stats, &error)) {
      std::cerr << "compaction failed: " << error << "\n";
      return 1;
    }
    compact_eps.push_back(static_cast<double>(kEvents) / seconds_since(t0));
    drop_ratio = static_cast<double>(stats.dropped) /
                 static_cast<double>(stats.kept + stats.dropped);
  }

  util::TextTable table({"series", "median", "p95"});
  auto add = [&](const std::string& name, const std::vector<double>& s,
                 int precision) {
    report.record(name, s);
    table.add_row({name, util::fmt(bench::percentile(s, 0.5), precision),
                   util::fmt(bench::percentile(s, 0.95), precision)});
  };
  add("jsonl_write_events_per_sec", jsonl.write_eps, 0);
  add("jsonl_read_events_per_sec", jsonl.read_eps, 0);
  add("jsonl_bytes_per_event", {jsonl.bytes_per_event}, 1);
  add("segments_per_run", {static_cast<double>(jsonl.segments)}, 0);
  add("compact_events_per_sec", compact_eps, 0);
  add("compact_drop_ratio", {drop_ratio}, 3);
  table.print(std::cout);

  // Sanity bar (loose: this is a baseline recorder, not a perf gate — the
  // committed JSON diff is the regression signal): compaction must
  // actually drop superseded events.
  if (drop_ratio <= 0.5) {
    std::cout << "BAR FAILED: compaction dropped only " << drop_ratio * 100
              << "% of a mostly-superseded stream\n";
    return 1;
  }
  std::cout << "bar OK: compaction drops " << util::fmt(drop_ratio * 100, 1)
            << "% of the mix\n";
  return report.write() ? 0 : 1;
}
