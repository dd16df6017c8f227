// Alert rule engine: user-supplied thresholds evaluated live against the
// event journal, so a production run can page an operator the moment
// variance appears instead of after the report prints.
//
// Rules are small text expressions parsed from `--alert-rule=`:
//
//   variance_ratio > 1.2 for 3        # 3 consecutive windows above 1.2
//   worst_cell < 0.7                  # any window with a cell this slow
//   region_count >= 2 for 2
//   factor=io contribution > 0.25     # diagnosis blames io for >25%
//   shed_count > 0                    # ingest plane shed batches this window
//
// Window metrics (variance_ratio, worst_cell, region_count, coverage) come
// from each "window" journal event's detection-health fields; factor rules
// match "diagnosis_finding" events by factor name against the finding's
// share of the window's slowdown.  A rule with `for N` must hold for N
// consecutive windows before it fires, then re-arms once the condition
// breaks — so a sustained problem produces one alert, not one per window.
//
// Fired alerts go to every attached AlertSink: StderrAlertSink (tagged
// WARN line), JournalAlertSink (an "alert" event back into the journal —
// re-entrancy is handled by the journal itself), and WebhookFileSink (a
// JSONL file stub standing in for an HTTP webhook).
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/journal.hpp"

namespace vapro::obs {

struct AlertRule {
  enum class Op { kGt, kLt, kGe, kLe };

  std::string text;       // original spec, echoed in alerts
  std::string metric;     // "variance_ratio" | "worst_cell" | "region_count"
                          // | "coverage" | "factor"
  std::string factor;     // factor name when metric == "factor"
  Op op = Op::kGt;
  double threshold = 0.0;
  int for_windows = 1;    // consecutive windows the condition must hold

  bool compare(double value) const;
};

// Parses one rule spec; on failure returns false and sets `error`.  The
// threshold must be finite: inf/nan (or an overflowing 1e999) would make
// a rule that always or never fires.
bool parse_alert_rule(const std::string& spec, AlertRule* out,
                      std::string* error);

struct Alert {
  std::string rule_text;
  std::string metric;       // includes the factor name for factor rules
  double value = 0.0;       // the observation that completed the streak
  double threshold = 0.0;
  std::int64_t window = -1;
  double virtual_time = 0.0;
};

class AlertSink {
 public:
  virtual ~AlertSink() = default;
  virtual void on_alert(const Alert& alert) = 0;
};

// One WARN log line per alert, tagged "alerts".
class StderrAlertSink final : public AlertSink {
 public:
  void on_alert(const Alert& alert) override;
};

// Re-emits the alert as an "alert" journal event (type, rule, metric,
// value, threshold) so the journal is a complete record of the run.
class JournalAlertSink final : public AlertSink {
 public:
  explicit JournalAlertSink(Journal* journal) : journal_(journal) {}
  void on_alert(const Alert& alert) override;

 private:
  Journal* journal_;
};

// Webhook stub: appends one JSON object per alert to a file (creating
// parent directories), the shape an HTTP webhook would POST.
class WebhookFileSink final : public AlertSink {
 public:
  explicit WebhookFileSink(const std::string& path);
  bool ok() const { return ok_; }
  void on_alert(const Alert& alert) override;

 private:
  std::ofstream out_;
  bool ok_ = false;
  std::mutex mu_;
};

// Evaluates rules against the journal's event stream (subscribe with
// journal->add_sink(&engine)).  Not itself thread-safe beyond what the
// journal's serialized dispatch provides.
class AlertEngine final : public JournalSink {
 public:
  void add_rule(AlertRule rule);
  // Borrowed; must outlive the engine's use.
  void add_alert_sink(AlertSink* sink);

  void on_event(const JournalEvent& event) override;

  std::size_t rules() const { return states_.size(); }
  std::uint64_t alerts_fired() const { return fired_; }
  // Sink deliveries lost to injected "alerts.dispatch" drops or sinks that
  // threw; firing state is unaffected (a lost delivery never re-fires).
  std::uint64_t dispatch_faults() const { return dispatch_faults_; }

 private:
  struct RuleState {
    AlertRule rule;
    int streak = 0;          // consecutive windows the condition held
    bool active = false;     // fired and not yet re-armed
    // Factor rules: latest matching observation within the current window.
    bool factor_hit = false;
    double factor_value = 0.0;
  };
  void evaluate_window(RuleState& st, const JournalEvent& window_event);
  void fire(RuleState& st, double value, const JournalEvent& event);

  std::vector<RuleState> states_;
  std::vector<AlertSink*> sinks_;
  std::uint64_t fired_ = 0;
  std::uint64_t dispatch_faults_ = 0;
  // Ingest-plane drops ("shed" + "net_drop" events) since the last window
  // event — the observation behind `shed_count` rules.
  std::uint64_t shed_in_window_ = 0;
};

}  // namespace vapro::obs
