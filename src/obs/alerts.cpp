#include "src/obs/alerts.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "src/testing/fault.hpp"
#include "src/util/fs.hpp"
#include "src/util/log.hpp"

namespace vapro::obs {

namespace {

// Known window-event metrics an alert rule may reference.
bool is_window_metric(const std::string& m) {
  return m == "variance_ratio" || m == "worst_cell" || m == "region_count" ||
         m == "coverage" || m == "shed_count";
}

// Scoreboard metrics, carried by "quality" events (src/obs/quality.hpp).
// Kept apart from window metrics so a quality rule never evaluates against
// a window event (where the missing field would read as 0.0 and a rule
// like `quality_recall < 0.8` would always hold).
bool is_quality_metric(const std::string& m) {
  return m == "quality_precision" || m == "quality_recall" ||
         m == "quality_f1" || m == "quality_top_factor_accuracy";
}

std::vector<std::string> tokenize(const std::string& spec) {
  // Split on whitespace, but also break the comparison operator out of a
  // compact spec like "variance_ratio>1.2".
  std::vector<std::string> tokens;
  std::string cur;
  auto push = [&] {
    if (!cur.empty()) tokens.push_back(cur);
    cur.clear();
  };
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const char c = spec[i];
    if (c == ' ' || c == '\t') {
      push();
    } else if (c == '>' || c == '<') {
      push();
      std::string op(1, c);
      if (i + 1 < spec.size() && spec[i + 1] == '=') {
        op += '=';
        ++i;
      }
      tokens.push_back(op);
    } else {
      cur += c;
    }
  }
  push();
  return tokens;
}

}  // namespace

bool AlertRule::compare(double value) const {
  switch (op) {
    case Op::kGt: return value > threshold;
    case Op::kLt: return value < threshold;
    case Op::kGe: return value >= threshold;
    case Op::kLe: return value <= threshold;
  }
  return false;
}

bool parse_alert_rule(const std::string& spec, AlertRule* out,
                      std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error) *error = "bad alert rule '" + spec + "': " + what;
    return false;
  };
  std::vector<std::string> tokens = tokenize(spec);
  if (tokens.empty()) return fail("empty spec");

  AlertRule rule;
  rule.text = spec;
  std::size_t i = 0;

  // Metric: either a window metric or a factor reference
  // ("factor=io" / "factor:io", optionally followed by "contribution").
  const std::string& head = tokens[i++];
  if (head.rfind("factor=", 0) == 0 || head.rfind("factor:", 0) == 0) {
    rule.metric = "factor";
    rule.factor = head.substr(7);
    if (rule.factor.empty()) return fail("missing factor name");
    if (i < tokens.size() && tokens[i] == "contribution") ++i;
  } else if (is_window_metric(head) || is_quality_metric(head)) {
    rule.metric = head;
  } else {
    return fail("unknown metric '" + head +
                "' (want variance_ratio, worst_cell, region_count, "
                "coverage, shed_count, quality_precision, quality_recall, "
                "quality_f1, quality_top_factor_accuracy, or factor=NAME)");
  }

  if (i >= tokens.size()) return fail("missing comparison operator");
  const std::string& op = tokens[i++];
  if (op == ">") rule.op = AlertRule::Op::kGt;
  else if (op == "<") rule.op = AlertRule::Op::kLt;
  else if (op == ">=") rule.op = AlertRule::Op::kGe;
  else if (op == "<=") rule.op = AlertRule::Op::kLe;
  else return fail("unknown operator '" + op + "'");

  if (i >= tokens.size()) return fail("missing threshold");
  char* end = nullptr;
  rule.threshold = std::strtod(tokens[i].c_str(), &end);
  if (!end || *end != '\0') return fail("bad threshold '" + tokens[i] + "'");
  if (!std::isfinite(rule.threshold))
    return fail("threshold '" + tokens[i] + "' is not finite");
  ++i;

  if (i < tokens.size()) {
    if (tokens[i] != "for") return fail("expected 'for', got '" + tokens[i] + "'");
    if (++i >= tokens.size()) return fail("missing window count after 'for'");
    rule.for_windows = std::atoi(tokens[i].c_str());
    if (rule.for_windows < 1) return fail("window count must be >= 1");
    ++i;
    if (i < tokens.size() && (tokens[i] == "windows" || tokens[i] == "window"))
      ++i;
  }
  if (i != tokens.size()) return fail("trailing tokens after rule");
  *out = rule;
  return true;
}

// --- sinks ----------------------------------------------------------------

void StderrAlertSink::on_alert(const Alert& alert) {
  std::ostringstream oss;
  oss << "ALERT [" << alert.rule_text << "]: " << alert.metric << " = "
      << alert.value << " (threshold " << alert.threshold << ") at window "
      << alert.window << ", t=" << alert.virtual_time;
  util::log_line(util::LogLevel::kWarn, "alerts", oss.str());
}

void JournalAlertSink::on_alert(const Alert& alert) {
  if (!journal_) return;
  journal_->emit("alert", alert.window, alert.virtual_time,
                 {JournalField::str("rule", alert.rule_text),
                  JournalField::str("metric", alert.metric),
                  JournalField::num("value", alert.value),
                  JournalField::num("threshold", alert.threshold)});
}

WebhookFileSink::WebhookFileSink(const std::string& path) {
  util::ensure_parent_dirs(path);
  out_.open(path, std::ios::binary | std::ios::app);
  ok_ = static_cast<bool>(out_);
}

void WebhookFileSink::on_alert(const Alert& alert) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ok_) return;
  out_ << "{\"event\":\"vapro.alert\",\"rule\":\""
       << journal_json_escape(alert.rule_text) << "\",\"metric\":\""
       << journal_json_escape(alert.metric)
       << "\",\"value\":" << json_number(alert.value)
       << ",\"threshold\":" << json_number(alert.threshold)
       << ",\"window\":" << alert.window << "}\n";
  out_.flush();
}

// --- engine ---------------------------------------------------------------

void AlertEngine::add_rule(AlertRule rule) {
  RuleState st;
  st.rule = std::move(rule);
  states_.push_back(std::move(st));
}

void AlertEngine::add_alert_sink(AlertSink* sink) { sinks_.push_back(sink); }

void AlertEngine::on_event(const JournalEvent& event) {
  if (event.type == "diagnosis_finding") {
    const std::string factor = event.str("factor");
    const double share = event.number("share");
    for (RuleState& st : states_) {
      if (st.rule.metric != "factor" || st.rule.factor != factor) continue;
      if (st.rule.compare(share)) {
        st.factor_hit = true;
        st.factor_value = share;
      }
    }
    return;
  }
  if (event.type == "quality") {
    // Quality rules tick once per scoreboard publication, so `for N`
    // means N consecutive publications below/above threshold.
    for (RuleState& st : states_)
      if (is_quality_metric(st.rule.metric)) evaluate_window(st, event);
    return;
  }
  // Ingest-plane drops accumulate between window events; each window event
  // evaluates (and then resets) the count, so `shed_count > 0 for 2` means
  // two consecutive windows that both lost batches to overload.
  if (event.type == "shed" || event.type == "net_drop") {
    ++shed_in_window_;
    return;
  }
  if (event.type != "window") return;
  for (RuleState& st : states_)
    if (!is_quality_metric(st.rule.metric)) evaluate_window(st, event);
  shed_in_window_ = 0;
}

void AlertEngine::evaluate_window(RuleState& st,
                                  const JournalEvent& window_event) {
  bool holds;
  double value;
  if (st.rule.metric == "factor") {
    // Diagnosis findings for this window arrived before the window event.
    holds = st.factor_hit;
    value = st.factor_value;
    st.factor_hit = false;
    st.factor_value = 0.0;
  } else if (st.rule.metric == "shed_count") {
    value = static_cast<double>(shed_in_window_);
    holds = st.rule.compare(value);
  } else {
    value = window_event.number(st.rule.metric);
    holds = st.rule.compare(value);
  }
  if (!holds) {
    st.streak = 0;
    st.active = false;  // condition broke: re-arm
    return;
  }
  if (++st.streak >= st.rule.for_windows && !st.active) {
    st.active = true;
    fire(st, value, window_event);
  }
}

void AlertEngine::fire(RuleState& st, double value,
                       const JournalEvent& event) {
  ++fired_;
  Alert alert;
  alert.rule_text = st.rule.text;
  alert.metric = st.rule.metric == "factor"
                     ? "factor." + st.rule.factor + ".share"
                     : st.rule.metric;
  alert.value = value;
  alert.threshold = st.rule.threshold;
  alert.window = event.window;
  alert.virtual_time = event.virtual_time;
  for (AlertSink* sink : sinks_) {
    if (VAPRO_FAULT("alerts.dispatch") == testing::FaultAction::kDrop) {
      ++dispatch_faults_;
      continue;  // this sink misses the alert; the rule state already fired
    }
    // A sink that throws must not take down the analysis thread or starve
    // the remaining sinks of the alert.
    try {
      sink->on_alert(alert);
    } catch (...) {
      ++dispatch_faults_;
    }
  }
}

}  // namespace vapro::obs
