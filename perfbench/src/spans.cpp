#include "spans.hpp"

#include <algorithm>
#include <stdexcept>

#include "casc/telemetry/trace_json.hpp"

namespace perfbench {

std::uint64_t SpanRecorder::begin(std::string name, std::uint64_t call,
                                  std::uint32_t tag) {
  const std::uint64_t parent = open_.empty() ? 0 : open_.back();
  const std::uint64_t id = spans_.size() + 1;
  const double t = now_us();
  spans_.push_back({std::move(name), id, parent, call, tag, t, t});
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(std::uint64_t id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("SpanRecorder: spans must close innermost first");
  }
  open_.pop_back();
  spans_[id - 1].end_us = now_us();
}

std::uint64_t SpanRecorder::add(std::string name, std::uint64_t parent,
                                std::uint64_t call, double start_us,
                                double end_us, std::uint32_t tag) {
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({std::move(name), id, parent, call, tag, start_us, end_us});
  return id;
}

std::vector<double> SpanRecorder::durations_ms(std::string_view name,
                                               std::uint32_t tag) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.tag == tag) out.push_back(s.dur_ms());
  }
  return out;
}

std::vector<double> SpanRecorder::self_us() const {
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent == 0) continue;
    const Span& p = spans_[s.parent - 1];
    const double lo = std::max(s.start_us, p.start_us);
    const double hi = std::min(s.end_us, p.end_us);
    if (hi > lo) kids[s.parent - 1].emplace_back(lo, hi);
  }
  std::vector<double> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    out[i] = spans_[i].dur_us() - covered;
  }
  return out;
}

void SpanRecorder::save_perfetto(const std::string& path) const {
  casc::telemetry::TraceWriter writer;
  writer.set_process_name(0, "perfbench");
  std::vector<std::uint32_t> named;
  for (const Span& s : spans_) {
    if (std::find(named.begin(), named.end(), s.tag) == named.end()) {
      writer.set_thread_name(0, s.tag, "group " + std::to_string(s.tag));
      named.push_back(s.tag);
    }
    const auto dot = s.name.find('.');
    writer.add_slice({s.name, dot == std::string::npos ? s.name : s.name.substr(0, dot),
                      0, s.tag, s.start_us, s.dur_us()});
  }
  writer.save(path);
}

}  // namespace perfbench
