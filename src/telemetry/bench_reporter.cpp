#include "casc/telemetry/bench_reporter.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "casc/telemetry/json.hpp"

namespace casc::telemetry {

namespace {

/// Upserts into an ordered key/value vector (insertion order is the schema's
/// key order; determinism matters for golden tests and diffs).
template <typename V>
void upsert(std::vector<std::pair<std::string, V>>& kv, const std::string& key,
            V value) {
  for (auto& [k, v] : kv) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  kv.emplace_back(key, std::move(value));
}

double median_of(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : (xs[mid - 1] + xs[mid]) / 2.0;
}

}  // namespace

BenchReporter::BenchReporter(std::string name) : name_(std::move(name)) {}

void BenchReporter::set_param(const std::string& key, const std::string& value) {
  upsert(params_, key,
         std::string("\"").append(JsonWriter::escape(value)).append("\""));
}

void BenchReporter::set_param(const std::string& key, std::uint64_t value) {
  upsert(params_, key, std::to_string(value));
}

void BenchReporter::set_param(const std::string& key, double value) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.value(value);
  upsert(params_, key, os.str());
}

void BenchReporter::add_metric(const std::string& key, double value) {
  upsert(metrics_, key, value);
}

void BenchReporter::add_metric(const std::string& key, std::uint64_t value) {
  upsert(metrics_, key, static_cast<double>(value));
}

void BenchReporter::add_wall_ns(std::int64_t ns) { wall_ns_.push_back(ns); }

void BenchReporter::set_counters(const CounterSample& sample, bool available,
                                 const std::string& unavailable_reason) {
  counters_ = sample;
  counters_available_ = available;
  counters_unavailable_reason_ = available ? "" : unavailable_reason;
}

void BenchReporter::write(std::ostream& os) const {
  JsonWriter w(os, 2);
  w.begin_object();
  w.key("schema");
  w.value(kSchema);
  w.key("name");
  w.value(name_);

  w.key("params");
  w.begin_object();
  for (const auto& [k, rendered] : params_) {
    w.key(k);
    // Params are pre-rendered JSON scalars (string/number); splice verbatim.
    w.raw(rendered);
  }
  w.end_object();

  w.key("repetitions");
  w.value(static_cast<std::uint64_t>(wall_ns_.size()));

  std::vector<double> xs(wall_ns_.begin(), wall_ns_.end());
  double mean = 0, m2 = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {  // Welford
    const double d = xs[i] - mean;
    mean += d / static_cast<double>(i + 1);
    m2 += d * (xs[i] - mean);
  }
  const double stddev =
      xs.size() > 1 ? std::sqrt(m2 / static_cast<double>(xs.size() - 1)) : 0.0;
  w.key("wall_ns");
  w.begin_object();
  w.key("median");
  w.value(median_of(xs));
  w.key("min");
  w.value(xs.empty() ? 0.0 : *std::min_element(xs.begin(), xs.end()));
  w.key("max");
  w.value(xs.empty() ? 0.0 : *std::max_element(xs.begin(), xs.end()));
  w.key("mean");
  w.value(mean);
  w.key("stddev");
  w.value(stddev);
  w.end_object();

  w.key("counters_available");
  w.value(counters_available_);
  if (!counters_available_) {
    w.key("counters_unavailable_reason");
    w.value(counters_unavailable_reason_);
  }
  w.key("counters");
  w.begin_object();
  for (const CounterValue& v : counters_.values) {
    if (!v.valid) continue;
    w.key(to_string(v.counter));
    w.begin_object();
    w.key("value");
    w.value(v.value);
    w.key("scaling");
    w.value(v.scaling);
    w.end_object();
  }
  w.end_object();

  w.key("metrics");
  w.begin_object();
  for (const auto& [k, v] : metrics_) {
    w.key(k);
    w.value(v);
  }
  w.end_object();

  w.end_object();
  os << "\n";
}

std::string BenchReporter::output_path() const {
  std::string dir;
  if (const char* env = std::getenv("CASC_BENCH_DIR")) {
    if (env[0] != '\0') dir = std::string(env) + "/";
  }
  return dir + "BENCH_" + name_ + ".json";
}

std::string BenchReporter::write_file() const {
  const std::string path = output_path();
  std::ofstream out(path);
  if (!out.good()) return "";
  write(out);
  return out.good() ? path : "";
}

}  // namespace casc::telemetry
