// In-memory span recorder for the traced run.
//
// Every public library call the benchmark makes in a traced section gets a
// span: name, start, end, parent span and call id.  Spans are kept in memory
// and written out once, as Perfetto JSON, when the run ends.  A layer's self
// time is its span minus the part of that interval its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint64_t parent = 0;  ///< enclosing span, 0 for a root
  std::uint64_t call = 0;    ///< spans of one benchmark call share this
  std::uint32_t tag = 0;     ///< workload-defined group (svc-mix: spec index)
  double start_us = 0.0;
  double end_us = 0.0;

  [[nodiscard]] double dur_us() const noexcept { return end_us - start_us; }
  [[nodiscard]] double dur_ms() const noexcept { return dur_us() * 1e-3; }
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() : origin_(Clock::now()) {}

  /// Microseconds since the recorder was created.
  [[nodiscard]] double now_us() const noexcept {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  /// Opens a span under the innermost open span.
  std::uint64_t begin(std::string name, std::uint64_t call, std::uint32_t tag = 0);
  /// Closes the innermost open span, which must be `id`.
  void end(std::uint64_t id);
  /// Records a finished span with explicit bounds (e.g. a duration the library
  /// reports, such as ExecResult::seconds, anchored inside its caller's span).
  std::uint64_t add(std::string name, std::uint64_t parent, std::uint64_t call,
                    double start_us, double end_us, std::uint32_t tag = 0);

  /// Runs `fn` inside a span and returns its result.
  template <typename Fn>
  decltype(auto) scope(std::string name, std::uint64_t call, Fn&& fn,
                       std::uint32_t tag = 0) {
    struct Closer {
      SpanRecorder& rec;
      std::uint64_t id;
      ~Closer() { rec.end(id); }
    } closer{*this, begin(std::move(name), call, tag)};
    return std::forward<Fn>(fn)();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint64_t next_call() noexcept { return ++calls_; }

  /// Durations (ms) of every span called `name` in group `tag`.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name,
                                                 std::uint32_t tag) const;

  /// Per span (same order as spans()): duration minus the union of its
  /// children's intervals clipped to the span.
  [[nodiscard]] std::vector<double> self_us() const;

  /// Writes every span as a Perfetto/Chrome trace (one track per root call
  /// kind); throws when the file cannot be written.
  void save_perfetto(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> open_;
  std::uint64_t calls_ = 0;
};

}  // namespace perfbench
