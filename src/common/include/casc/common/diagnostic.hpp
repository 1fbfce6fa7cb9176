// Structured diagnostics for the analysis/verification pipeline.  A
// Diagnostic is one finding: a severity, a stable rule id (what was checked),
// a human-readable message, and an optional source span (line in a .casc
// spec) plus the loop/object it concerns.  The loop-spec parser, the static
// verifier passes, the trace-backed shadow checker, and the runtime preflight
// gates all speak this type, so tools (casclint) and tests can consume
// findings uniformly instead of parsing exception strings.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace casc::common {

enum class Severity : std::uint8_t { kNote, kWarning, kError };

[[nodiscard]] std::string to_string(Severity severity);

/// One finding.  `rule` ids are stable, kebab-case identifiers documented in
/// docs/ANALYSIS.md (e.g. "classify-write-ro", "hazard-cross-chunk").
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string rule;
  std::string message;
  std::string loop;    ///< loop name, when known
  std::string object;  ///< array / access the finding concerns, when known
  int line = 0;        ///< 1-based line in the source spec; 0 = no source span
};

/// Renders "error[rule] loop:line (object): message" (omitting empty parts).
[[nodiscard]] std::string render_text(const Diagnostic& diag);

/// An append-only collection of diagnostics with severity tallies.
class DiagnosticList {
 public:
  void add(Diagnostic diag);
  void note(std::string rule, std::string message, std::string object = "",
            int line = 0);
  void warning(std::string rule, std::string message, std::string object = "",
               int line = 0);
  void error(std::string rule, std::string message, std::string object = "",
             int line = 0);

  /// Appends every diagnostic of `other` (used to merge pass outputs).
  void merge(const DiagnosticList& other);

  /// Stamps `loop` onto every diagnostic that does not carry one yet.
  void set_loop(const std::string& loop);

  [[nodiscard]] const std::vector<Diagnostic>& items() const noexcept {
    return items_;
  }
  [[nodiscard]] std::size_t errors() const noexcept { return errors_; }
  [[nodiscard]] std::size_t warnings() const noexcept { return warnings_; }
  [[nodiscard]] std::size_t notes() const noexcept { return notes_; }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  /// True when no *errors* were recorded (warnings/notes are advisory).
  [[nodiscard]] bool ok() const noexcept { return errors_ == 0; }

  /// First error, or nullptr when ok().
  [[nodiscard]] const Diagnostic* first_error() const noexcept;

  /// All findings, one render_text() line each.
  [[nodiscard]] std::string render_text() const;

 private:
  std::vector<Diagnostic> items_;
  std::size_t errors_ = 0;
  std::size_t warnings_ = 0;
  std::size_t notes_ = 0;
};

}  // namespace casc::common
