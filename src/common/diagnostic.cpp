#include "casc/common/diagnostic.hpp"

#include <sstream>

namespace casc::common {

std::string to_string(Severity severity) {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

std::string render_text(const Diagnostic& diag) {
  std::ostringstream os;
  os << to_string(diag.severity) << '[' << diag.rule << ']';
  if (!diag.loop.empty() || diag.line > 0) {
    os << ' ' << diag.loop;
    if (diag.line > 0) os << ':' << diag.line;
  }
  if (!diag.object.empty()) os << " (" << diag.object << ')';
  os << ": " << diag.message;
  return os.str();
}

void DiagnosticList::add(Diagnostic diag) {
  switch (diag.severity) {
    case Severity::kNote: ++notes_; break;
    case Severity::kWarning: ++warnings_; break;
    case Severity::kError: ++errors_; break;
  }
  items_.push_back(std::move(diag));
}

void DiagnosticList::note(std::string rule, std::string message, std::string object,
                          int line) {
  add({Severity::kNote, std::move(rule), std::move(message), "", std::move(object),
       line});
}

void DiagnosticList::warning(std::string rule, std::string message,
                             std::string object, int line) {
  add({Severity::kWarning, std::move(rule), std::move(message), "",
       std::move(object), line});
}

void DiagnosticList::error(std::string rule, std::string message, std::string object,
                           int line) {
  add({Severity::kError, std::move(rule), std::move(message), "", std::move(object),
       line});
}

void DiagnosticList::merge(const DiagnosticList& other) {
  for (const Diagnostic& diag : other.items_) add(diag);
}

void DiagnosticList::set_loop(const std::string& loop) {
  for (Diagnostic& diag : items_) {
    if (diag.loop.empty()) diag.loop = loop;
  }
}

const Diagnostic* DiagnosticList::first_error() const noexcept {
  for (const Diagnostic& diag : items_) {
    if (diag.severity == Severity::kError) return &diag;
  }
  return nullptr;
}

std::string DiagnosticList::render_text() const {
  std::string out;
  for (const Diagnostic& diag : items_) {
    out += casc::common::render_text(diag);
    out += '\n';
  }
  return out;
}

}  // namespace casc::common
