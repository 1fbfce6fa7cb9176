#include "casc/loopir/pipeline_spec.hpp"

#include <sstream>

#include "casc/common/check.hpp"
#include "spec_parse_detail.hpp"

namespace casc::loopir {

using detail::ParseError;

const LoopSpec::ArrayDecl* PipelineSpec::find_array(
    const std::string& array) const noexcept {
  for (const LoopSpec::ArrayDecl& decl : arrays) {
    if (decl.name == array) return &decl;
  }
  return nullptr;
}

LoopSpec PipelineSpec::stage_spec(std::size_t k) const {
  CASC_CHECK(k < stages.size(), "pipeline '" + name + "' has no stage " +
                                    std::to_string(k));
  const Stage& stage = stages[k];
  LoopSpec spec;
  spec.name = name + "." + stage.name;
  spec.trip = stage.trip;
  spec.step = stage.step;
  spec.compute_cycles = stage.compute_cycles;
  spec.restructured_compute = stage.restructured_compute;
  spec.layout = stage.layout.value_or(layout);
  for (const LoopSpec::ArrayDecl& decl : arrays) {
    if (!stage.references(decl.name)) continue;
    LoopSpec::ArrayDecl local = decl;
    if (stage.writes(decl.name)) {
      // The stage mutates this array.  An index array's materialized pattern
      // stays with the stages that gather via it; here only its VALUES are
      // storage, so it lowers to a plain rw array.
      local.pattern.reset();
      local.read_only = false;
    } else {
      // Honest per-stage claim: unwritten here, so the materializer may
      // stage it regardless of the pipeline-level mutability.
      local.read_only = true;
    }
    spec.arrays.push_back(std::move(local));
  }
  spec.accesses = stage.accesses;
  return spec;
}

std::string PipelineSpec::to_text() const {
  std::ostringstream os;
  os << "pipeline " << name << "\n";
  os << "layout " << to_string(layout) << "\n";
  for (const LoopSpec::ArrayDecl& decl : arrays) {
    os << detail::render_array_decl(decl) << "\n";
  }
  for (const Stage& stage : stages) {
    os << "loop " << stage.name << "\n";
    os << "trip " << stage.trip << ' ' << stage.step << "\n";
    os << "compute " << stage.compute_cycles;
    if (stage.restructured_compute) os << ' ' << *stage.restructured_compute;
    os << "\n";
    if (stage.layout) os << "layout " << to_string(*stage.layout) << "\n";
    for (const LoopSpec::AccessDecl& acc : stage.accesses) {
      os << detail::render_access(acc) << "\n";
    }
    os << "endloop\n";
  }
  return os.str();
}

PipelineSpec PipelineSpec::parse(std::string_view text) {
  common::DiagnosticList diags;
  PipelineSpec spec = parse(text, diags);
  if (const common::Diagnostic* first = diags.first_error()) {
    std::string what = "pipeline spec: ";
    if (first->line > 0) what += "line " + std::to_string(first->line) + ": ";
    what += first->message + " [" + first->rule + "]";
    throw common::CheckFailure(what);
  }
  return spec;
}

PipelineSpec PipelineSpec::parse(std::string_view text,
                                 common::DiagnosticList& diags) {
  PipelineSpec spec;
  Stage current;
  bool in_loop = false;
  bool saw_trip = false;
  int line_no = 0;

  auto close_stage = [&]() {
    if (!saw_trip) {
      diags.add({common::Severity::kError, "parse-incomplete",
                 "loop '" + current.name + "' is missing a 'trip' directive",
                 current.name, "", current.line});
    }
    if (current.accesses.empty()) {
      diags.add({common::Severity::kError, "parse-incomplete",
                 "loop '" + current.name + "' has no accesses", current.name, "",
                 current.line});
    }
    for (const Stage& existing : spec.stages) {
      if (existing.name == current.name) {
        diags.add({common::Severity::kError, "duplicate-loop",
                   "loop '" + current.name + "' already declared on line " +
                       std::to_string(existing.line),
                   current.name, "", current.line});
        break;
      }
    }
    spec.stages.push_back(std::move(current));
    current = Stage{};
    in_loop = false;
    saw_trip = false;
  };

  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t end = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, end == std::string_view::npos ? text.size() - pos : end - pos);
    pos = end == std::string_view::npos ? text.size() + 1 : end + 1;
    ++line_no;
    const std::vector<std::string> tok = detail::tokenize(line);
    if (tok.empty()) continue;
    const std::string& head = tok[0];
    auto declare_array = [&](LoopSpec::ArrayDecl decl) {
      for (const LoopSpec::ArrayDecl& existing : spec.arrays) {
        if (existing.name == decl.name) {
          diags.add({common::Severity::kError, "duplicate-array",
                     "array '" + decl.name + "' already declared on line " +
                         std::to_string(existing.line),
                     "", decl.name, line_no});
          return;
        }
      }
      spec.arrays.push_back(std::move(decl));
    };

    try {
      if (head == "pipeline") {
        detail::require_args(tok, 1, 1);
        if (in_loop) throw ParseError{"'pipeline' inside a loop block"};
        spec.name = tok[1];
      } else if (head == "loop") {
        detail::require_args(tok, 1, 1);
        if (in_loop) {
          // Recover by closing the unterminated block so the new loop (and
          // everything after it) still parses.
          diags.add({common::Severity::kError, "parse-incomplete",
                     "loop '" + current.name + "' is missing 'endloop'",
                     current.name, "", line_no});
          close_stage();
        }
        in_loop = true;
        current.name = tok[1];
        current.line = line_no;
      } else if (head == "endloop") {
        detail::require_args(tok, 0, 0);
        if (!in_loop) throw ParseError{"'endloop' outside a loop block"};
        close_stage();
      } else if (head == "trip") {
        if (!in_loop) throw ParseError{"'trip' outside a loop block"};
        detail::require_args(tok, 1, 2);
        current.trip = detail::parse_number<std::uint64_t>(tok[1]);
        current.step = tok.size() > 2 ? detail::parse_number<std::uint64_t>(tok[2]) : 1;
        saw_trip = true;
      } else if (head == "compute") {
        if (!in_loop) throw ParseError{"'compute' outside a loop block"};
        detail::require_args(tok, 1, 2);
        current.compute_cycles = detail::parse_number<std::uint32_t>(tok[1]);
        if (tok.size() > 2) {
          current.restructured_compute = detail::parse_number<std::uint32_t>(tok[2]);
        }
      } else if (head == "layout") {
        const LayoutPolicy policy = detail::parse_layout(tok);
        if (in_loop) {
          current.layout = policy;
        } else {
          spec.layout = policy;
        }
      } else if (head == "array") {
        if (in_loop) throw ParseError{"arrays are declared at pipeline scope"};
        declare_array(detail::parse_array_decl(tok, line_no));
      } else if (head == "index") {
        if (in_loop) throw ParseError{"arrays are declared at pipeline scope"};
        declare_array(detail::parse_index_decl(tok, line_no));
      } else if (head == "access") {
        if (!in_loop) throw ParseError{"'access' outside a loop block"};
        current.accesses.push_back(detail::parse_access(tok, line_no));
      } else {
        throw ParseError{"unknown directive '" + head + "'"};
      }
    } catch (const ParseError& e) {
      diags.add({common::Severity::kError, "parse-syntax", e.message,
                 in_loop ? current.name : "", "", line_no});
    }
  }
  if (in_loop) {
    diags.add({common::Severity::kError, "parse-incomplete",
               "loop '" + current.name + "' is missing 'endloop'", current.name,
               "", 0});
    close_stage();
  }
  if (spec.stages.empty()) {
    diags.add({common::Severity::kError, "parse-incomplete",
               "pipeline has no loop blocks", "", "", 0});
  }

  // Name resolution and cross-loop legality, once the whole text is read.
  for (const Stage& stage : spec.stages) {
    for (const LoopSpec::AccessDecl& acc : stage.accesses) {
      const LoopSpec::ArrayDecl* decl = spec.find_array(acc.array);
      if (decl == nullptr) {
        diags.add({common::Severity::kError, "undeclared-array",
                   "access names undeclared array '" + acc.array + "'",
                   stage.name, acc.array, acc.line});
      } else if (acc.writes() && decl->read_only && !decl->pattern) {
        diags.add({common::Severity::kError, "pipeline-write-ro",
                   "loop '" + stage.name + "' writes pipeline read-only array '" +
                       acc.array + "'",
                   stage.name, acc.array, acc.line});
      }
      if (acc.index_via) {
        const LoopSpec::ArrayDecl* via = spec.find_array(*acc.index_via);
        if (via == nullptr) {
          diags.add({common::Severity::kError, "undeclared-array",
                     "access via undeclared index array '" + *acc.index_via + "'",
                     stage.name, *acc.index_via, acc.line});
        } else if (stage.writes(*acc.index_via)) {
          // A stage that rebuilds an index array cannot gather through it in
          // the same loop: with one loop body there is no defined point at
          // which the new indices take effect.
          diags.add({common::Severity::kError, "pipeline-write-via",
                     "loop '" + stage.name + "' both writes index array '" +
                         *acc.index_via + "' and gathers via it",
                     stage.name, *acc.index_via, acc.line});
        }
      }
    }
  }
  diags.set_loop(spec.name);
  return spec;
}

bool is_pipeline_text(std::string_view text) {
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t end = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, end == std::string_view::npos ? text.size() - pos : end - pos);
    pos = end == std::string_view::npos ? text.size() + 1 : end + 1;
    const std::vector<std::string> tok = detail::tokenize(line);
    if (tok.empty()) continue;
    return tok[0] == "pipeline";
  }
  return false;
}

}  // namespace casc::loopir
