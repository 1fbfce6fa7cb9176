// casclint — the cascade-safety verifier CLI.
//
// Lints .casc loop specs: parses (collecting every diagnostic), runs the
// static dependence/footprint passes, proves or refutes restructure
// eligibility, and (by default) replays the instantiated loop's reference
// trace through the shadow checker to confirm the static claims dynamically.
//
//   casclint --spec=examples/specs/spmv.casc
//   casclint --spec=a.casc,b.casc --format=json --out=lint.json
//   casclint --spec=loop.casc --chunk=128K --no-shadow --strict
//   casclint --spec=loop.casc --certify --format=json
//
// --certify additionally runs the schedule-independent race certifier
// (docs/ANALYSIS.md): every cross-chunk reference pair is classified
// against the token ring's happens-before order, and the exit status
// follows the certificate verdict instead of the strict lint — a spec the
// affine passes refuse can still pass when its staged bytes are provably
// write-free at every worker count.
//
// Exit status: 0 = all specs clean (no errors; with --strict, no warnings
// either), 1 = at least one diagnostic at the failing severity, 2 = usage or
// I/O error.
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "casc/analysis/pipeline_plan.hpp"
#include "casc/analysis/verifier.hpp"
#include "casc/cli/args.hpp"
#include "casc/loopir/pipeline_spec.hpp"
#include "casc/telemetry/json.hpp"

namespace {

using casc::cli::OptionSpec;

const std::vector<OptionSpec> kSpecs = {
    {"spec", "paths", "comma-separated .casc spec files to lint", ""},
    {"format", "text|json", "report format", "text"},
    {"chunk", "bytes", "chunk size the analysis reasons about", "64K"},
    {"no-shadow", "", "skip the trace-backed shadow checker", ""},
    {"certify", "",
     "run the schedule-independent race certifier; the exit status follows "
     "the certificate verdict (certified/requires-privatization pass)",
     ""},
    {"shadow-iters", "n", "iteration cap for the shadow replay", "1048576"},
    {"strict", "", "treat warnings as errors for the exit status", ""},
    {"out", "path", "write the report here instead of stdout", ""},
    {"help", "", "show this help", ""},
};

std::vector<std::string> split_commas(const std::string& list) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(list);
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// The exit verdict for one analysis report (loop spec or pipeline stage).
/// With --certify the certificate has the final word.
bool report_failed(const casc::analysis::AnalysisReport& report,
                   const casc::analysis::AnalyzeOptions& opt, bool strict) {
  if (opt.certify && report.certificate) {
    const std::string& v = report.certificate->verdict;
    return v != "certified-disjoint" && v != "requires-privatization";
  }
  return !report.ok() || (strict && report.diags.warnings() > 0);
}

/// One linted pipeline file: the collecting parse, the per-stage analysis
/// reports (each stage lowered to its honest-claim LoopSpec), and the
/// staging plan.
struct PipelineLint {
  casc::loopir::PipelineSpec spec;
  casc::common::DiagnosticList parse_diags;
  std::vector<casc::analysis::AnalysisReport> stage_reports;
  std::optional<casc::analysis::PipelinePlan> plan;
  bool failed = false;
};

PipelineLint lint_pipeline(const std::string& text,
                           const casc::analysis::AnalyzeOptions& opt,
                           bool strict) {
  PipelineLint lint;
  lint.spec = casc::loopir::PipelineSpec::parse(text, lint.parse_diags);
  lint.failed = !lint.parse_diags.ok();
  if (lint.failed) return lint;
  lint.plan = casc::analysis::plan_pipeline(lint.spec);
  for (std::size_t k = 0; k < lint.spec.stages.size(); ++k) {
    casc::analysis::AnalysisReport report =
        casc::analysis::analyze(lint.spec.stage_spec(k), opt);
    if (report_failed(report, opt, strict)) lint.failed = true;
    lint.stage_reports.push_back(std::move(report));
  }
  return lint;
}

void render_pipeline_text(const PipelineLint& lint, std::ostream& out) {
  for (const casc::common::Diagnostic& d : lint.parse_diags.items()) {
    out << casc::common::render_text(d) << '\n';
  }
  if (lint.plan) out << lint.plan->render_text();
  for (std::size_t k = 0; k < lint.stage_reports.size(); ++k) {
    out << "-- stage " << lint.spec.stages[k].name << " --\n"
        << casc::analysis::render_text(lint.stage_reports[k]);
  }
}

/// Emits the stage report documents followed by one pipeline-plan document
/// (the golden-tested artifact).  Caller manages the surrounding array and
/// separators via `first`.
void render_pipeline_json(const PipelineLint& lint, const std::string& source,
                          std::ostream& out, bool& first) {
  for (std::size_t k = 0; k < lint.stage_reports.size(); ++k) {
    if (!first) out << ",\n";
    casc::analysis::render_json(lint.stage_reports[k], out,
                                source + "#" + lint.spec.stages[k].name);
    first = false;
  }
  if (!first) out << ",\n";
  casc::telemetry::JsonWriter w(out, 2);
  w.begin_object();
  w.key("tool");
  w.value("casclint");
  w.key("version");
  w.value(1);
  w.key("source");
  w.value(source);
  w.key("kind");
  w.value("pipeline-plan");
  w.key("ok");
  w.value(!lint.failed);
  w.key("parse_errors");
  w.value(static_cast<std::uint64_t>(lint.parse_diags.errors()));
  w.key("diagnostics");
  w.begin_array();
  for (const casc::common::Diagnostic& d : lint.parse_diags.items()) {
    w.value(casc::common::render_text(d));
  }
  w.end_array();
  w.key("plan");
  if (lint.plan) {
    lint.plan->render_json(w);
  } else {
    w.null();
  }
  w.end_object();
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> raw(argv + 1, argv + argc);
  casc::cli::Args args;
  try {
    args = casc::cli::Args::parse(raw, kSpecs);
  } catch (const std::exception& e) {
    std::cerr << "casclint: " << e.what() << "\n\n"
              << casc::cli::Args::help("casclint",
                                       "cascade-safety verifier for .casc "
                                       "loop specs",
                                       kSpecs);
    return 2;
  }
  if (args.has("help")) {
    std::cout << casc::cli::Args::help(
        "casclint", "cascade-safety verifier for .casc loop specs", kSpecs);
    return 0;
  }
  const std::vector<std::string> paths = split_commas(args.get("spec"));
  if (paths.empty()) {
    std::cerr << "casclint: no input (--spec=a.casc[,b.casc...])\n";
    return 2;
  }
  const std::string format = args.get("format");
  if (format != "text" && format != "json") {
    std::cerr << "casclint: unknown --format '" << format << "'\n";
    return 2;
  }

  casc::analysis::AnalyzeOptions opt;
  std::uint64_t exit_code = 0;
  std::ostringstream out;
  try {
    opt.chunk_bytes = args.get_bytes("chunk");
    opt.run_shadow = !args.has("no-shadow");
    opt.certify = args.has("certify");
    opt.max_shadow_iterations = args.get_u64("shadow-iters");
  } catch (const std::exception& e) {
    std::cerr << "casclint: " << e.what() << '\n';
    return 2;
  }

  if (format == "json") out << "[\n";
  bool first = true;
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "casclint: cannot open '" << path << "'\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    // Pipeline chains: lint every stage (each lowered to its honest-claim
    // LoopSpec) and print the staging plan — the golden-tested artifact of
    // casc::analysis::plan_pipeline.
    if (casc::loopir::is_pipeline_text(text.str())) {
      PipelineLint lint;
      try {
        lint = lint_pipeline(text.str(), opt, args.has("strict"));
      } catch (const std::exception& e) {
        std::cerr << "casclint: " << path << ": " << e.what() << '\n';
        return 2;
      }
      if (lint.failed) exit_code = 1;
      if (format == "text") {
        out << path << ":\n";
        render_pipeline_text(lint, out);
        out << '\n';
      } else {
        render_pipeline_json(lint, basename_of(path), out, first);
      }
      continue;
    }
    casc::analysis::AnalysisReport report;
    try {
      report = casc::analysis::analyze_text(text.str(), opt);
    } catch (const std::exception& e) {
      std::cerr << "casclint: " << path << ": " << e.what() << '\n';
      return 2;
    }
    // With --certify the exit status follows the certificate: a spec whose
    // staged bytes are provably write-free (or whose only obstacle is a
    // privatizable reduction) passes even when the strict lint refuses it.
    if (report_failed(report, opt, args.has("strict"))) exit_code = 1;
    if (format == "text") {
      out << path << ":\n" << casc::analysis::render_text(report) << '\n';
    } else {
      // Identify documents by basename so the JSON is path-independent and
      // golden-diffable across checkouts.
      if (!first) out << ",\n";
      casc::analysis::render_json(report, out, basename_of(path));
    }
    first = false;
  }
  if (format == "json") out << "]\n";

  const std::string rendered = out.str();
  const std::string out_path = args.get("out");
  if (!out_path.empty()) {
    std::ofstream os(out_path, std::ios::binary);
    if (!os) {
      std::cerr << "casclint: cannot write '" << out_path << "'\n";
      return 2;
    }
    os << rendered;
  } else {
    std::cout << rendered;
  }
  return static_cast<int>(exit_code);
}
