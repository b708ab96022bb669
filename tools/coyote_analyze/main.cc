// coyote_analyze CLI: per-file and interprocedural analysis of the tree.
//
//   coyote_analyze --root <repo> src tests bench examples tools
//   coyote_analyze --root <repo> --rule nondet --report build/analyze-report.txt src
//   coyote_analyze --list-rules
//
// Exit codes: 0 clean, 1 findings, 2 usage error. The report (stdout and,
// with --report, a file for the CI artifact) prints one finding as
// `path:line: [rule] message`, a context finding followed by its indented
// interprocedural call-chain trace, ending with a stable summary line.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "tools/coyote_analyze/analyze.h"
#include "tools/coyote_analyze/frontend.h"

namespace {

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: coyote_analyze [--root DIR] [--report FILE]\n"
      "                      [--rule ID]... [--list-rules] [path...]\n"
      "  --root DIR         project root; findings are reported relative to it (default .)\n"
      "  --report FILE      also write the findings report to FILE\n"
      "  --rule ID          run only the named rule (repeatable)\n"
      "  --list-rules       print the rule table and exit\n"
      "  path               files or directories under --root\n"
      "                     (default: src tests bench examples tools)\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string report_path;
  coyote::analyze::Options options;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" || arg == "--report" || arg == "--rule") {
      if (i + 1 >= argc) {
        PrintUsage();
        return 2;
      }
      const std::string value = argv[++i];
      if (arg == "--root") {
        root = value;
      } else if (arg == "--report") {
        report_path = value;
      } else {
        options.rules.push_back(value);
      }
    } else if (arg == "--list-rules") {
      for (const auto& rule : coyote::analyze::Rules()) {
        std::printf("%-18s suppress with '// lint: %s'\n    %s\n", rule.id.c_str(),
                    rule.suppression.c_str(), rule.summary.c_str());
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "coyote_analyze: unknown option '%s'\n", arg.c_str());
      PrintUsage();
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    paths = {"src", "tests", "bench", "examples", "tools"};
  }

  const auto files = coyote::frontend::CollectFiles(root, paths);
  if (files.empty()) {
    std::fprintf(stderr, "coyote_analyze: no source files found under --root %s\n",
                 root.c_str());
    return 2;
  }
  const auto index = coyote::analyze::IndexPaths(root, files);
  const auto findings = coyote::analyze::Analyze(index, options);
  const std::string report = coyote::analyze::FormatReport(findings);
  std::fputs(report.c_str(), stdout);
  if (!report_path.empty()) {
    std::ofstream out(report_path, std::ios::binary | std::ios::trunc);
    out << report;
    if (!out) {
      std::fprintf(stderr, "coyote_analyze: cannot write report to %s\n", report_path.c_str());
      return 2;
    }
  }
  return findings.empty() ? 0 : 1;
}
