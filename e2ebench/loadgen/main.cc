// exdl_e2e — the load generator behind e2ebench/run.py.
//
//   exdl_e2e --workload warm_eval|cold_compile|standing_ingest --seed N
//            --seconds S --exdld PATH --work-dir DIR
//            [--trace-prefix PATH] [--tiny]
//
// Runs the workload's end-to-end phase against a child exdld and prints the
// end-to-end metrics as one JSON line on stdout (a table goes to stderr).
// With --trace-prefix it then runs the traced in-process replay and writes
// PATH.spans.jsonl and PATH.counters.json for trace_report.py.
//
// Exit codes: 0 all answers verified, 1 a reply differed from the reference
// (the JSON line says "correct": false), 2 usage or set-up error (no JSON).

#include <iostream>
#include <string>

#include <csignal>

#include "workloads.h"

namespace {

int Usage() {
  std::cerr << "usage: exdl_e2e --workload W --seed N --seconds S "
               "--exdld PATH --work-dir DIR [--trace-prefix P] [--tiny]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  e2e::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--exdld") {
      args.exdld = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-prefix") {
      args.trace_prefix = value;
      args.trace = true;
    } else {
      return Usage();
    }
  }
  if (args.workload.empty() || args.exdld.empty() || args.work_dir.empty()) {
    return Usage();
  }
  const int cpu = e2e::PinToOneCpu();
  if (cpu < 0) {
    std::cerr << "exdl_e2e: cannot pin to one CPU\n";
    return 2;
  }
  const e2e::Scale scale = args.tiny ? e2e::TinyScale() : e2e::FullScale();

  e2e::Report report;
  report.Note("pinned_cpu", std::to_string(cpu));
  e2e::Outcome outcome;
  outcome.calibration.Start(e2e::CalibrationCpu(cpu));
  std::string error;
  if (!e2e::RunEndToEnd(args, scale, &report, &outcome, &error)) {
    std::cerr << "exdl_e2e: " << error << "\n";
    return 2;
  }
  report.Rescale(outcome.calibration.Factor());
  report.Note("calibration_slice_us",
              std::to_string(outcome.calibration.MedianUs()));
  if (args.trace && !e2e::RunReplay(args, scale, outcome, &error)) {
    std::cerr << "exdl_e2e: " << error << "\n";
    return 2;
  }
  std::cerr << args.workload << " (seed " << args.seed << ", "
            << args.seconds << " s):\n";
  report.PrintTable(std::cerr);
  for (const std::string& problem : outcome.problems) {
    std::cerr << "  " << problem << "\n";
  }
  std::cout << report.Json(outcome.correct, outcome.attempted, outcome.failed)
            << std::endl;
  return outcome.correct ? 0 : 1;
}
