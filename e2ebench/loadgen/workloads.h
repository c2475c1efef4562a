// The three workloads: an untraced end-to-end phase against a child exdld
// (workloads.cc) and the traced in-process replay (replay.cc).

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ast/context.h"
#include "harness.h"
#include "inputs.h"
#include "storage/database.h"

namespace e2e {

/// Closed-loop SUBMIT connections of warm_eval and cold_compile. One: with
/// every thread of the run pinned to one CPU (PinToOneCpu), more clients
/// would only queue on that CPU.
constexpr uint32_t kSubmitClients = 1;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string exdld;     ///< daemon binary
  std::string work_dir;  ///< working directories: sockets, data dirs, logs
  std::string trace_prefix;  ///< traced run: <prefix>.spans.jsonl / .counters.json
};

/// What the end-to-end phase hands to the caller and to the replay.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  ///< mismatches and failures, for stderr
  double submit_p50_ms = 0;  ///< as measured (not rescaled)
  Calibration calibration;   ///< runs from set-up to the end of the window
  uint64_t backpressure_events = 0;
  uint64_t cancelled_on_disconnect = 0;

  void Mismatch(const std::string& what) {
    correct = false;
    if (problems.size() < 20) problems.push_back("mismatch: " + what);
  }
  void Failure(const std::string& what) {
    if (problems.size() < 20) problems.push_back("failed op: " + what);
  }
};

/// Runs the end-to-end phase of `args.workload`, filling `report` with the
/// end-to-end metrics. False on a set-up error (the run has no result).
bool RunEndToEnd(const Args& args, const Scale& scale, Report* report,
                 Outcome* outcome, std::string* error);

/// Replays the workload's seeded request sequence in-process through the
/// layers' public calls, recording spans, and writes the span and counter
/// files next to `args.trace_prefix`.
bool RunReplay(const Args& args, const Scale& scale, const Outcome& e2e,
               std::string* error);

/// The in-process reference every reply is compared with: a serial Engine
/// run (optimizer on, as in the daemon) of a query source over an EDB.
/// The EDB is parsed once into the reference's own Context in the order the
/// daemon received it, so constants intern in the same relative order and
/// the rendered answer order (sorted by symbol id) matches byte for byte.
class Reference {
 public:
  Reference();
  bool LoadFacts(const std::string& facts, std::string* error);
  bool Answers(const std::string& source, std::string* answers,
               std::string* error);

 private:
  exdl::ContextPtr ctx_;
  exdl::Database edb_;
};

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
