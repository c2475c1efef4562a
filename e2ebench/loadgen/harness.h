// Shared pieces of exdl_e2e: deterministic randomness, clocks,
// percentiles, the metric report, the exdld child process, and the
// in-memory span recorder of the traced replay.

#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "daemon/client.h"
#include "daemon/protocol.h"

namespace e2e {

/// SplitMix64: identical streams on every platform and standard library,
/// so a seed names the same inputs everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Index drawn with probability proportional to weights[i].
  size_t Weighted(const std::vector<uint32_t>& weights);

 private:
  uint64_t state_;
};

/// Mixes several words into one seed (stream separation per client/op).
uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c = 0);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of `values` (copied and sorted); 0 when empty.
double Percentile(std::vector<double> values, double q);

/// Samples that lie strictly above the q-percentile's rank.
size_t SamplesBeyond(size_t n, double q);

/// Ordered name -> (value, unit) list plus free-form notes, rendered as the
/// result JSON and as a human-readable table.
class Report {
 public:
  /// How a metric depends on the speed of the CPU (see Calibration).
  enum class Kind { kPlain, kTime, kRate };
  void Add(const std::string& name, double value, const std::string& unit,
           Kind kind = Kind::kPlain);
  /// States every kTime metric at the reference speed (times `factor`) and
  /// every kRate metric too (divided by `factor`); the measured value stays
  /// as "raw_<name>".
  void Rescale(double factor);
  void Note(const std::string& key, const std::string& value);
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;
  void PrintTable(std::ostream& out) const;

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    Kind kind;
  };
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// The speed of the machine's CPUs, from a fixed slice of work that uses no
/// engine code (see CalibrationSlice in harness.cc), timed over and over in
/// thread CPU time on a thread of its own, on another CPU than the run's,
/// for as long as the run measures. The host of a shared VM can change the
/// speed of its CPUs by 2x or more for minutes at a time, and a run's time
/// metrics move with it; stated at a reference speed they compare across
/// such periods (Report::Rescale).
class Calibration {
 public:
  Calibration() = default;
  ~Calibration();
  Calibration(const Calibration&) = delete;
  Calibration& operator=(const Calibration&) = delete;

  /// Starts timing slices on a thread pinned to `cpu`; a no-op if running.
  void Start(int cpu);
  /// Stops and joins the thread; the samples stay.
  void Stop();
  /// Median slice time in microseconds; 0 without samples. Call after Stop.
  double MedianUs() const;
  /// kReferenceSliceUs / MedianUs(): multiply a time by this to state it at
  /// the reference speed.
  double Factor() const;

  /// The slice's median during the baseline runs
  /// (baseline/machine.json), so there the stated values are the measured
  /// ones.
  static constexpr double kReferenceSliceUs = 240;

 private:
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::vector<double> us_;  ///< written by thread_ only while it runs
};

/// One exdld child on a unix socket in its own directory. The destructor
/// kills and reaps a still-running child, so no path leaks a process.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Starts `exdld --socket <dir>/exdld.sock <extra...>` with its output
  /// appended to <dir>/exdld.log, then waits until a client can connect.
  bool Start(const std::string& exdld, const std::string& dir,
             const std::vector<std::string>& extra, std::string* error);
  /// SIGTERM (graceful drain) and reap; SIGKILL after 10 s.
  void Stop();
  /// SIGKILL and reap — the crash of the recovery check.
  void Kill();
  bool running() const { return pid_ > 0; }
  exdl::daemon::Endpoint endpoint() const;
  /// VmHWM (peak resident set) of the child in MiB; 0 if unreadable.
  double PeakRssMb() const;
  /// CPU time the child has run so far, all its threads, in seconds; -1 if
  /// unreadable. Time the host steals from the VM is not counted.
  double CpuSeconds() const;

 private:
  void Reap(int timeout_ms);

  pid_t pid_ = -1;
  std::string socket_path_;
};

/// Restricts this thread, and every thread and child process it starts
/// from now on, to one CPU (the highest it may use); returns that CPU or -1.
/// A request then hands off between the client, the daemon's threads and
/// back by context switches on that CPU, never by waking an idle vCPU,
/// whose latency depends on the host's load.
int PinToOneCpu();
/// Lets this thread, and the threads it starts from now on, use every CPU
/// it could use before PinToOneCpu.
void UnpinCpu();
/// The CPU the calibration runs on: the highest one the process could use
/// before PinToOneCpu other than `pinned`, or `pinned` if there is none.
/// (The lowest CPUs tend to take the VM's network and balloon interrupts.)
int CalibrationCpu(int pinned);

/// Connects with HELLO; retries briefly while the daemon comes up.
bool ConnectClient(exdl::daemon::DaemonClient* client,
                   const exdl::daemon::Endpoint& endpoint,
                   std::string* error);

/// One SUBMIT + AWAIT exchange, honouring RETRY_LATER (bounded). False on
/// an ERROR reply, exhausted retries, a failed result, or a torn
/// connection; `error` says which.
bool SubmitAwait(exdl::daemon::DaemonClient* client, const std::string& name,
                 const std::string& source, exdl::daemon::ResultMsg* out,
                 std::string* error);

/// Spans of the traced replay, kept in memory and written once at the end.
/// A span's name is "<layer>.<call>"; the layer is the part before the
/// first dot. Spans of one request share `rid`; `parent` is 0 for a root.
class Tracer {
 public:
  struct Span {
    uint32_t id;
    uint32_t parent;
    uint64_t rid;
    const char* name;  ///< a string literal
    int64_t start_ns;
    int64_t end_ns;
  };

  uint32_t Begin(const char* name, uint32_t parent, uint64_t rid);
  void End(uint32_t id);
  /// Renames a span once its outcome is known (a MaybeCompact that did
  /// compact).
  void Rename(uint32_t id, const char* name) { spans_[id - 1].name = name; }
  /// Duration of a finished span in milliseconds.
  double Ms(uint32_t id) const;
  /// One JSON object per line: id, parent, rid, name, start_ns, end_ns.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span: Begin in the constructor, End in the destructor or Stop().
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint32_t parent, uint64_t rid)
      : tracer_(tracer), id_(tracer.Begin(name, parent, rid)) {}
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }
  void Stop() {
    if (open_) tracer_.End(id_);
    open_ = false;
  }

 private:
  Tracer& tracer_;
  uint32_t id_;
  bool open_ = true;
};

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_H_
