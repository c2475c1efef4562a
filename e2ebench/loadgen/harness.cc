#include "harness.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <thread>
#include <unordered_map>

#include "obs/json_writer.h"

namespace e2e {

using exdl::Status;
using exdl::daemon::DaemonClient;
using exdl::daemon::Endpoint;
using exdl::daemon::ErrorMsg;
using exdl::daemon::ResultMsg;
using exdl::daemon::RetryLaterMsg;
using exdl::daemon::SubmitMsg;
using exdl::daemon::TicketMsg;

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

size_t Rng::Weighted(const std::vector<uint32_t>& weights) {
  uint64_t total = 0;
  for (uint32_t w : weights) total += w;
  uint64_t pick = Below(total);
  for (size_t i = 0; i < weights.size(); ++i) {
    if (pick < weights[i]) return i;
    pick -= weights[i];
  }
  return weights.size() - 1;
}

uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c) {
  Rng rng(a * 0x2545F4914F6CDD1DULL + b * 0x9E3779B97F4A7C15ULL + c);
  rng.Next();
  return rng.Next();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, Kind kind) {
  rows_.push_back(Row{name, value, unit, kind});
}

void Report::Rescale(double factor) {
  const size_t n = rows_.size();
  for (size_t i = 0; i < n; ++i) {
    Row& row = rows_[i];
    if (row.kind == Kind::kPlain) continue;
    const Row raw{"raw_" + row.name, row.value, row.unit, Kind::kPlain};
    row.value = row.kind == Kind::kTime ? row.value * factor : row.value / factor;
    row.kind = Kind::kPlain;
    rows_.push_back(raw);
  }
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

std::string Report::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::string out;
  exdl::obs::JsonWriter json(&out);
  json.BeginObject();
  json.Key("correct");
  json.Bool(correct);
  json.Key("attempted");
  json.UInt(attempted);
  json.Key("failed");
  json.UInt(failed);
  json.Key("metrics");
  json.BeginObject();
  for (const Row& row : rows_) {
    json.Key(row.name);
    json.BeginObject();
    json.Key("value");
    json.Double(row.value);
    json.Key("unit");
    json.String(row.unit);
    json.EndObject();
  }
  json.EndObject();
  json.Key("notes");
  json.BeginObject();
  for (const auto& [key, value] : notes_) {
    json.Key(key);
    json.String(value);
  }
  json.EndObject();
  json.EndObject();
  return out;
}

void Report::PrintTable(std::ostream& out) const {
  for (const Row& row : rows_) {
    out << "  " << std::left << std::setw(34) << row.name << std::right
        << std::setw(16) << std::setprecision(6) << row.value << " "
        << row.unit << "\n";
  }
  for (const auto& [key, value] : notes_) {
    out << "  " << std::left << std::setw(34) << key << " " << value << "\n";
  }
}

namespace {

/// Fixed CPU work for Calibration, of the kinds the daemon does: sorting, a
/// hash map, number formatting and hashing.
uint64_t CalibrationSlice(uint64_t seed) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 1;
  std::vector<uint32_t> v(2048);
  for (uint32_t& e : v) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    e = static_cast<uint32_t>(x >> 33);
  }
  std::sort(v.begin(), v.end());
  std::unordered_map<uint32_t, uint32_t> counts;
  for (size_t i = 0; i < v.size(); i += 2) {
    counts[v[i] & 1023] += static_cast<uint32_t>(i);
  }
  std::string text;
  char buf[16];
  for (size_t i = 0; i < v.size(); i += 4) {
    text.append(buf, std::to_chars(buf, buf + sizeof(buf),
                                   v[i] ^ counts[v[i] & 1023]).ptr);
    text.push_back('\n');
  }
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

double ThreadCpuUs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

}  // namespace

Calibration::~Calibration() { Stop(); }

void Calibration::Start(int cpu) {
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this, cpu] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    uint64_t sink = 0;
    while (!stop_) {
      const double t0 = ThreadCpuUs();
      sink += CalibrationSlice(us_.size());
      us_.push_back(ThreadCpuUs() - t0);
    }
    // Keeps the slices from being optimized away.
    if (sink == 1) us_.push_back(0);
  });
}

void Calibration::Stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

double Calibration::MedianUs() const { return Percentile(us_, 0.5); }

double Calibration::Factor() const {
  const double median = MedianUs();
  return median > 0 ? kReferenceSliceUs / median : 1;
}

DaemonProcess::~DaemonProcess() {
  if (running()) Kill();
}

bool DaemonProcess::Start(const std::string& exdld, const std::string& dir,
                          const std::vector<std::string>& extra,
                          std::string* error) {
  socket_path_ = dir + "/exdld.sock";
  const std::string log_path = dir + "/exdld.log";
  std::vector<std::string> args = {exdld, "--socket", socket_path_};
  args.insert(args.end(), extra.begin(), extra.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec. The child dies
    // with exdl_e2e, so an aborted run never leaves a daemon behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                           0644);
    if (log >= 0) {
      ::dup2(log, 1);
      ::dup2(log, 2);
      ::close(log);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = pid;
  const int64_t deadline = NowNs() + 20'000'000'000LL;
  while (NowNs() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "exdld exited during startup (see " + log_path + ")";
      return false;
    }
    DaemonClient probe;
    if (probe.Connect(endpoint(), "").ok()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  *error = "exdld did not accept connections within 20 s";
  Kill();
  return false;
}

void DaemonProcess::Reap(int timeout_ms) {
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1'000'000;
  while (pid_ > 0) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno != EINTR)) {
      pid_ = -1;
      return;
    }
    if (NowNs() >= deadline) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void DaemonProcess::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  Reap(10'000);
  if (pid_ > 0) Kill();
}

void DaemonProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

Endpoint DaemonProcess::endpoint() const {
  Endpoint e;
  e.socket_path = socket_path_;
  return e;
}

double DaemonProcess::PeakRssMb() const {
  if (pid_ <= 0) return 0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double DaemonProcess::CpuSeconds() const {
  clockid_t clock;
  timespec ts;
  if (pid_ <= 0 || clock_getcpuclockid(pid_, &clock) != 0 ||
      clock_gettime(clock, &ts) != 0) {
    return -1;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {
cpu_set_t g_allowed_cpus;
bool g_pinned = false;
}  // namespace

int PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) return -1;
    if (!g_pinned) g_allowed_cpus = allowed;
    g_pinned = true;
    return cpu;
  }
  return -1;
}

int CalibrationCpu(int pinned) {
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (cpu != pinned && CPU_ISSET(cpu, &g_allowed_cpus)) return cpu;
  }
  return pinned;
}

void UnpinCpu() {
  if (g_pinned) sched_setaffinity(0, sizeof(g_allowed_cpus), &g_allowed_cpus);
  g_pinned = false;
}

bool ConnectClient(DaemonClient* client, const Endpoint& endpoint,
                   std::string* error) {
  Status status;
  for (int attempt = 0; attempt < 50; ++attempt) {
    status = client->Connect(endpoint, "");
    if (status.ok()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  *error = "connect: " + status.ToString();
  return false;
}

bool SubmitAwait(DaemonClient* client, const std::string& name,
                 const std::string& source, ResultMsg* out,
                 std::string* error) {
  SubmitMsg submit;
  submit.name = name;
  submit.source = source;
  for (int attempt = 0; attempt < 20; ++attempt) {
    bool admitted = false;
    TicketMsg ticket;
    RetryLaterMsg retry;
    ErrorMsg err;
    Status status = client->Submit(submit, &admitted, &ticket, &retry, &err);
    if (!status.ok()) {
      *error = "submit: " + status.ToString();
      return false;
    }
    if (admitted) {
      status = client->Await(ticket.ticket, out);
      if (!status.ok()) {
        *error = "await: " + status.ToString();
        return false;
      }
      if (out->status_code != 0 || out->termination_code != 0) {
        *error = "result: " + out->status_message + out->termination_message;
        return false;
      }
      return true;
    }
    if (err.code != 0) {
      *error = "error reply: " + err.message;
      return false;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::max<uint32_t>(1, retry.backoff_ms)));
  }
  *error = "RETRY_LATER retries exhausted";
  return false;
}

uint32_t Tracer::Begin(const char* name, uint32_t parent, uint64_t rid) {
  const uint32_t id = static_cast<uint32_t>(spans_.size() + 1);
  spans_.push_back(Span{id, parent, rid, name, NowNs(), 0});
  return id;
}

void Tracer::End(uint32_t id) { spans_[id - 1].end_ns = NowNs(); }

double Tracer::Ms(uint32_t id) const {
  const Span& s = spans_[id - 1];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  std::string line;
  for (const Span& s : spans_) {
    line.clear();
    exdl::obs::JsonWriter json(&line);
    json.BeginObject();
    json.Key("id");
    json.UInt(s.id);
    json.Key("parent");
    json.UInt(s.parent);
    json.Key("rid");
    json.UInt(s.rid);
    json.Key("name");
    json.String(s.name);
    json.Key("start_ns");
    json.Int(s.start_ns);
    json.Key("end_ns");
    json.Int(s.end_ns);
    json.EndObject();
    out << line << "\n";
  }
  return static_cast<bool>(out);
}

}  // namespace e2e
