#include "bench.hpp"

#include <dirent.h>
#include <sys/vfs.h>

#include <algorithm>
#include <ctime>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

namespace perfbench {

void Report::op(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::cout << "# failed operation: " << what << '\n';
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::cout << "# check failed: " << what << '\n';
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::pair<double, double> supported_tail(const std::vector<double>& values) {
  std::pair<double, double> best{0.0, 0.0};
  for (double p : {0.9, 0.99, 0.999}) {
    const double beyond = (1.0 - p) * static_cast<double>(values.size());
    if (values.size() >= 40 && beyond >= 10.0) best = {p * 100.0, quantile(values, p)};
  }
  return best;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

/// A "<key>: <n> kB" field of /proc/self/status, in MB; 0 when absent.
double status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key, 0) == 0) return std::stod(line.substr(std::strlen(key))) / 1024.0;
  return 0.0;
}

}  // namespace

// VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across execve,
// so it would report the launcher's footprint when that is the larger.
double peak_rss_mb() { return status_mb("VmHWM:"); }

double vm_size_mb() { return status_mb("VmSize:"); }

std::size_t open_fds() {
  std::size_t n = 0;
  if (DIR* dir = opendir("/proc/self/fd")) {
    while (const dirent* entry = readdir(dir))
      if (entry->d_name[0] != '.') ++n;
    closedir(dir);
    if (n > 0) --n;  // the descriptor opendir itself holds
  }
  return n;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string filesystem_type(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0x858458f6UL: return "ramfs";
    case 0xEF53UL: return "ext2/ext3/ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794c7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

// --- tracing ------------------------------------------------------------------

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::uint32_t Tracer::open(const char* name) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_);
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back({name, now.count(), -1, id, stack_.empty() ? 0 : stack_.back(), current_op});
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::uint32_t id) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_);
  spans_[id - 1].end_ns = now.count();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

bool Tracer::dump(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  // Self time per span name: duration minus the time covered by children.
  std::vector<std::int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_)
    if (s.parent != 0 && s.end_ns >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, std::pair<double, std::size_t>> self;
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
    if (s.end_ns < 0) continue;
    auto& entry = self[s.name];
    entry.first += static_cast<double>(s.end_ns - s.start_ns - child_ns[s.id]) * 1e-9;
    ++entry.second;
  }
  for (const auto& [name, entry] : self)
    out << "{\"summary\":\"" << name << "\",\"count\":" << entry.second
        << ",\"self_s\":" << entry.first << "}\n";
  return static_cast<bool>(out);
}

// --- run protocol ---------------------------------------------------------------

double timed_setup(int times, const std::function<void()>& setup) {
  std::vector<double> samples;
  for (int i = 0; i < times; ++i) {
    const Stopwatch watch;
    setup();
    samples.push_back(watch.cpu_s());
  }
  return median(samples);
}

void run_rounds(const Options& options, Report& report,
                const std::function<double(std::size_t)>& round) {
  std::size_t rounds = 0;
  if (!options.trace) {
    for (double measured = 0.0; measured < options.seconds;) measured += round(rounds++);
    return;
  }
  // Traced run: untraced first half, traced second half, same round stream.
  // Overhead compares rounds per CPU second, which host steal does not skew.
  double plain_s = 0.0, traced_s = 0.0;
  std::size_t plain_rounds = 0, traced_rounds = 0;
  const Stopwatch plain_watch;
  while (plain_s < options.seconds / 2) {
    plain_s += round(rounds++);
    ++plain_rounds;
  }
  const double plain_cpu = plain_watch.cpu_s();
  tracer().enabled = true;
  const Stopwatch traced_watch;
  while (traced_s < options.seconds / 2) {
    traced_s += round(rounds++);
    ++traced_rounds;
  }
  const double traced_cpu = traced_watch.cpu_s();
  tracer().enabled = false;
  const double plain_rate = static_cast<double>(plain_rounds) / plain_cpu;
  const double traced_rate = static_cast<double>(traced_rounds) / traced_cpu;
  report.layer("trace.overhead_pct", (plain_rate / traced_rate - 1.0) * 100.0, "%");
  report.layer("trace.spans", static_cast<double>(tracer().spans().size()), "count");
}

}  // namespace perfbench
