// Shared plumbing of the mlec++ benchmark: run options, the per-run report
// (end-to-end metrics, counts of operations attempted and failed), the span
// tracer, and small statistics helpers.
//
// Every workload follows one protocol: set up (several times, reporting the
// median), run whole rounds of a seeded operation sequence until the run's
// measured time reaches --seconds, check the outputs, report.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "placement/codes.hpp"
#include "topology/topology.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Campaign shard count for every estimate, pinned so that results do not
/// depend on nproc.
inline constexpr std::size_t kShards = 4;

/// The repair workload's deployment, shared with the per-layer probes:
/// (4+3)/(3+1) over 7 racks x 1 enclosure x 8 disks, 8 KiB chunks.
inline const mlec::MlecCode kRepairCode{{4, 3}, {3, 1}};
inline constexpr std::size_t kRepairChunkBytes = 8 * 1024;
mlec::DataCenterConfig repair_datacenter();

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds consumed by the whole process so far, all threads, user and
/// system. Unlike wall time it does not count time the host gives to other
/// tenants (steal), which on a shared VM drifts by tens of percent between
/// runs.
double process_cpu_s();

/// Wall-clock and process CPU time since construction.
class Stopwatch {
 public:
  Stopwatch() : wall_(Clock::now()), cpu_(process_cpu_s()) {}
  double wall_s() const { return seconds_since(wall_); }
  double cpu_s() const { return process_cpu_s() - cpu_; }

 private:
  Clock::time_point wall_;
  double cpu_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root;      ///< checkout root (holds src/, examples/, perfbench/)
  std::string work_dir;  ///< scratch space inside the checkout (state dirs, trace dumps)
};

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;  ///< the JSON metrics of an untraced run
  std::vector<Metric> per_layer;   ///< the JSON metrics of a traced run
  std::vector<Metric> info;        ///< printed by name, not part of the JSON line

  /// Count one operation; a false `ok` counts it failed and prints `what`.
  void op(bool ok, const std::string& what = {});
  /// A whole-run property (not tied to one operation); false makes the
  /// run incorrect.
  void check(bool ok, const std::string& what);
  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    info.push_back({std::move(name), value, std::move(unit)});
  }
};

// --- statistics -----------------------------------------------------------

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);
/// The highest of p90/p99/p999 with at least ten samples beyond it; 0 when
/// fewer than forty samples support none. Returns {percentile, value}.
std::pair<double, double> supported_tail(const std::vector<double>& values);

/// splitmix64: derives per-operation seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Deterministic generator for the benchmark's own choices (operation order,
/// failure sets, scenario variants) — kept apart from the library's Rng so
/// the inputs do not depend on library internals.
class Choice {
 public:
  explicit Choice(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return state_ = mix_seed(state_, 0x9e3779b97f4a7c15ULL); }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// --- process measurements ---------------------------------------------------

double peak_rss_mb();
double vm_size_mb();
std::size_t open_fds();
std::string read_file(const std::string& path);
/// Name of the filesystem type holding `path` (tmpfs, ext2/ext3/ext4, ...).
std::string filesystem_type(const std::string& path);

/// While set, fsync() from the library returns at once (fsync_shim.cpp);
/// the daemon workload sets it so that the shared disk does not set its
/// numbers. Calls skipped so far are counted.
extern std::atomic<bool> skip_fsync;
extern std::atomic<std::uint64_t> fsyncs_skipped;

// --- tracing ----------------------------------------------------------------

/// In-memory span recorder. A span marks one call from the benchmark into a
/// library layer: name, start, end, parent span, and the operation (request)
/// it belongs to. Disabled, a span costs one branch; spans are written out
/// only when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t id;
    std::uint32_t parent;  ///< 0 = root
    std::uint64_t op;      ///< operation the span belongs to
  };

  bool enabled = false;
  std::uint64_t current_op = 0;

  std::uint32_t open(const char* name);
  void close(std::uint32_t id);
  const std::vector<Span>& spans() const { return spans_; }
  /// JSON lines, one per span, then one summary line per span name with its
  /// count and self time; returns false when the file cannot be written.
  bool dump(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  Clock::time_point epoch_ = Clock::now();
};

Tracer& tracer();

class SpanScope {
 public:
  explicit SpanScope(const char* name) : id_(tracer().enabled ? tracer().open(name) : 0) {}
  ~SpanScope() {
    if (id_ != 0) tracer().close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::uint32_t id_;
};

// --- the run protocol ------------------------------------------------------------

/// Run `setup` `times` times and return the median CPU seconds.
double timed_setup(int times, const std::function<void()>& setup);

/// Call round(i) for i = 0, 1, ... until the wall seconds of timed work the
/// rounds return add up to options.seconds; only whole rounds run. In a
/// traced run (options.trace) the first half of the
/// budget runs untraced and the second half traced; the difference in
/// rounds per CPU second is reported as the per-layer `trace.overhead_pct`.
void run_rounds(const Options& options, Report& report,
                const std::function<double(std::size_t)>& round);

// --- workloads ----------------------------------------------------------------

/// Each workload fills `report` with its end-to-end metrics (untraced) or,
/// with options.trace, runs traced and fills the per-layer metrics.
void run_paper_sweep(const Options& options, Report& report);
void run_crosscheck(const Options& options, Report& report);
void run_daemon(const Options& options, Report& report);
void run_repair(const Options& options, Report& report);

/// The per-layer probe suite every traced run executes after its workload.
void run_layer_probes(const Options& options, Report& report);

}  // namespace perfbench
