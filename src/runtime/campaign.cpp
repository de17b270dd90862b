#include "runtime/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <thread>

#include "runtime/journal.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace mlec {

namespace {

/// Raised inside a shard attempt when its watchdog token fires; funnels
/// into the same retry/quarantine path as workload exceptions but is
/// counted separately (ShardOutcome::timeouts).
class ShardTimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

}  // namespace

void CampaignConfig::validate() const {
  MLEC_REQUIRE(total_units > 0, "campaign needs at least one unit of work");
  MLEC_REQUIRE(checkpoint_every > 0, "checkpoint interval must be positive");
  MLEC_REQUIRE(max_attempts >= 1, "at least one attempt per shard required");
  MLEC_REQUIRE(retry_backoff_ms >= 0.0, "retry backoff must be non-negative");
  MLEC_REQUIRE(shard_timeout_s >= 0.0, "shard timeout must be non-negative");
  MLEC_REQUIRE(target_rse >= 0.0, "target RSE must be non-negative");
}

CampaignConfig campaign_config(const CampaignOptions& options, std::uint64_t units,
                               std::uint64_t seed, std::string fingerprint) {
  CampaignConfig campaign;
  static_cast<CampaignOptions&>(campaign) = options;
  campaign.total_units = units;
  campaign.seed = seed;
  campaign.fingerprint = std::move(fingerprint);
  return campaign;
}

std::size_t CampaignReport::quarantined() const {
  return static_cast<std::size_t>(
      std::count_if(shards.begin(), shards.end(),
                    [](const ShardOutcome& s) { return s.quarantined; }));
}

double bernoulli_rse(std::uint64_t successes, std::uint64_t trials) {
  if (successes == 0 || trials == 0) return std::numeric_limits<double>::infinity();
  const double p = static_cast<double>(successes) / static_cast<double>(trials);
  return std::sqrt((1.0 - p) / static_cast<double>(successes));
}

struct CampaignRunner::ShardState {
  std::uint64_t assigned = 0;
  std::uint64_t done = 0;
  std::uint32_t attempt = 0;  ///< 0-based index of the current/last attempt
  /// rng_state (and acc) hold a committed checkpoint of the current attempt.
  bool has_checkpoint = false;
  std::array<std::uint64_t, 4> rng_state{};
  CampaignAccumulator acc;
  bool finished = false;
  bool quarantined = false;
  std::string error;
  std::uint32_t timeouts = 0;  ///< attempts cancelled by the watchdog
  double elapsed_s = 0.0;  ///< wall time across this invocation's attempts
  // Watchdog view of the shard (all guarded by the campaign mutex): a shard
  // is watched only while `running`; `last_progress` is refreshed at every
  // commit; `attempt_stop` is replaced at each attempt start so cancelling
  // one attempt cannot leak into its retry.
  bool running = false;
  std::chrono::steady_clock::time_point last_progress{};
  StopSource attempt_stop;
};

CampaignRunner::CampaignRunner(CampaignConfig config, WorkerFactory factory, RseEstimator rse)
    : config_(std::move(config)), factory_(std::move(factory)), rse_(std::move(rse)) {
  config_.validate();
  MLEC_REQUIRE(factory_ != nullptr, "campaign needs a worker factory");
}

CampaignRunner::~CampaignRunner() = default;

bool CampaignRunner::should_stop() {
  if (converged_.load(std::memory_order_relaxed)) return true;
  if (config_.stop.stop_requested() ||
      (config_.unit_budget > 0 &&
       invocation_units_.load(std::memory_order_relaxed) >= config_.unit_budget)) {
    truncated_.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

CampaignAccumulator CampaignRunner::merged_locked() const {
  CampaignAccumulator merged;
  for (const auto& st : states_)
    if (!st.quarantined) merged.merge(st.acc);
  return merged;
}

void CampaignRunner::write_journal_locked() {
  if (config_.checkpoint_path.empty()) return;
  CampaignJournal journal;
  journal.seed = config_.seed;
  journal.total_units = config_.total_units;
  journal.shards = static_cast<std::uint32_t>(states_.size());
  journal.fingerprint = fingerprint_of(config_.fingerprint);
  journal.records.reserve(states_.size());
  for (std::uint32_t s = 0; s < states_.size(); ++s) {
    const auto& st = states_[s];
    ShardRecord rec;
    rec.shard = s;
    rec.attempt = st.attempt;
    rec.quarantined = st.quarantined;
    rec.assigned = st.assigned;
    rec.done = st.done;
    rec.rng_state = st.rng_state;
    rec.acc = st.acc;
    journal.records.push_back(std::move(rec));
  }
  journal.save_file(config_.checkpoint_path);
}

void CampaignRunner::restore_from_journal() {
  JournalLoadResult loaded = CampaignJournal::recover_file(config_.checkpoint_path);
  if (loaded.status == JournalLoadResult::Status::kMissing) return;
  if (!loaded.usable()) {
    // Corruption is an operational hazard, not a configuration error: fall
    // back to a fresh start (bit-identical to a never-checkpointed run) and
    // surface the damage through the report instead of aborting.
    resume_warning_ = loaded.warning + " — starting fresh";
    return;
  }
  // A *valid* journal for the wrong campaign is a user error: resuming it
  // would silently mix incompatible statistics, so these still throw.
  MLEC_REQUIRE(loaded.seed == config_.seed, "campaign journal seed mismatch");
  MLEC_REQUIRE(loaded.total_units == config_.total_units,
               "campaign journal total-unit mismatch");
  MLEC_REQUIRE(loaded.shards == states_.size(), "campaign journal shard-count mismatch");
  MLEC_REQUIRE(loaded.fingerprint == fingerprint_of(config_.fingerprint),
               "campaign journal belongs to a different workload configuration");
  for (const auto& rec : loaded.records) {
    MLEC_REQUIRE(rec.shard < states_.size(), "campaign journal shard id out of range");
    auto& st = states_[rec.shard];
    MLEC_REQUIRE(rec.assigned == st.assigned, "campaign journal shard partition mismatch");
    st.done = rec.done;
    st.attempt = rec.attempt;
    st.quarantined = rec.quarantined;
    st.acc = rec.acc;
    st.rng_state = rec.rng_state;
    st.has_checkpoint = rec.done > 0;
    st.finished = rec.done == rec.assigned;
  }
  // Shards whose records were dropped with the damaged tail simply keep
  // their fresh-start state and recompute their deterministic substreams.
  resumed_ = true;
  resume_warning_ = loaded.warning;
}

void CampaignRunner::commit(std::uint32_t shard, const CampaignAccumulator& acc,
                            const Rng& rng, std::uint64_t done, std::uint32_t attempt) {
  MLEC_FAULT_POINT("campaign.checkpoint.pre");
  CampaignProgress snapshot;
  {
    MutexLock lock(mutex_);
    auto& st = states_[shard];
    invocation_units_.fetch_add(done - st.done, std::memory_order_relaxed);
    st.acc = acc;
    st.rng_state = rng.state();
    st.done = done;
    st.attempt = attempt;
    st.has_checkpoint = true;
    st.last_progress = std::chrono::steady_clock::now();  // watchdog heartbeat
    write_journal_locked();
    if (rse_ != nullptr && (config_.target_rse > 0.0 || config_.progress != nullptr)) {
      const double rse = rse_(merged_locked());
      if (config_.target_rse > 0.0 && rse <= config_.target_rse)
        converged_.store(true, std::memory_order_relaxed);
      if (std::isfinite(rse)) snapshot.achieved_rse = rse;
    }
    if (config_.progress != nullptr) {
      snapshot.shard = shard;
      snapshot.units_total = config_.total_units;
      for (const auto& s : states_) snapshot.units_done += s.done;
    }
  }
  // The callback runs outside the campaign mutex so a slow subscriber fan-
  // out cannot stall other shards' commits.
  if (config_.progress != nullptr) config_.progress(snapshot);
  MLEC_FAULT_POINT("campaign.checkpoint.post");
}

void CampaignRunner::backoff_before_retry(std::uint32_t shard,
                                          std::uint32_t retry_attempt) const {
  if (config_.retry_backoff_ms <= 0.0) return;
  const double factor = std::pow(2.0, static_cast<double>(retry_attempt - 1));
  // Jitter is drawn from seeded SplitMix64 over (seed, shard,
  // attempt), never wall clock or rand(): retries stay reproducible
  // run-to-run while still de-synchronizing across shards.
  std::uint64_t jitter_state = config_.seed ^
                               (static_cast<std::uint64_t>(shard) *
                                0x9e3779b97f4a7c15ULL) ^
                               retry_attempt;
  const double jitter =
      0.5 + static_cast<double>(splitmix64(jitter_state) >> 11) * 0x1.0p-53;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      config_.retry_backoff_ms * factor * jitter));
}

void CampaignRunner::run_shard(std::uint32_t shard) {
  const auto started = std::chrono::steady_clock::now();
  // Charges wall time on every exit path. Declared first so its destructor
  // runs after every inner MutexLock has released (locals destroy in
  // reverse order) — it can safely take the mutex itself.
  struct Timer {
    CampaignRunner& self;
    std::uint32_t shard;
    std::chrono::steady_clock::time_point start;
    ~Timer() {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      MutexLock lock(self.mutex_);
      self.states_[shard].elapsed_s += elapsed;
    }
  } timer{*this, shard, started};
  for (;;) {
    // Copy everything the attempt needs under the lock, then run on the
    // copies: shard threads never touch ShardState unlocked.
    std::uint64_t assigned = 0;
    std::uint64_t done = 0;
    std::uint32_t attempt = 0;
    bool has_checkpoint = false;
    std::array<std::uint64_t, 4> rng_state{};
    CampaignAccumulator acc;
    StopToken attempt_token;
    {
      MutexLock lock(mutex_);
      ShardState& st = states_[shard];
      if (st.finished || st.quarantined) return;
      assigned = st.assigned;
      done = st.done;
      attempt = st.attempt;
      has_checkpoint = st.has_checkpoint;
      rng_state = st.rng_state;
      acc = st.acc;
      st.attempt_stop = StopSource{};  // fresh per attempt: no stale cancels
      attempt_token = st.attempt_stop.token();
      st.last_progress = std::chrono::steady_clock::now();
      st.running = true;
    }
    const std::uint64_t stream =
        static_cast<std::uint64_t>(shard) | (static_cast<std::uint64_t>(attempt) << 32);
    Rng rng = Rng::for_substream(config_.seed, stream);
    if (has_checkpoint) rng.set_state(rng_state);
    // Injected fault delays on this thread poll the attempt token, so the
    // watchdog can cut a hung (delay-injected) shard loose mid-sleep.
    fault::ScopedCancellation cancel_scope(attempt_token);
    try {
      auto worker = factory_(shard, rng);
      MLEC_REQUIRE(worker != nullptr, "campaign worker factory returned null");
      while (done < assigned) {
        if (should_stop()) {  // progress up to `done` is committed
          MutexLock lock(mutex_);
          states_[shard].running = false;
          return;
        }
        MLEC_FAULT_POINT("shard.slow");
        if (attempt_token.stop_requested())
          throw ShardTimeoutError("shard " + std::to_string(shard) +
                                  " made no progress within " +
                                  std::to_string(config_.shard_timeout_s) + "s");
        const std::uint64_t batch = std::min(config_.checkpoint_every, assigned - done);
        for (std::uint64_t u = 0; u < batch; ++u) {
          MLEC_FAULT_POINT("pool.task.throw");
          worker(acc);
        }
        done += batch;
        commit(shard, acc, rng, done, attempt);
      }
      {
        MutexLock lock(mutex_);
        ShardState& st = states_[shard];
        st.running = false;
        st.finished = true;
      }
      return;
    } catch (const std::exception& e) {
      std::uint32_t retry_attempt = 0;
      {
        MutexLock lock(mutex_);
        ShardState& st = states_[shard];
        st.running = false;
        st.error = e.what();
        if (dynamic_cast<const ShardTimeoutError*>(&e) != nullptr) ++st.timeouts;
        // Retry from scratch on a fresh substream: the failed attempt's
        // partial accumulation (committed or not) is discarded so a
        // mid-stream fault cannot bias the surviving statistics.
        st.done = 0;
        st.acc = CampaignAccumulator{};
        st.has_checkpoint = false;
        if (st.attempt + 1 >= config_.max_attempts) {
          st.quarantined = true;
          write_journal_locked();
          return;
        }
        retry_attempt = ++st.attempt;
      }
      backoff_before_retry(shard, retry_attempt);
    }
  }
}

std::pair<CampaignAccumulator, CampaignReport> CampaignRunner::run(ThreadPool* pool) {
  const auto run_started = std::chrono::steady_clock::now();
  std::size_t shard_count = config_.shards;
  if (shard_count == 0) shard_count = pool != nullptr ? pool->size() * 2 : 1;
  shard_count = std::clamp<std::size_t>(shard_count, 1, config_.total_units);

  {
    // No shard threads exist yet, but partitioning and journal restore still
    // run under the mutex: `states_` is guarded wholesale and the analysis
    // (rightly) has no notion of "before the races start".
    MutexLock lock(mutex_);
    states_.assign(shard_count, ShardState{});
    for (std::size_t s = 0; s < shard_count; ++s) {
      const std::uint64_t lo = config_.total_units * s / shard_count;
      const std::uint64_t hi = config_.total_units * (s + 1) / shard_count;
      states_[s].assigned = hi - lo;
    }

    if (config_.resume && !config_.checkpoint_path.empty() &&
        std::filesystem::exists(config_.checkpoint_path))
      restore_from_journal();
  }

  // The watchdog polls each running shard's commit heartbeat and fires the
  // shard's per-attempt StopSource once it goes stale; the shard observes
  // the token at its next batch boundary (or mid fault-delay) and converts
  // it into a retryable timeout.
  std::atomic<bool> watchdog_exit{false};
  std::thread watchdog;
  if (config_.shard_timeout_s > 0.0) {
    watchdog = std::thread([this, &watchdog_exit] {
      const auto timeout = std::chrono::duration<double>(config_.shard_timeout_s);
      const auto poll = std::chrono::duration<double>(
          std::max(config_.shard_timeout_s / 8.0, 0.001));
      while (!watchdog_exit.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(poll);
        const auto now = std::chrono::steady_clock::now();
        MutexLock lock(mutex_);
        for (auto& st : states_) {
          if (!st.running || st.attempt_stop.stop_requested()) continue;
          if (now - st.last_progress > timeout) st.attempt_stop.request_stop();
        }
      }
    });
  }

  if (pool != nullptr && shard_count > 1) {
    pool->parallel_chunks(
        0, shard_count, shard_count,
        [&](std::size_t shard, std::size_t, std::size_t) {
          run_shard(static_cast<std::uint32_t>(shard));
        },
        StopToken{}, config_.pool_lane);
  } else {
    for (std::size_t s = 0; s < shard_count; ++s)
      run_shard(static_cast<std::uint32_t>(s));
  }

  if (watchdog.joinable()) {
    watchdog_exit.store(true, std::memory_order_relaxed);
    watchdog.join();
  }

  MutexLock lock(mutex_);
  write_journal_locked();

  CampaignReport report;
  report.units_requested = config_.total_units;
  report.resumed = resumed_;
  report.resume_warning = resume_warning_;
  report.shards.reserve(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    const auto& st = states_[s];
    ShardOutcome outcome;
    outcome.shard = s;
    outcome.attempts = st.attempt + 1;
    outcome.assigned = st.assigned;
    outcome.done = st.done;
    outcome.quarantined = st.quarantined;
    outcome.timeouts = st.timeouts;
    outcome.error = st.error;
    outcome.elapsed_s = st.elapsed_s;
    report.shards.push_back(std::move(outcome));
    report.units_done += st.done;
  }
  report.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - run_started).count();
  report.converged = converged_.load();
  report.truncated = truncated_.load() && !report.converged && !report.complete();

  CampaignAccumulator merged = merged_locked();
  if (rse_ != nullptr) {
    const double rse = rse_(merged);
    report.achieved_rse = std::isfinite(rse) ? rse : 0.0;
  }
  return {std::move(merged), std::move(report)};
}

}  // namespace mlec
