// fsync interposer for the daemon workload.
//
// The daemon's state dir must live inside the checkout, and on a shared
// disk its fsync latency swings several-fold within minutes with other
// tenants' load -- the disk, not mlec++, would set the daemon's numbers.
// A memory-backed state dir (tmpfs, where fsync costs next to nothing) is
// what the workload is meant to measure, so while `skip_fsync` is set this
// definition, which the linker prefers over libc's for the statically
// linked libraries, counts the call and returns success without syncing.
// Every write, rename and directory operation still happens. The traced
// run's probes (runtime.journal_commit_ms, server.store_save_ms) run with
// it cleared and so measure the real cost.
#include <dlfcn.h>

#include <atomic>

#include "bench.hpp"

namespace perfbench {
std::atomic<bool> skip_fsync{false};
std::atomic<std::uint64_t> fsyncs_skipped{0};
}  // namespace perfbench

extern "C" int fsync(int fd) {
  if (perfbench::skip_fsync.load(std::memory_order_relaxed)) {
    perfbench::fsyncs_skipped.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  using Fn = int (*)(int);
  static const Fn real = reinterpret_cast<Fn>(dlsym(RTLD_NEXT, "fsync"));
  return real(fd);
}
