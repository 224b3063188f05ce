#include "host/fork_join.h"

#include <algorithm>
#include <atomic>
#include <system_error>
#include <thread>
#include <vector>

namespace fcae {
namespace host {

void ForkJoin(size_t tasks, const std::function<void(size_t)>& task) {
  std::atomic<size_t> next{0};
  auto run = [&]() {
    for (size_t i = next.fetch_add(1); i < tasks; i = next.fetch_add(1)) {
      task(i);
    }
  };
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  const size_t workers = std::min(tasks, cores);
  // Joins on every path out, so no worker outlives the call.
  struct Joiner {
    std::vector<std::thread> threads;
    ~Joiner() {
      for (std::thread& t : threads) t.join();
    }
  } joiner;
  for (size_t w = 1; w < workers; w++) {
    try {
      joiner.threads.emplace_back(run);
    } catch (const std::system_error&) {
      break;  // No thread to spare: the threads already started, and
              // the caller, take the remaining indexes.
    }
  }
  run();
}

}  // namespace host
}  // namespace fcae
