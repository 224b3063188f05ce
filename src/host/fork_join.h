#ifndef FCAE_HOST_FORK_JOIN_H_
#define FCAE_HOST_FORK_JOIN_H_

#include <cstddef>
#include <functional>

namespace fcae {
namespace host {

/// Runs `task(i)` once for every i in [0, tasks) and returns when all
/// have run. The calling thread and up to
/// min(tasks, hardware_concurrency()) - 1 threads started for this call
/// take indexes in turn, so a long task does not hold up the short ones
/// behind it. Tasks run with no lock held and must touch only their own
/// index's slot of any shared result; everything they wrote is visible
/// to the caller on return.
void ForkJoin(size_t tasks, const std::function<void(size_t)>& task);

}  // namespace host
}  // namespace fcae

#endif  // FCAE_HOST_FORK_JOIN_H_
