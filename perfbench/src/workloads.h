// The benchmark's three workloads. Each builds its fleet, generates its
// open-loop arrival schedule and inputs from `seed`, runs, checks, and
// prints one RESULT line (see harness.h). Sizing and the reasons for each
// workload are in perfbench/README.md.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include "perfbench/src/harness.h"

namespace symphony {
namespace perfbench {

// Each returns the process exit code: 0 when every check passed (and 0 for
// a set-up-only build, which prints nothing).
int RunOverload(const RunOptions& options);
int RunRag(const RunOptions& options);
int RunAgents(const RunOptions& options);

}  // namespace perfbench
}  // namespace symphony

#endif  // PERFBENCH_SRC_WORKLOADS_H_
