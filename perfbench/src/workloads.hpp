// The benchmark's workloads. Each returns 0 when it ran (its checks are
// recorded in `results`), non-zero when it could not run at all.
#pragma once

#include "report.hpp"

namespace perfbench {

int RunFleet(const RunOptions& opt, Results& results);
int RunAppLocks(const RunOptions& opt, Results& results);
int RunImmunity(const RunOptions& opt, Results& results);

}  // namespace perfbench
