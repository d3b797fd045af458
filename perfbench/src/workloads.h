// The three workloads. Each is dominated by a different layer: the PPO
// update (train_inception), the GNN forward of inference (infer_bert), and
// search plus serving (serve_mix). perfbench/README.md gives the details.
#pragma once

#include "common.h"

namespace perfbench {

Report run_train_inception(const Options& options);
Report run_infer_bert(const Options& options);
Report run_serve_mix(const Options& options);

} // namespace perfbench
