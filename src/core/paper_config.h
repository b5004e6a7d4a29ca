// Paper evaluation configuration (Section V, Table I).
//
// Per model: the GPC budget granted to GPU(1,2,3)/Random/PARIS designs, the
// (larger) budget the GPU(7) homogeneous design uses, and the number of
// physical A100s -- all copied from Table I.  Also the SLA rule: N x the
// inference latency of the distribution's max batch on GPU(7), N = 1.5 by
// default.
#pragma once

#include <string>
#include <vector>

#include "common/sim_time.h"
#include "profile/profile_table.h"

namespace pe::core {

struct ModelServerConfig {
  std::string model;
  int num_gpus = 8;       // physical A100s (Table I bottom row)
  int gpc_budget = 48;    // GPCs for GPU(1,2,3), Random and PARIS
  int gpc_budget_gpu7 = 56;  // GPCs for the GPU(7) homogeneous design
};

// Table I rows for the five paper models.
const std::vector<ModelServerConfig>& PaperTable1();

// Looks up a model's Table I row; throws std::invalid_argument if unknown.
const ModelServerConfig& Table1For(const std::string& model);

// SLA target (Section V): sla_n x latency(GPU(7), max profiled batch).
// Throws std::invalid_argument, naming sla_n, when the target is negative,
// NaN or past 2^63 ns.
SimTime SlaTarget(const profile::ProfileTable& profile, int max_batch,
                  double sla_n = 1.5);

}  // namespace pe::core
