// The one scheduler factory: the scheduler kinds the paper evaluates
// (FIFS, ELSA) and the baselines (JSQ, GreedyFastest), each built over a
// ModelRepertoire.  core::MixTestbed and core::FleetTestbed build every
// scheduler through it.
#pragma once

#include <memory>

#include "common/sim_time.h"
#include "profile/model_repertoire.h"
#include "sched/elsa.h"
#include "sched/scheduler.h"

namespace pe::core {

enum class SchedulerKind { kFifs, kElsa, kJsq, kGreedyFastest };

const char* ToString(SchedulerKind kind);

// A `kind` scheduler over `repertoire` (ELSA and GreedyFastest read each
// query's own model profile from it, and borrow it, so it must outlive the
// scheduler).  `sla_target` is ELSA's SLA.  Unless the caller tuned
// `elsa.swap_cost_sec`, ELSA's slack predictor charges `swap_cost_sec` --
// the simulator's model-swap penalty -- so it stays honest about swaps; 0
// leaves it swap-oblivious.
std::unique_ptr<sched::Scheduler> MakeScheduler(
    SchedulerKind kind, const profile::ModelRepertoire& repertoire,
    SimTime sla_target, sched::ElsaParams elsa, double swap_cost_sec = 0.0);

}  // namespace pe::core
