#include "core/server_builder.h"

#include <stdexcept>

#include "sched/baselines.h"
#include "sched/fifs.h"

namespace pe::core {

const char* ToString(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFifs: return "FIFS";
    case SchedulerKind::kElsa: return "ELSA";
    case SchedulerKind::kJsq: return "JSQ";
    case SchedulerKind::kGreedyFastest: return "GreedyFastest";
  }
  return "?";
}

std::unique_ptr<sched::Scheduler> MakeScheduler(
    SchedulerKind kind, const profile::ModelRepertoire& repertoire,
    SimTime sla_target, sched::ElsaParams elsa, double swap_cost_sec) {
  switch (kind) {
    case SchedulerKind::kFifs:
      return std::make_unique<sched::FifsScheduler>();
    case SchedulerKind::kElsa:
      if (elsa.swap_cost_sec == 0.0) elsa.swap_cost_sec = swap_cost_sec;
      return std::make_unique<sched::ElsaScheduler>(repertoire, sla_target,
                                                    elsa);
    case SchedulerKind::kJsq:
      return std::make_unique<sched::JsqScheduler>();
    case SchedulerKind::kGreedyFastest:
      return std::make_unique<sched::GreedyFastestScheduler>(repertoire);
  }
  throw std::invalid_argument("MakeScheduler: unknown kind");
}

}  // namespace pe::core
