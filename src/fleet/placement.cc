#include "fleet/placement.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace pe::fleet {

PlacementMap::PlacementMap(std::vector<ServerPlacement> servers)
    : servers_(std::move(servers)) {
  if (servers_.empty()) {
    throw std::invalid_argument("PlacementMap: no servers");
  }
  int max_model = -1;
  for (int s = 0; s < static_cast<int>(servers_.size()); ++s) {
    const ServerPlacement& sp = servers_[s];
    if (sp.server_id != s) {
      throw std::invalid_argument(
          "PlacementMap: server ids must be dense 0..N-1, got id " +
          std::to_string(sp.server_id) + " at slot " + std::to_string(s));
    }
    if (sp.model_ids.empty()) {
      throw std::invalid_argument("PlacementMap: server " +
                                  std::to_string(s) + " hosts no model");
    }
    if (sp.gpc_budget <= 0) {
      throw std::invalid_argument("PlacementMap: server " +
                                  std::to_string(s) +
                                  " has non-positive gpc_budget");
    }
    for (int m : sp.model_ids) {
      if (m < 0) {
        throw std::invalid_argument("PlacementMap: negative model id on server " +
                                    std::to_string(s));
      }
      max_model = std::max(max_model, m);
    }
  }
  replicas_.assign(max_model + 1, {});
  for (const ServerPlacement& sp : servers_) {
    for (int m : sp.model_ids) {
      replicas_[m].push_back(sp.server_id);
    }
  }
  for (int m = 0; m <= max_model; ++m) {
    std::vector<int>& reps = replicas_[m];
    std::sort(reps.begin(), reps.end());
    if (std::adjacent_find(reps.begin(), reps.end()) != reps.end()) {
      throw std::invalid_argument("PlacementMap: model " + std::to_string(m) +
                                  " listed twice on one server");
    }
    if (reps.empty()) {
      throw std::invalid_argument("PlacementMap: model " + std::to_string(m) +
                                  " is hosted by no server");
    }
  }
  // Keep each server's hosted list sorted so downstream consumers
  // (repertoire construction, JSON output) are order-independent.
  for (ServerPlacement& sp : servers_) {
    std::sort(sp.model_ids.begin(), sp.model_ids.end());
  }
  // Dense global->local model remap tables (the sorted hosted list is the
  // local id space, matching the per-server repertoire registration order).
  local_models_.assign(servers_.size(),
                       std::vector<int>(static_cast<std::size_t>(max_model + 1),
                                        -1));
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    const std::vector<int>& hosted = servers_[s].model_ids;
    for (std::size_t local = 0; local < hosted.size(); ++local) {
      local_models_[s][static_cast<std::size_t>(hosted[local])] =
          static_cast<int>(local);
    }
  }
}

const ServerPlacement& PlacementMap::server(int server_id) const {
  if (server_id < 0 || server_id >= num_servers()) {
    throw std::out_of_range("PlacementMap::server: bad id " +
                            std::to_string(server_id));
  }
  return servers_[server_id];
}

ServerPlacement& PlacementMap::mutable_server(int server_id) {
  if (server_id < 0 || server_id >= num_servers()) {
    throw std::out_of_range("PlacementMap::mutable_server: bad id " +
                            std::to_string(server_id));
  }
  return servers_[server_id];
}

const std::vector<int>& PlacementMap::Replicas(int model_id) const {
  if (model_id < 0 || model_id >= num_models()) {
    throw std::out_of_range("PlacementMap::Replicas: unplaced model " +
                            std::to_string(model_id));
  }
  return replicas_[model_id];
}

PlacementMap UniformPlacement(int num_servers, int num_models,
                              int gpc_budget) {
  std::vector<ServerPlacement> servers(
      static_cast<size_t>(std::max(num_servers, 0)));
  for (int s = 0; s < num_servers; ++s) {
    servers[s].server_id = s;
    servers[s].gpc_budget = gpc_budget;
    for (int m = 0; m < num_models; ++m) servers[s].model_ids.push_back(m);
  }
  return PlacementMap(std::move(servers));
}

PlacementMap ShardedPlacement(int num_servers, int num_models, int replicas,
                              int gpc_budget) {
  if (num_servers <= 0) {
    throw std::invalid_argument("ShardedPlacement: num_servers must be > 0");
  }
  replicas = std::clamp(replicas, 1, num_servers);
  std::vector<ServerPlacement> servers(static_cast<size_t>(num_servers));
  for (int s = 0; s < num_servers; ++s) {
    servers[s].server_id = s;
    servers[s].gpc_budget = gpc_budget;
  }
  for (int m = 0; m < num_models; ++m) {
    for (int k = 0; k < replicas; ++k) {
      servers[(m + k) % num_servers].model_ids.push_back(m);
    }
  }
  // Sharding can leave a server empty when num_models < num_servers;
  // give such servers the model that hashes to them so every server is
  // usable (a serving fleet has no reason to idle a whole server).
  for (int s = 0; s < num_servers; ++s) {
    if (servers[s].model_ids.empty() && num_models > 0) {
      servers[s].model_ids.push_back(s % num_models);
    }
  }
  return PlacementMap(std::move(servers));
}

std::optional<PlacementKind> ParsePlacementKind(const std::string& name) {
  if (name == "uniform") return PlacementKind::kUniform;
  if (name == "sharded") return PlacementKind::kSharded;
  return std::nullopt;
}

}  // namespace pe::fleet
