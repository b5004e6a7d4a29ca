// Fleet-wide model placement: which models live on which servers at
// which GPC budgets.
//
// The single-server world pins one repertoire to one `InferenceServer`;
// a fleet shards the repertoire across N servers, each serving a subset
// of the models on its own MIG layout.  A PlacementMap is the source of
// truth for that assignment: per server the hosted model ids, the GPC
// budget its layout was derived under, and the concrete partition
// multiset; per model the replica set (the servers the router may send
// its traffic to).  The claims ledger's dedicated-vs-consolidated table
// (bench/claims.cc) samples exactly one point of this space (two
// single-model "servers" vs one two-model server); the builders below
// generate whole families of placements.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace pe::fleet {

// One server's slot in the fleet placement map.
struct ServerPlacement {
  int server_id = 0;
  // Hosted models (global repertoire ids), ascending and unique.  The
  // router only offers a query to servers hosting its model.
  std::vector<int> model_ids;
  // GPC budget the layout was (or is to be) derived under.
  int gpc_budget = 48;
  // Concrete MIG layout (multiset of partition sizes).  Builders leave it
  // empty; the fleet planner (core::FleetTestbed) fills it per server and
  // fleet::Cluster requires it non-empty.
  std::vector<int> partition_gpcs;
};

class PlacementMap {
 public:
  PlacementMap() = default;
  // Takes ownership of `servers`; ids must be dense 0..N-1 in order.
  // Throws std::invalid_argument on non-dense ids, an empty server list,
  // a server hosting no model (or duplicate/negative model ids), or a
  // model id left unhosted by every server.
  explicit PlacementMap(std::vector<ServerPlacement> servers);

  int num_servers() const { return static_cast<int>(servers_.size()); }
  const ServerPlacement& server(int server_id) const;
  // Mutable access for the layout-filling planner pass.  Only
  // partition_gpcs may change post-construction: the hosted-model sets are
  // baked into the replica index and the local-model remap tables at
  // construction time.
  ServerPlacement& mutable_server(int server_id);
  const std::vector<ServerPlacement>& servers() const { return servers_; }

  // Number of distinct placed models (max hosted id + 1; ids are dense by
  // construction).
  int num_models() const { return static_cast<int>(replicas_.size()); }

  // Servers hosting `model_id`, ascending server id.  Throws
  // std::out_of_range on an unplaced model id.
  const std::vector<int>& Replicas(int model_id) const;

  // Server-local model id (the index of `model_id` within the server's
  // sorted hosted list), or -1 when the server does not host it.  Backed
  // by dense tables precomputed at construction, so the trace-split hot
  // path pays an array index instead of a lower_bound per query.  No
  // bounds checks: both ids must be in range (server in [0, num_servers),
  // model in [0, num_models)).
  int LocalModel(int server_id, int model_id) const {
    return local_models_[static_cast<std::size_t>(server_id)]
                        [static_cast<std::size_t>(model_id)];
  }

 private:
  std::vector<ServerPlacement> servers_;
  std::vector<std::vector<int>> replicas_;  // model id -> server ids
  // server id -> (global model id -> local model id, -1 when unhosted)
  std::vector<std::vector<int>> local_models_;
};

// Full replication: every one of `num_servers` servers hosts every one of
// `num_models` models at `gpc_budget` GPCs.  Maximum routing freedom,
// maximum cross-model interference per server.
PlacementMap UniformPlacement(int num_servers, int num_models,
                              int gpc_budget = 48);

// Round-robin sharding: model m lives on servers (m + k) % num_servers
// for k in [0, replicas).  `replicas` is clamped to [1, num_servers].
// Fewer models per server means smaller per-server repertoires (fewer
// model swaps) at the cost of a narrower replica set per model.
PlacementMap ShardedPlacement(int num_servers, int num_models, int replicas,
                              int gpc_budget = 48);

// Named builder selection (the CLI's --placement spellings).
enum class PlacementKind { kUniform, kSharded };

// Parses "uniform" / "sharded"; nullopt otherwise.
std::optional<PlacementKind> ParsePlacementKind(const std::string& name);

}  // namespace pe::fleet
