#include "cluster/cluster.hpp"

#include <utility>

namespace sf::cluster {

Node& Cluster::add_node(NodeSpec spec) {
  if (spec.name.empty()) {
    spec.name = "node" + std::to_string(nodes_.size());
  }
  nodes_.push_back(std::make_unique<Node>(sim_, network_, std::move(spec)));
  return *nodes_.back();
}

Node& Cluster::node_by_name(std::string_view name) {
  for (auto& n : nodes_) {
    if (n->name() == name) return *n;
  }
  throw std::out_of_range("Cluster: no node named " + std::string(name));
}

Node& Cluster::node_by_net_id(net::NodeId id) {
  for (auto& n : nodes_) {
    if (n->net_id() == id) return *n;
  }
  throw std::out_of_range("Cluster: no node with that net id");
}

std::vector<Node*> Cluster::nodes() {
  std::vector<Node*> out;
  out.reserve(nodes_.size());
  for (auto& n : nodes_) out.push_back(n.get());
  return out;
}

std::unique_ptr<Cluster> make_paper_testbed(sim::Simulation& sim) {
  return make_uniform_cluster(sim, 4, NodeSpec{});
}

std::unique_ptr<Cluster> make_uniform_cluster(sim::Simulation& sim,
                                              std::size_t node_count,
                                              const NodeSpec& base) {
  auto cluster = std::make_unique<Cluster>(sim);
  for (std::size_t i = 0; i < node_count; ++i) {
    NodeSpec spec = base;
    spec.name = "node" + std::to_string(i);
    cluster->add_node(std::move(spec));
  }
  return cluster;
}

}  // namespace sf::cluster
