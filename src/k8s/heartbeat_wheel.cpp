#include "k8s/heartbeat_wheel.hpp"

#include "k8s/kubelet.hpp"

namespace sf::k8s {

std::uint32_t HeartbeatWheel::add(Kubelet& kubelet) {
  const std::uint32_t m = static_cast<std::uint32_t>(members_.size());
  members_.push_back(Member{&kubelet.connectivity_probe(),
                            api_.node_slot(kubelet.node_name()), true});
  if (kubelet.heartbeat_alive()) {
    api_.renew_node_lease_slot(members_[m].node_slot);
  }
  return m;
}

void HeartbeatWheel::remove(std::uint32_t member) {
  members_[member].live = false;
}

void HeartbeatWheel::restore(std::uint32_t member) {
  members_[member].live = true;
}

void HeartbeatWheel::start(double interval_s) {
  if (started_) return;
  started_ = true;
  interval_ = interval_s;
  api_.sim().call_in(interval_, [this] { tick(); });
}

void HeartbeatWheel::tick() {
  // Live members are up by construction (remove()/restore() track node
  // crash/reboot), so the connectivity probe is the only gate evaluated
  // here. Reading the cached probe pointer touches one kubelet cache line
  // per member — the difference between 5x and 4x at 10k nodes.
  for (const Member& mem : members_) {
    if (!mem.live) continue;
    const std::function<bool()>& reachable = *mem.probe;
    if (!reachable || reachable()) {
      api_.renew_node_lease_slot(mem.node_slot);
    }
  }
  api_.sim().call_in(interval_, [this] { tick(); });
}

}  // namespace sf::k8s
