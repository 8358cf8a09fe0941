#include "k8s/api_server.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace sf::k8s {

// Defined ahead of its callers below; the watch-delivery contract is at the
// end of this file, beside notify_pod.
template <typename T>
void ApiServer::notify(
    const std::deque<std::function<void(EventType, const T&)>>& watches,
    EventType type, const T& obj) {
  if (watches.empty()) return;
  ++watch_batches_scheduled_;
  sim_.call_in(kApiLatency, [this, &watches, type, obj, n = watches.size()] {
    ++watch_batches_delivered_;
    for (std::size_t i = 0; i < n; ++i) watches[i](type, obj);
  });
}

// ---- Node slots ---------------------------------------------------------

std::uint32_t ApiServer::node_slot(const std::string& name) {
  const std::uint32_t slot = node_ids_.intern(name) - 1u;
  if (slot == node_slots_.size()) {  // first sight: ids are dense
    node_slots_.emplace_back();
    node_lease_.push_back(0.0);
    node_flags_.push_back(0);
  }
  return slot;
}

std::uint32_t ApiServer::find_node_slot(const std::string& name) const {
  return node_ids_.lookup(name) - 1u;
}

void ApiServer::register_node(NodeObject node) {
  const std::uint32_t slot = node_slot(node.name);
  NodeSlot& ns = node_slots_[slot];
  if (!ns.obj.has_value()) {
    const auto pos = std::lower_bound(
        node_order_.begin(), node_order_.end(), std::string_view{node.name},
        [this](std::uint32_t s, std::string_view name) {
          return node_ids_.name(s + 1) < name;
        });
    node_order_.insert(pos, slot);
  }
  node_flags_[slot] = static_cast<std::uint8_t>(
      kNodeRegistered | (node.ready ? kNodeReady : 0));
  node_lease_[slot] = sim_.now();
  unindex_node(slot);  // a re-registration may change the node's class
  ns.obj = std::move(node);
  index_node(slot);
}

bool ApiServer::set_node_ready(const std::string& name, bool ready) {
  const std::uint32_t slot = find_node_slot(name);
  if (slot == kNoSlot) return false;
  NodeSlot& ns = node_slots_[slot];
  if (!ns.obj.has_value() || ns.obj->ready == ready) return false;
  ns.obj->ready = ready;
  node_flags_[slot] = static_cast<std::uint8_t>(
      kNodeRegistered | (ready ? kNodeReady : 0));
  if (ready) {
    index_node(slot);
  } else {
    unindex_node(slot);
  }
  sim_.trace().record(sim_.now(), "api", ready ? "node_ready" : "node_not_ready",
                      {{"node", name}});
  notify(node_watches_, EventType::kModified, *ns.obj);
  return true;
}

void ApiServer::index_node(std::uint32_t slot) {
  NodeSlot& ns = node_slots_[slot];
  if (ns.cpu_class != kNoSlot || !ns.obj->ready) return;
  const double cpu = ns.obj->allocatable_cpu;
  auto cls = std::find_if(
      cpu_classes_.begin(), cpu_classes_.end(),
      [cpu](const CpuClass& c) { return c.allocatable_cpu == cpu; });
  if (cls == cpu_classes_.end()) {
    cpu_classes_.push_back(
        CpuClass{cpu, PlacementSet{PlacementOrder{&node_ids_}}});
    cls = std::prev(cpu_classes_.end());
  }
  ns.cpu_class = static_cast<std::uint32_t>(cls - cpu_classes_.begin());
  ns.placed = cls->nodes.insert(PlacedNode{ns.usage.cpu, slot}).first;
}

void ApiServer::unindex_node(std::uint32_t slot) {
  NodeSlot& ns = node_slots_[slot];
  if (ns.cpu_class == kNoSlot) return;
  cpu_classes_[ns.cpu_class].nodes.erase(ns.placed);
  ns.cpu_class = kNoSlot;
}

void ApiServer::rekey_node(std::uint32_t slot) {
  NodeSlot& ns = node_slots_[slot];
  if (ns.cpu_class == kNoSlot || ns.placed->cpu == ns.usage.cpu) return;
  // Re-file the same tree node under its new key: no allocation.
  PlacementSet& nodes = cpu_classes_[ns.cpu_class].nodes;
  auto entry = nodes.extract(ns.placed);
  entry.value().cpu = ns.usage.cpu;
  ns.placed = nodes.insert(std::move(entry)).position;
}

void ApiServer::renew_node_lease(const std::string& name) {
  const std::uint32_t slot = find_node_slot(name);
  if (slot != kNoSlot) renew_node_lease_slot(slot);
}

double ApiServer::node_lease(const std::string& name) const {
  const std::uint32_t slot = find_node_slot(name);
  if (slot == kNoSlot || !node_slots_[slot].obj.has_value()) return -1.0;
  return node_lease_[slot];
}

std::size_t ApiServer::collect_lease_transitions(
    double now, double duration, std::vector<std::string>& expired,
    std::vector<std::string>& recovered) const {
  for (const std::uint32_t slot : node_order_) {
    const double age = now - node_lease_[slot];
    if ((node_flags_[slot] & kNodeReady) != 0) {
      if (age > duration) expired.emplace_back(node_ids_.name(slot + 1));
    } else if (age <= duration) {
      recovered.emplace_back(node_ids_.name(slot + 1));
    }
  }
  return node_order_.size();
}

// ---- Pod side arrays ----------------------------------------------------

void ApiServer::ensure_pod_side(std::uint32_t pod_slot) {
  if (pod_slot >= pod_node_slot_.size()) {
    pod_node_slot_.resize(pod_slot + 1, kNoSlot);
    pod_owner_slot_.resize(pod_slot + 1, kNoSlot);
    pod_owner_pos_.resize(pod_slot + 1, 0);
    pod_ready_in_.resize(pod_slot + 1);
  }
}

void ApiServer::link_pod_owner(std::uint32_t pod_slot,
                               const std::string& owner) {
  // An ownerless pod ("" is id 0) gets kNoSlot and joins no list.
  const std::uint32_t os = owner_ids_.intern(owner) - 1u;
  pod_owner_slot_[pod_slot] = os;
  if (os == kNoSlot) return;
  if (os == pods_by_owner_.size()) pods_by_owner_.emplace_back();
  std::vector<std::uint32_t>& list = pods_by_owner_[os];
  pod_owner_pos_[pod_slot] = static_cast<std::uint32_t>(list.size());
  list.push_back(pod_slot);
}

void ApiServer::unlink_pod_owner(std::uint32_t pod_slot) {
  const std::uint32_t os = pod_owner_slot_[pod_slot];
  if (os == kNoSlot) return;
  std::vector<std::uint32_t>& list = pods_by_owner_[os];
  const std::uint32_t pos = pod_owner_pos_[pod_slot];
  const std::uint32_t moved = list.back();
  list[pos] = moved;
  pod_owner_pos_[moved] = pos;
  list.pop_back();
  pod_owner_slot_[pod_slot] = kNoSlot;
}

// ---- Pods -------------------------------------------------------------

Uid ApiServer::create_pod(Pod pod) {
  pod.uid = next_uid_;
  pod.phase = PodPhase::kPending;
  const std::string name = pod.name;
  auto [stored, pslot, inserted] = pods_.insert(name, std::move(pod));
  if (!inserted) {
    throw std::invalid_argument("ApiServer: pod exists: " + name);
  }
  ++next_uid_;
  ++pods_created_total_;
  assert(pods_created_total_ - pods_finalized_total_ == pods_.size());
  ensure_pod_side(pslot);
  pod_node_slot_[pslot] = node_slot(stored->node_name);  // "": kNoSlot
  link_pod_owner(pslot, stored->owner);
  if (usage_counted(*stored)) {
    add_usage(pod_node_slot_[pslot], *stored);
  }
  // A Pending pod serves no endpoints: ready sets are untouched.
  notify_pod(EventType::kAdded, *stored, pod_node_slot_[pslot]);
  return stored->uid;
}

bool ApiServer::mutate_pod(const std::string& name,
                           std::function<void(Pod&)> mutate) {
  const std::uint32_t pslot = pods_.slot_of(name);
  if (pslot == kNoSlot) return false;
  Pod* pod = &pods_.at(pslot);
  const bool was = usage_counted(*pod);
  const std::uint32_t old_node = pod_node_slot_[pslot];
  const double old_cpu = pod->cpu_request;
  const double old_mem = pod->memory_request;
  mutate(*pod);
  // Re-resolve on (re)bind. In practice node_name only ever transitions
  // empty -> bound (the scheduler binds Pending pods once), so the common
  // mutate pays one short string compare, no hash.
  std::uint32_t new_node = old_node;
  if (pod->node_name.empty()) {
    new_node = kNoSlot;
  } else if (old_node == kNoSlot ||
             node_ids_.name(old_node + 1) != pod->node_name) {
    new_node = node_slot(pod->node_name);
  }
  pod_node_slot_[pslot] = new_node;
  const bool now = usage_counted(*pod);
  // Touch the aggregate only when the accounted quantities actually moved
  // (a bind, a failure, a request resize) — phase-only transitions like
  // Scheduled -> Running leave it bit-for-bit alone.
  if (was || now) {
    if (was != now || old_node != new_node || old_cpu != pod->cpu_request ||
        old_mem != pod->memory_request) {
      if (was) sub_usage(old_node, old_cpu, old_mem);
      if (now) add_usage(new_node, *pod);
    }
  }
  sync_ready_sets(pslot);
  notify_pod(EventType::kModified, *pod, new_node);
  return true;
}

void ApiServer::watch_pods_on_node(const std::string& node, PodWatch watch) {
  node_slots_[node_slot(node)].watches.push_back(
      SeqPodWatch{watch_seq_++, std::move(watch)});
}

void ApiServer::add_usage(std::uint32_t node_slot, const Pod& pod) {
  NodeUsage& u = node_slots_[node_slot].usage;
  u.cpu += pod.cpu_request;
  u.memory += pod.memory_request;
  ++u.pods;
  rekey_node(node_slot);
}

void ApiServer::sub_usage(std::uint32_t node_slot, double cpu, double memory) {
  if (node_slot == kNoSlot) return;
  NodeUsage& u = node_slots_[node_slot].usage;
  u.cpu -= cpu;
  u.memory -= memory;
  --u.pods;
  rekey_node(node_slot);
}

const Pod* ApiServer::get_pod(const std::string& name) const {
  return pods_.find(name);
}

std::vector<const Pod*> ApiServer::list_pods() const {
  std::vector<const Pod*> out;
  out.reserve(pods_.size());
  pods_.for_each([&](const Pod& pod) { out.push_back(&pod); });
  return out;
}

std::vector<const Pod*> ApiServer::list_pods(const Labels& selector) const {
  std::vector<const Pod*> out;
  for_each_pod(selector, [&](const Pod& pod) { out.push_back(&pod); });
  return out;
}

void ApiServer::delete_pod(const std::string& name) {
  const std::uint32_t pslot = pods_.slot_of(name);
  if (pslot == kNoSlot) return;
  Pod* pod = &pods_.at(pslot);
  if (pod->phase == PodPhase::kTerminating) return;
  const bool never_ran = pod->node_name.empty();
  const bool was = usage_counted(*pod);
  pod->phase = PodPhase::kTerminating;
  pod->ready = false;
  // A Failed pod flips back to counted here: Terminating pods hold their
  // requests until the kubelet finalizes (matching the rescan predicate,
  // which only ever excluded Failed).
  if (!was && usage_counted(*pod)) {
    add_usage(pod_node_slot_[pslot], *pod);
  }
  leave_ready_sets(pslot, name);
  notify_pod(EventType::kModified, *pod, pod_node_slot_[pslot]);
  if (never_ran) {
    // No kubelet owns it; finalize directly.
    finalize_pod_deletion(name);
  }
}

void ApiServer::finalize_pod_deletion(const std::string& name) {
  const std::uint32_t pslot = pods_.slot_of(name);
  if (pslot == kNoSlot) return;
  const std::uint32_t nslot = pod_node_slot_[pslot];
  // NamedStore recycles the slot: a freed slot must never match a node.
  pod_node_slot_[pslot] = kNoSlot;
  unlink_pod_owner(pslot);
  leave_ready_sets(pslot, name);
  std::optional<Pod> removed = pods_.take(name);
  ++pods_finalized_total_;
  assert(pods_created_total_ - pods_finalized_total_ == pods_.size());
  if (usage_counted(*removed)) {
    sub_usage(nslot, removed->cpu_request, removed->memory_request);
  }
  notify_pod(EventType::kDeleted, *removed, nslot);
}

// ---- Deployments ------------------------------------------------------

Uid ApiServer::apply_deployment(Deployment dep) {
  const std::string name = dep.name;
  Deployment* existing = deployments_.find(name);
  if (existing == nullptr) {
    dep.uid = next_uid_++;
    const auto res = deployments_.insert(name, std::move(dep));
    notify(deployment_watches_, EventType::kAdded, *res.obj);
    return res.obj->uid;
  }
  dep.uid = existing->uid;
  *existing = std::move(dep);
  notify(deployment_watches_, EventType::kModified, *existing);
  return existing->uid;
}

bool ApiServer::set_deployment_replicas(const std::string& name,
                                        int replicas) {
  Deployment* dep = deployments_.find(name);
  if (dep == nullptr) return false;
  if (dep->replicas == replicas) return true;
  dep->replicas = replicas;
  notify(deployment_watches_, EventType::kModified, *dep);
  return true;
}

const Deployment* ApiServer::get_deployment(const std::string& name) const {
  return deployments_.find(name);
}

void ApiServer::delete_deployment(const std::string& name) {
  std::optional<Deployment> removed = deployments_.take(name);
  if (!removed.has_value()) return;
  notify(deployment_watches_, EventType::kDeleted, *removed);
}

// ---- Services & endpoints ----------------------------------------------

Uid ApiServer::create_service(Service svc) {
  svc.uid = next_uid_;
  const std::string name = svc.name;
  const auto res = services_.insert(name, std::move(svc));
  if (!res.inserted) throw std::invalid_argument("ApiServer: service exists");
  ++next_uid_;
  // A fresh service starts with empty endpoints.
  Endpoints* eps = endpoints_.find(name);
  if (eps != nullptr) {
    *eps = Endpoints{name, {}};
  } else {
    endpoints_.insert(name, Endpoints{name, {}});
  }
  // Its ready set starts from one scan of the pod store (name order, so
  // already sorted); from here on pod mutations keep it current.
  if (res.slot >= ready_sets_.size()) ready_sets_.resize(res.slot + 1);
  ReadySet& rs = ready_sets_[res.slot];
  rs = ReadySet{};
  pods_.for_each_slot([&](std::uint32_t pslot, const Pod& pod) {
    if (pod.ready && pod.phase == PodPhase::kRunning &&
        selector_matches(res.obj->selector, pod.labels)) {
      rs.ready.push_back(Endpoint{pod.name, pod.host_net_id, pod.port});
      pod_ready_in_[pslot].push_back(res.slot);
    }
  });
  return res.obj->uid;
}

void ApiServer::delete_service(const std::string& name) {
  const std::uint32_t slot = services_.slot_of(name);
  if (slot != kNoSlot) {
    for (const Endpoint& ep : ready_sets_[slot].ready) {
      std::erase(pod_ready_in_[pods_.slot_of(ep.pod_name)], slot);
    }
    ready_sets_[slot] = ReadySet{};
    services_.take(name);
  }
  std::optional<Endpoints> removed = endpoints_.take(name);
  if (removed.has_value()) {
    notify(endpoints_watches_, EventType::kDeleted, *removed);
  }
}

void ApiServer::set_endpoints(Endpoints eps) {
  Endpoints* existing = endpoints_.find(eps.service_name);
  if (existing != nullptr && existing->ready == eps.ready) return;  // no change
  if (const std::uint32_t slot = services_.slot_of(eps.service_name);
      slot != kNoSlot) {
    ready_sets_[slot].dirty = true;  // the next publish must compare again
  }
  const EventType type =
      existing != nullptr ? EventType::kModified : EventType::kAdded;
  if (existing != nullptr) {
    *existing = std::move(eps);
    notify(endpoints_watches_, type, *existing);
  } else {
    const std::string name = eps.service_name;
    const auto res = endpoints_.insert(name, std::move(eps));
    notify(endpoints_watches_, type, *res.obj);
  }
}

const Endpoints* ApiServer::get_endpoints(
    const std::string& service_name) const {
  return endpoints_.find(service_name);
}

const std::vector<Endpoint>* ApiServer::ready_endpoints(
    const std::string& service_name) const {
  const std::uint32_t slot = services_.slot_of(service_name);
  return slot == kNoSlot ? nullptr : &ready_sets_[slot].ready;
}

void ApiServer::publish_ready_endpoints(const std::string& service_name) {
  const std::uint32_t slot = services_.slot_of(service_name);
  if (slot == kNoSlot) return;
  ReadySet& rs = ready_sets_[slot];
  if (!rs.dirty) return;  // unchanged since it last matched the published
  rs.dirty = false;
  // create_service made the Endpoints object; only delete_service drops it.
  Endpoints* published = endpoints_.find(service_name);
  assert(published != nullptr);
  if (published->ready == rs.ready) return;
  published->ready = rs.ready;
  notify(endpoints_watches_, EventType::kModified, *published);
}

// ---- Ready sets ----------------------------------------------------------

namespace {

/// Position of `pod` in a pod-name-sorted endpoint list.
std::vector<Endpoint>::iterator find_endpoint(std::vector<Endpoint>& list,
                                              const std::string& pod) {
  return std::lower_bound(list.begin(), list.end(), pod,
                          [](const Endpoint& ep, const std::string& name) {
                            return ep.pod_name < name;
                          });
}

}  // namespace

void ApiServer::leave_ready_sets(std::uint32_t pod_slot,
                                 const std::string& pod_name) {
  for (const std::uint32_t svc : pod_ready_in_[pod_slot]) {
    ReadySet& rs = ready_sets_[svc];
    rs.ready.erase(find_endpoint(rs.ready, pod_name));
    rs.dirty = true;
  }
  pod_ready_in_[pod_slot].clear();
}

void ApiServer::sync_ready_sets(std::uint32_t pod_slot) {
  const Pod& pod = pods_.at(pod_slot);
  std::vector<std::uint32_t>& in = pod_ready_in_[pod_slot];
  if (!pod.ready || pod.phase != PodPhase::kRunning) {
    leave_ready_sets(pod_slot, pod.name);
    return;
  }
  // A serving pod: re-match every selector, since the mutation may have
  // relabelled it, and refresh its endpoint where it stays listed.
  services_.for_each_slot([&](std::uint32_t svc, const Service& s) {
    const bool listed = std::find(in.begin(), in.end(), svc) != in.end();
    const bool matches = selector_matches(s.selector, pod.labels);
    if (!listed && !matches) return;
    ReadySet& rs = ready_sets_[svc];
    const auto it = find_endpoint(rs.ready, pod.name);
    if (!listed) {
      rs.ready.insert(it, Endpoint{pod.name, pod.host_net_id, pod.port});
      in.push_back(svc);
    } else if (!matches) {
      rs.ready.erase(it);
      std::erase(in, svc);
    } else if (it->net_id != pod.host_net_id || it->port != pod.port) {
      it->net_id = pod.host_net_id;
      it->port = pod.port;
    } else {
      return;
    }
    rs.dirty = true;
  });
}

// ---- Watch delivery ----------------------------------------------------

// Each notification copies the object once into a single scheduled event
// that fans out to every watcher registered at notification time, in
// registration order. Watchers registered after the notification (but
// before delivery) do not see the event — the same contract the former
// one-event-per-watcher scheme had, at 1/N the events and allocations.

void ApiServer::notify_pod(EventType type, const Pod& pod,
                           std::uint32_t node_slot) {
  // Route to the global watchers plus (for bound pods) the one node shard
  // the pod lives on. Unbound pods (node_slot == kNoSlot) only concern
  // global watchers. The slot arrives from the pod side arrays — no name
  // hash on this per-event path.
  std::size_t n_node = 0;
  if (node_slot != kNoSlot) n_node = node_slots_[node_slot].watches.size();
  const std::size_t n_global = pod_watches_.size();
  if (n_global + n_node == 0) return;
  ++watch_batches_scheduled_;
  sim_.call_in(kApiLatency, [this, type, pod, n_global, node_slot, n_node] {
    ++watch_batches_delivered_;
    deliver_pod_event(type, pod, n_global, node_slot, n_node);
  });
}

void ApiServer::deliver_pod_event(EventType type, const Pod& pod,
                                  std::size_t n_global,
                                  std::uint32_t node_slot,
                                  std::size_t n_node) {
  // Counts were snapped at schedule time: watchers registered after the
  // notification do not see the event (the same contract the flat list
  // had). The merge fires the global list and the node shard in exactly
  // the order a single flat list would have fired them; it never reads
  // an empty side, so an unbound pod needs no shard.
  const std::deque<SeqPodWatch>* shard =
      n_node == 0 ? nullptr : &node_slots_[node_slot].watches;
  std::size_t gi = 0;
  std::size_t ni = 0;
  while (gi < n_global || ni < n_node) {
    const bool global_next =
        ni >= n_node ||
        (gi < n_global && pod_watches_[gi].seq < (*shard)[ni].seq);
    if (global_next) {
      pod_watches_[gi++].fn(type, pod);
    } else {
      (*shard)[ni++].fn(type, pod);
    }
  }
}

}  // namespace sf::k8s
