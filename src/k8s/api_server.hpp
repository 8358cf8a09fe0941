#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "k8s/named_store.hpp"
#include "k8s/objects.hpp"
#include "sim/interner.hpp"
#include "sim/simulation.hpp"

namespace sf::k8s {

/// Watch event kinds, mirroring the Kubernetes watch protocol.
enum class EventType { kAdded, kModified, kDeleted };

/// The cluster's source of truth: typed object stores plus asynchronous
/// watch streams. Every watch notification is delivered after the
/// configured API latency, which is what strings control-plane actions
/// (schedule → kubelet → endpoints) into a realistic cold-start path.
///
/// Hot-path shape: objects live in dense slot stores (NamedStore), readers
/// visit them in place (for_each_* / list_* return pointers, never copies),
/// and each object event schedules ONE engine event that delivers the
/// snapshot to all watchers registered at notification time, in
/// registration order — instead of one event + one heap-allocated closure
/// + one object copy per watcher.
///
/// Node-indexed state lives in a dense node-slot space: each node name
/// (registered or merely referenced by a watch/bind) is interned once
/// (sim::Interner, slot = id - 1) and its slot holds its lease, usage
/// aggregate and node-scoped watch shard. Each pod's node slot sits in a
/// side array indexed by pod slot, so the per-event path never hashes a
/// node name, and the pods on a node are the pod slots whose entry names
/// it. Registered node slots are also kept in name order, so a full node
/// scan (the lifecycle sweep's) reads every node by slot in the order a
/// name-keyed map would iterate.
///
/// Beside the usage aggregates sits the placement index the scheduler
/// walks: for each allocatable-CPU class, the ready registered nodes in
/// (used CPU, name) order, names compared through the node interner. Each
/// usage change, Ready flip and (re-)registration moves one entry, so the
/// index always matches a rescan of the nodes (see cpu_classes).
///
/// Each Service also has a live ready set — the endpoints a full rebuild
/// from the pod store would list — maintained beside the usage aggregates
/// with every pod and service mutation, so publishing a service's
/// Endpoints costs O(changed), not a selector match over every pod.
class ApiServer {
 public:
  /// Sentinel for "no slot" in the node-slot / pod-slot spaces (same value
  /// as NamedStore::kNoSlot).
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  explicit ApiServer(sim::Simulation& sim) : sim_(sim) {}

  ApiServer(const ApiServer&) = delete;
  ApiServer& operator=(const ApiServer&) = delete;

  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] static constexpr double api_latency() { return kApiLatency; }

  // ---- Nodes ----------------------------------------------------------

  using NodeWatch = std::function<void(EventType, const NodeObject&)>;

  /// Per-node resource bookkeeping, maintained synchronously with every
  /// pod store mutation (created/bound/failed/finalized): the sum of
  /// cpu/memory requests of non-Failed pods bound to the node — the same
  /// aggregate a full pod-store rescan would produce, kept O(changed).
  struct NodeUsage {
    double cpu = 0;
    double memory = 0;
    std::uint32_t pods = 0;
  };

  /// Registers (or re-registers) a node; re-registration replaces the
  /// object and keeps the node's slot and name-order position.
  void register_node(NodeObject node);

  /// One placement-index entry: a node slot keyed by its current
  /// NodeUsage::cpu.
  struct PlacedNode {
    double cpu = 0;
    std::uint32_t slot = 0;
  };
  /// Compares a PlacedNode's used CPU alone, so a lookup can land on the
  /// first entry past every node with that usage (see PlacementOrder).
  struct UsedCpu {
    double cpu = 0;
  };
  /// (used CPU, node name) order; equal usage sorts by name.
  struct PlacementOrder {
    using is_transparent = void;
    const sim::Interner* ids = nullptr;
    bool operator()(const PlacedNode& a, const PlacedNode& b) const {
      if (a.cpu != b.cpu) return a.cpu < b.cpu;
      return ids->name(a.slot + 1) < ids->name(b.slot + 1);
    }
    bool operator()(const PlacedNode& a, UsedCpu b) const {
      return a.cpu < b.cpu;
    }
    bool operator()(UsedCpu a, const PlacedNode& b) const {
      return a.cpu < b.cpu;
    }
  };
  using PlacementSet = std::set<PlacedNode, PlacementOrder>;
  /// The ready registered nodes whose allocatable CPU is `allocatable_cpu`.
  struct CpuClass {
    double allocatable_cpu = 0;
    PlacementSet nodes;
  };

  /// The placement index, one class per allocatable-CPU value in the order
  /// the values first appear on a Ready node (classes are never dropped,
  /// so a class may be empty). A node is in it exactly while it is registered and Ready,
  /// under its allocatable CPU, keyed by its usage aggregate's cpu.
  [[nodiscard]] const std::deque<CpuClass>& cpu_classes() const {
    return cpu_classes_;
  }

  /// A registered node's object and usage aggregate by slot (slots from
  /// cpu_classes or for_each_node).
  [[nodiscard]] const NodeObject& node_at(std::uint32_t slot) const {
    return *node_slots_[slot].obj;
  }
  [[nodiscard]] const NodeUsage& usage_at(std::uint32_t slot) const {
    return node_slots_[slot].usage;
  }

  /// Visits every registered node in ascending name order — the order the
  /// former name-keyed node map iterated — as fn(slot, node, usage), read
  /// in place by slot: no name hashing, no map walk. The callback must not
  /// register nodes.
  template <typename F>
  void for_each_node(F&& fn) const {
    for (const std::uint32_t slot : node_order_) {
      const NodeSlot& ns = node_slots_[slot];
      fn(slot, *ns.obj, ns.usage);
    }
  }

  /// Flips a node's Ready condition and notifies node watchers
  /// (kModified). Returns false when the node is unknown or unchanged.
  bool set_node_ready(const std::string& name, bool ready);

  /// Kubelet heartbeat: refreshes the node's lease timestamp.
  void renew_node_lease(const std::string& name);

  /// Slot-addressed heartbeat (heartbeat-wheel hot path): no name hash.
  /// No-op for slots that never registered as nodes, mirroring the
  /// name-keyed overload. Touches only the dense lease/flag side arrays —
  /// never the fat NodeSlot record — so a 10k-node wheel tick stays
  /// cache-resident (9 bytes per node, not several scattered lines).
  void renew_node_lease_slot(std::uint32_t slot) {
    if ((node_flags_[slot] & kNodeRegistered) != 0) {
      node_lease_[slot] = sim_.now();
    }
  }

  /// Sim time of the node's last heartbeat (registration time when the
  /// kubelet never heartbeated); -1 for unknown nodes.
  [[nodiscard]] double node_lease(const std::string& name) const;

  /// Dense slot for a node name, created on first reference (a name may be
  /// watched or bound before — or without ever — registering as a node).
  /// Node names are never empty: "" has no slot (kNoSlot).
  [[nodiscard]] std::uint32_t node_slot(const std::string& name);
  /// Slot lookup without creation; kNoSlot when the name was never seen.
  [[nodiscard]] std::uint32_t find_node_slot(const std::string& name) const;

  /// One pass over the registered nodes in name order, reading the dense
  /// lease and flag arrays: appends each ready node whose lease has
  /// expired (`now - lease > duration`) to `expired`, and each not-ready
  /// node whose lease is fresh (`now - lease <= duration`) to `recovered`.
  /// Both lists come out in name order. Changes nothing; returns the
  /// number of nodes examined.
  std::size_t collect_lease_transitions(
      double now, double duration, std::vector<std::string>& expired,
      std::vector<std::string>& recovered) const;

  void watch_nodes(NodeWatch watch) {
    node_watches_.push_back(std::move(watch));
  }

  // ---- Pods -----------------------------------------------------------

  using PodWatch = std::function<void(EventType, const Pod&)>;

  /// Creates a pod (phase Pending). Returns its uid. Throws when a pod of
  /// the same name exists.
  Uid create_pod(Pod pod);

  /// Applies `mutate` to the stored pod and notifies watchers (Modified).
  /// Returns false when no such pod exists.
  bool mutate_pod(const std::string& name, std::function<void(Pod&)> mutate);

  [[nodiscard]] const Pod* get_pod(const std::string& name) const;

  /// Visits every pod in name order without copying. The callback must not
  /// create or delete pods; collect names first for that.
  template <typename F>
  void for_each_pod(F&& fn) const {
    pods_.for_each(std::forward<F>(fn));
  }

  /// Visits pods matching `selector` in name order.
  template <typename F>
  void for_each_pod(const Labels& selector, F&& fn) const {
    pods_.for_each([&](const Pod& pod) {
      if (selector_matches(selector, pod.labels)) fn(pod);
    });
  }

  /// Visits only the pods bound to `node`: one pass over the pod→node side
  /// array, comparing slots, with no name hash or object read for the
  /// other pods. Visitation order is pod-slot order, which depends on slot
  /// reuse; callers sort what they collect when order is observable. The
  /// callback must not create or delete pods.
  template <typename F>
  void for_each_pod_on_node(const std::string& node, F&& fn) const {
    const std::uint32_t ns = find_node_slot(node);
    if (ns == kNoSlot) return;
    for (std::uint32_t pslot = 0; pslot < pod_node_slot_.size(); ++pslot) {
      if (pod_node_slot_[pslot] == ns) fn(pods_.at(pslot));
    }
  }

  /// Visits only the pods whose `owner` field matches — the deployment
  /// controller's working set, via the per-owner posting list: O(owned),
  /// not O(all pods). Visitation order is deterministic but unspecified
  /// (create/finalize history). Same mutation contract as
  /// for_each_pod_on_node.
  template <typename F>
  void for_each_pod_owned_by(const std::string& owner, F&& fn) const {
    const std::uint32_t os = owner_ids_.lookup(owner) - 1u;
    if (os == kNoSlot) return;
    for (const std::uint32_t pslot : pods_by_owner_[os]) {
      fn(pods_.at(pslot));
    }
  }

  /// Pointer views for callers that need a materialized list (tests,
  /// diagnostics). Pointers stay valid until the pod is deleted.
  [[nodiscard]] std::vector<const Pod*> list_pods() const;
  [[nodiscard]] std::vector<const Pod*> list_pods(const Labels& selector) const;

  /// Marks the pod Terminating and notifies watchers; the owning kubelet
  /// (or, for never-scheduled pods, the API server itself) finalizes.
  void delete_pod(const std::string& name);

  /// Removes the object entirely (kubelet confirmation). Watchers see
  /// Deleted.
  void finalize_pod_deletion(const std::string& name);

  void watch_pods(PodWatch watch) {
    pod_watches_.push_back(SeqPodWatch{watch_seq_++, std::move(watch)});
  }

  /// Node-scoped pod watch (kubelet shape): the watcher only cares about
  /// pods bound to `node`, so delivery routes each pod event to the one
  /// matching node shard instead of fanning it out to all kubelets —
  /// per-event watch cost is O(global watchers + this node's watchers),
  /// not O(nodes). Relative delivery order with global watchers follows
  /// registration order, exactly as if the watcher filtered by itself.
  void watch_pods_on_node(const std::string& node, PodWatch watch);

  // ---- Deployments ----------------------------------------------------

  using DeploymentWatch = std::function<void(EventType, const Deployment&)>;

  /// Creates or updates (by name). Returns the uid.
  Uid apply_deployment(Deployment dep);
  bool set_deployment_replicas(const std::string& name, int replicas);
  [[nodiscard]] const Deployment* get_deployment(
      const std::string& name) const;
  void delete_deployment(const std::string& name);
  void watch_deployments(DeploymentWatch watch) {
    deployment_watches_.push_back(std::move(watch));
  }

  // ---- Services & endpoints -------------------------------------------

  using EndpointsWatch = std::function<void(EventType, const Endpoints&)>;

  Uid create_service(Service svc);
  /// Removes a service and its endpoints object (no-op when absent).
  void delete_service(const std::string& name);

  /// Visits every service in name order without copying.
  template <typename F>
  void for_each_service(F&& fn) const {
    services_.for_each(std::forward<F>(fn));
  }

  void set_endpoints(Endpoints eps);
  [[nodiscard]] const Endpoints* get_endpoints(
      const std::string& service_name) const;

  /// The live ready set of a service: the Endpoint of every ready, Running
  /// pod its selector matches, in pod-name order. It is kept in step with
  /// every pod mutation, so it always equals a rebuild from the current
  /// pod store; the published Endpoints lag it until the next
  /// publish_ready_endpoints. nullptr for unknown services.
  [[nodiscard]] const std::vector<Endpoint>* ready_endpoints(
      const std::string& service_name) const;

  /// Publishes the service's ready set as its Endpoints when the two
  /// differ, notifying endpoints watchers exactly as set_endpoints would.
  /// O(1) when the set has not moved since the last publish. No-op for
  /// unknown services.
  void publish_ready_endpoints(const std::string& service_name);
  void watch_endpoints(EndpointsWatch watch) {
    endpoints_watches_.push_back(std::move(watch));
  }

  // ---- Watch-delivery accounting (sf::check) --------------------------
  //
  // Each object event schedules exactly ONE batched delivery; the batch
  // increments the delivered counter exactly once when it runs. Invariant:
  // delivered ≤ scheduled always, == once the queue has drained — a batch
  // firing twice (or never) shows up as counter drift.

  [[nodiscard]] std::uint64_t watch_batches_scheduled() const {
    return watch_batches_scheduled_;
  }
  [[nodiscard]] std::uint64_t watch_batches_delivered() const {
    return watch_batches_delivered_;
  }

 private:
  /// A pod watcher plus its registration sequence number. Global and
  /// node-scoped watchers draw from one sequence so a merged delivery
  /// reproduces plain registration order.
  struct SeqPodWatch {
    std::uint64_t seq = 0;
    PodWatch fn;
  };

  /// Everything node-indexed, one dense slot per node name ever seen.
  /// Slots are never recycled (node cardinality is bounded by topology),
  /// so a slot held by the heartbeat wheel, a watch shard, or a pod side
  /// array stays valid for the run. Lives in a deque: a watcher
  /// registering a new node shard mid-delivery must not move the shard
  /// currently being iterated. The name is node_ids_.name(slot + 1).
  struct NodeSlot {
    std::optional<NodeObject> obj;  ///< empty until registered
    NodeUsage usage;
    std::deque<SeqPodWatch> watches;   ///< node-scoped pod watch shard
    /// Placement-index position: the class and the entry, while the node
    /// is registered and Ready; kNoSlot otherwise.
    std::uint32_t cpu_class = kNoSlot;
    PlacementSet::iterator placed;
  };

  /// node_flags_ bits, kept in lockstep with NodeSlot::obj / obj->ready so
  /// the heartbeat and sweep paths never chase the NodeSlot or NodeObject
  /// records.
  static constexpr std::uint8_t kNodeRegistered = 1;
  static constexpr std::uint8_t kNodeReady = 2;

  /// Schedules one batched delivery of `obj` to the watchers registered
  /// now (deployment, endpoints and node watches).
  template <typename T>
  void notify(
      const std::deque<std::function<void(EventType, const T&)>>& watches,
      EventType type, const T& obj);
  void notify_pod(EventType type, const Pod& pod, std::uint32_t node_slot);
  void deliver_pod_event(EventType type, const Pod& pod, std::size_t n_global,
                         std::uint32_t node_slot, std::size_t n_node);

  /// Does this pod count toward its node's usage aggregate? (The same
  /// predicate the scheduler's old full rescans applied.)
  [[nodiscard]] static bool usage_counted(const Pod& pod) {
    return !pod.node_name.empty() && pod.phase != PodPhase::kFailed;
  }
  void add_usage(std::uint32_t node_slot, const Pod& pod);
  void sub_usage(std::uint32_t node_slot, double cpu, double memory);

  /// Placement-index upkeep: index_node files a registered node under its
  /// class when it is Ready; unindex_node takes it out if it is in;
  /// rekey_node moves its entry to its current usage cpu.
  void index_node(std::uint32_t slot);
  void unindex_node(std::uint32_t slot);
  void rekey_node(std::uint32_t slot);

  /// A service's live ready set, indexed by service slot (see
  /// ready_endpoints). `dirty` is set by every change to the set or to
  /// the published Endpoints, and cleared by a publish.
  struct ReadySet {
    std::vector<Endpoint> ready;  ///< sorted by pod_name
    bool dirty = true;
  };

  /// Re-derives a pod's ready-set memberships after a mutation. O(1) for
  /// pods that neither serve nor served; otherwise one selector match per
  /// service plus an O(log n) find per set it is in.
  void sync_ready_sets(std::uint32_t pod_slot);
  /// Removes the pod from every ready set that lists it.
  void leave_ready_sets(std::uint32_t pod_slot, const std::string& pod_name);

  /// Pod-slot side arrays + owner posting-list maintenance (swap-remove
  /// with position back-pointers; order is irrelevant — see
  /// for_each_pod_owned_by).
  void ensure_pod_side(std::uint32_t pod_slot);
  void link_pod_owner(std::uint32_t pod_slot, const std::string& owner);
  void unlink_pod_owner(std::uint32_t pod_slot);

  /// Watch-notification latency, in seconds.
  static constexpr double kApiLatency = 0.005;

  sim::Simulation& sim_;
  Uid next_uid_ = 1;
  /// Lifetime counters: every pod ever stored / ever finalized. Invariant
  /// (asserted in debug builds): created − finalized == pods_.size().
  std::uint64_t pods_created_total_ = 0;
  std::uint64_t pods_finalized_total_ = 0;
  std::uint64_t watch_batches_scheduled_ = 0;
  std::uint64_t watch_batches_delivered_ = 0;

  NamedStore<Pod> pods_;
  NamedStore<Deployment> deployments_;
  NamedStore<Service> services_;
  NamedStore<Endpoints> endpoints_;

  // Deques: a watcher's callback may register further watchers while a
  // batched delivery is iterating; deque growth never moves the element
  // (the std::function) currently executing, where vector reallocation
  // would destroy it mid-call.
  std::deque<SeqPodWatch> pod_watches_;
  std::deque<DeploymentWatch> deployment_watches_;
  std::deque<EndpointsWatch> endpoints_watches_;
  std::deque<NodeWatch> node_watches_;

  // Node-slot space: node slot = node_ids_ id - 1, so the "" id 0 and an
  // unknown name's lookup both map to kNoSlot. NodeSlot structs live in
  // the deque at their slot index (stable addresses, see NodeSlot).
  std::uint64_t watch_seq_ = 0;
  sim::Interner node_ids_;
  std::deque<NodeSlot> node_slots_;
  /// Slots of registered nodes, sorted by name (see for_each_node).
  std::vector<std::uint32_t> node_order_;
  /// The placement index (see cpu_classes). A deque, so a new class never
  /// moves the sets that NodeSlot::placed points into.
  std::deque<CpuClass> cpu_classes_;

  // Heartbeat and sweep side arrays, indexed by node slot (see
  // renew_node_lease_slot): last lease stamp and registered/ready flags.
  std::vector<double> node_lease_;
  std::vector<std::uint8_t> node_flags_;

  // Owner-slot space for the per-deployment pod index, keyed the same way
  // (owner slot = owner_ids_ id - 1). Owner slots are never recycled: a
  // deployment's NamedStore slot can be reused while orphaned pods still
  // carry the old owner name.
  sim::Interner owner_ids_;
  std::vector<std::vector<std::uint32_t>> pods_by_owner_;

  // Pod side arrays indexed by pod slot: the bound node's slot (kNoSlot
  // while unbound and once the slot is freed), and the owner slot plus
  // this pod's position in that owner's posting list — so per-event paths
  // never hash a node or owner name.
  std::vector<std::uint32_t> pod_node_slot_;
  std::vector<std::uint32_t> pod_owner_slot_;
  std::vector<std::uint32_t> pod_owner_pos_;

  // Ready sets by service slot, and by pod slot the service slots whose
  // ready set lists the pod (reset when a service slot is freed).
  std::vector<ReadySet> ready_sets_;
  std::vector<std::vector<std::uint32_t>> pod_ready_in_;
};

}  // namespace sf::k8s
