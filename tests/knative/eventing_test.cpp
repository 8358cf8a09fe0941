#include "knative/eventing.hpp"

#include <gtest/gtest.h>

#include "container/image.hpp"
#include "sim/simulation.hpp"

namespace sf::knative {
namespace {

class EventingTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cl = cluster::make_paper_testbed(sim);
  container::Registry hub{cl->node(0)};
  k8s::KubeCluster kube{*cl, hub, {&cl->node(1), &cl->node(2), &cl->node(3)}};
  KnativeServing serving{kube, cl->node(0)};
  Broker broker{serving, cl->node(0)};
  std::vector<std::string> received;  // "<service>:<type>:<job ext>"

  void SetUp() override { hub.push(container::make_task_image("matmul")); }

  void deploy_subscriber(const std::string& name) {
    KnServiceSpec spec;
    spec.name = name;
    spec.container.name = name;
    spec.container.image = "matmul:latest";
    spec.container.cpu_limit = 1.0;
    spec.handler = [this, name](const net::HttpRequest& req,
                                FunctionContext& ctx,
                                net::Responder respond) {
      const CloudEvent& event = event_from_request(req);
      auto job = event.extensions.find("job");
      received.push_back(name + ":" + event.type + ":" +
                         (job == event.extensions.end() ? "" : job->second));
      ctx.exec(0.01, [respond = std::move(respond)](bool ok) mutable {
        net::HttpResponse resp;
        resp.status = ok ? 200 : 500;
        respond(std::move(resp));
      });
    };
    spec.annotations.min_scale = 1;
    serving.create_service(std::move(spec));
  }

  bool publish_and_wait(CloudEvent event) {
    bool delivered = false;
    bool done = false;
    broker.publish(cl->node(1).net_id(), std::move(event),
                   [&](bool ok) {
                     delivered = ok;
                     done = true;
                   });
    while (!done && sim.has_pending_events()) sim.step();
    return delivered;
  }

  static CloudEvent task_done(const std::string& job) {
    CloudEvent event;
    event.type = "task.done";
    event.source = "test";
    event.extensions["job"] = job;
    event.data_bytes = 100;
    return event;
  }
};

TEST_F(EventingTest, DeliversToMatchingTrigger) {
  deploy_subscriber("listener");
  sim.run_until(30.0);
  broker.add_trigger("t1", "task.done", "listener");
  EXPECT_TRUE(publish_and_wait(task_done("j0")));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], "listener:task.done:j0");
  EXPECT_EQ(broker.events_received(), 1u);
  EXPECT_EQ(broker.deliveries(), 1u);
}

TEST_F(EventingTest, TypeFilterExcludesOtherEvents) {
  deploy_subscriber("listener");
  sim.run_until(30.0);
  broker.add_trigger("t1", "task.done", "listener");
  CloudEvent other;
  other.type = "workflow.started";
  EXPECT_TRUE(publish_and_wait(std::move(other)));  // nothing matches: ok
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(broker.deliveries(), 0u);
}

TEST_F(EventingTest, EmptyTypeMatchesEverything) {
  deploy_subscriber("listener");
  sim.run_until(30.0);
  broker.add_trigger("all", "", "listener");
  publish_and_wait(task_done("a"));
  CloudEvent other;
  other.type = "anything.else";
  publish_and_wait(std::move(other));
  EXPECT_EQ(received.size(), 2u);
}

TEST_F(EventingTest, ExtensionFilterNarrowsDelivery) {
  deploy_subscriber("listener");
  sim.run_until(30.0);
  broker.add_trigger("only-j1", "task.done", "listener", {{"job", "j1"}});
  publish_and_wait(task_done("j0"));
  publish_and_wait(task_done("j1"));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], "listener:task.done:j1");
}

TEST_F(EventingTest, FanoutToMultipleTriggers) {
  deploy_subscriber("a");
  deploy_subscriber("b");
  sim.run_until(30.0);
  broker.add_trigger("ta", "task.done", "a");
  broker.add_trigger("tb", "task.done", "b");
  EXPECT_TRUE(publish_and_wait(task_done("j")));
  EXPECT_EQ(received.size(), 2u);
  EXPECT_EQ(broker.deliveries(), 2u);
}

TEST_F(EventingTest, UnknownSubscriberGoesToDeadLetters) {
  broker.add_trigger("broken", "task.done", "no-such-service");
  EXPECT_FALSE(publish_and_wait(task_done("j")));
  EXPECT_EQ(broker.failed_deliveries(), 1u);
  ASSERT_EQ(broker.dead_letters().size(), 1u);
  EXPECT_EQ(broker.dead_letters().front().extensions.at("job"), "j");
}

TEST_F(EventingTest, EachExhaustedDeliveryDeadLettersExactlyOnce) {
  broker.add_trigger("broken", "task.done", "no-such-service");
  EXPECT_FALSE(publish_and_wait(task_done("a")));
  EXPECT_FALSE(publish_and_wait(task_done("b")));
  EXPECT_FALSE(publish_and_wait(task_done("c")));
  // One failed delivery and one dead letter per event — retries within a
  // delivery must not multiply either count.
  EXPECT_EQ(broker.failed_deliveries(), 3u);
  ASSERT_EQ(broker.dead_letters().size(), 3u);
  EXPECT_EQ(broker.dead_letters()[0].extensions.at("job"), "a");
  EXPECT_EQ(broker.dead_letters()[2].extensions.at("job"), "c");
  EXPECT_EQ(broker.deliveries(), 0u);
}

TEST_F(EventingTest, DeadLetterLegDoesNotBlockHealthySubscribers) {
  deploy_subscriber("listener");
  sim.run_until(30.0);
  broker.add_trigger("ok", "task.done", "listener");
  broker.add_trigger("broken", "task.done", "no-such-service");
  publish_and_wait(task_done("j"));
  EXPECT_EQ(received.size(), 1u);
  EXPECT_EQ(broker.deliveries(), 1u);
  EXPECT_EQ(broker.failed_deliveries(), 1u);
  EXPECT_EQ(broker.dead_letters().size(), 1u);
}

TEST_F(EventingTest, DeliveryRetriesThroughColdStart) {
  // Subscriber scaled to zero: the first delivery attempt rides the
  // activator (not an error), so delivery succeeds including cold start.
  KnServiceSpec spec;
  spec.name = "coldsub";
  spec.container.name = "coldsub";
  spec.container.image = "matmul:latest";
  spec.container.cpu_limit = 1.0;
  spec.container.boot_s = 0.5;
  spec.handler = [this](const net::HttpRequest& req, FunctionContext& ctx,
                        net::Responder respond) {
    received.push_back("coldsub:" + event_from_request(req).type + ":");
    ctx.exec(0.01, [respond = std::move(respond)](bool) mutable {
      respond({});
    });
  };
  spec.annotations.initial_scale = 0;
  serving.create_service(std::move(spec));
  sim.run_until(1.0);
  broker.add_trigger("t", "task.done", "coldsub");
  EXPECT_TRUE(publish_and_wait(task_done("j")));
  EXPECT_EQ(received.size(), 1u);
}

TEST_F(EventingTest, RemoveTriggerStopsDelivery) {
  deploy_subscriber("listener");
  sim.run_until(30.0);
  broker.add_trigger("t1", "task.done", "listener");
  EXPECT_TRUE(broker.remove_trigger("t1"));
  EXPECT_FALSE(broker.remove_trigger("t1"));
  publish_and_wait(task_done("j"));
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(broker.trigger_count(), 0u);
}

}  // namespace
}  // namespace sf::knative
