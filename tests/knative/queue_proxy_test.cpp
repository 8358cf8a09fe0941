#include "knative/queue_proxy.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace sf::knative {
namespace {

/// QueueProxy in isolation: a handler that responds after a simulated
/// delay stands in for the user container.
class QueueProxyTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  net::FlowNetwork net{sim};
  net::HttpFabric http{sim, net};
  net::NodeId client = net.add_node(1e9, 0.0001);
  net::NodeId pod_node = net.add_node(1e9, 0.0001);

  FunctionContext context() {
    FunctionContext ctx;
    ctx.sim = &sim;
    ctx.node = pod_node;
    ctx.pod_name = "pod-0";
    ctx.exec = [this](double work, std::function<void(bool)> done) {
      sim.call_in(work, [done = std::move(done)] { done(true); });
    };
    return ctx;
  }

  static FunctionHandler delay_handler() {
    return [](const net::HttpRequest& req, FunctionContext& ctx,
              net::Responder respond) {
      const double work = std::any_cast<double>(req.body);
      ctx.exec(work, [respond = std::move(respond)](bool ok) mutable {
        net::HttpResponse resp;
        resp.status = ok ? 200 : 500;
        respond(std::move(resp));
      });
    };
  }

  void send(double work, std::function<void(net::HttpResponse)> cb) {
    net::HttpRequest req;
    req.body = work;
    http.request(client, pod_node, 10001, std::move(req), std::move(cb));
  }
};

TEST_F(QueueProxyTest, ServesSingleRequest) {
  QueueProxy qp(sim, http, context(), delay_handler(), 1);
  qp.install(10001);
  bool ok = false;
  send(0.5, [&](net::HttpResponse resp) { ok = resp.ok(); });
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(qp.served(), 1u);
  EXPECT_EQ(qp.executing(), 0);
}

TEST_F(QueueProxyTest, ConcurrencyLimitQueuesExcess) {
  QueueProxy qp(sim, http, context(), delay_handler(), 2);
  qp.install(10001);
  std::vector<double> done;
  for (int i = 0; i < 4; ++i) {
    send(1.0, [&](net::HttpResponse) { done.push_back(sim.now()); });
  }
  sim.run_until(0.5);
  EXPECT_EQ(qp.executing(), 2);
  EXPECT_EQ(qp.queued(), 2u);
  EXPECT_DOUBLE_EQ(qp.concurrency(), 4.0);
  sim.run();
  ASSERT_EQ(done.size(), 4u);
  // Two waves: ~1 s and ~2 s.
  EXPECT_NEAR(done[1], 1.0, 0.01);
  EXPECT_NEAR(done[3], 2.0, 0.01);
}

TEST_F(QueueProxyTest, UnlimitedConcurrencyNeverQueues) {
  QueueProxy qp(sim, http, context(), delay_handler(), 0);
  qp.install(10001);
  for (int i = 0; i < 8; ++i) {
    send(1.0, [](net::HttpResponse) {});
  }
  sim.run_until(0.5);
  EXPECT_EQ(qp.executing(), 8);
  EXPECT_EQ(qp.queued(), 0u);
  sim.run();
  EXPECT_EQ(qp.served(), 8u);
}

TEST_F(QueueProxyTest, DrainFinishesInFlightThenSignals) {
  QueueProxy qp(sim, http, context(), delay_handler(), 1);
  qp.install(10001);
  int completed = 0;
  send(1.0, [&](net::HttpResponse resp) { completed += resp.ok(); });
  send(1.0, [&](net::HttpResponse resp) { completed += resp.ok(); });
  double drained_at = -1;
  sim.call_in(0.5, [&] {
    qp.drain([&] { drained_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(completed, 2);          // queued request still served
  EXPECT_NEAR(drained_at, 2.0, 0.01);  // after both finish
  EXPECT_TRUE(qp.draining());
}

TEST_F(QueueProxyTest, DrainWithNoWorkSignalsImmediately) {
  QueueProxy qp(sim, http, context(), delay_handler(), 1);
  qp.install(10001);
  double drained_at = -1;
  qp.drain([&] { drained_at = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(drained_at, 0.0);
}

TEST_F(QueueProxyTest, RequestsDuringDrainAreRejected) {
  QueueProxy qp(sim, http, context(), delay_handler(), 1);
  qp.install(10001);
  qp.drain([] {});
  int status = 0;
  send(0.1, [&](net::HttpResponse resp) { status = resp.status; });
  sim.run();
  // Listener closed → connection refused at the fabric level.
  EXPECT_EQ(status, net::kStatusConnectionRefused);
}

TEST_F(QueueProxyTest, DestructorUnbindsListener) {
  {
    QueueProxy qp(sim, http, context(), delay_handler(), 1);
    qp.install(10001);
    EXPECT_TRUE(http.is_listening(pod_node, 10001));
  }
  EXPECT_FALSE(http.is_listening(pod_node, 10001));
}

TEST_F(QueueProxyTest, FailedExecPropagates500) {
  FunctionContext ctx = context();
  ctx.exec = [this](double, std::function<void(bool)> done) {
    sim.call_in(0.1, [done = std::move(done)] { done(false); });
  };
  QueueProxy qp(sim, http, std::move(ctx), delay_handler(), 1);
  qp.install(10001);
  int status = 0;
  send(0.1, [&](net::HttpResponse resp) { status = resp.status; });
  sim.run();
  EXPECT_EQ(status, 500);
  EXPECT_EQ(qp.served(), 1u);  // still counted as handled
}

/// Status and x-sf-reason of one answered request, with its answer time.
struct Answer {
  int status = 0;
  std::string reason;
  double at = -1;
  int calls = 0;
};

std::function<void(net::HttpResponse)> record_into(sim::Simulation& sim,
                                                   Answer& answer) {
  return [&sim, &answer](net::HttpResponse resp) {
    answer.status = resp.status;
    auto it = resp.headers.find(net::kReasonHeader);
    answer.reason = it == resp.headers.end() ? "" : it->second;
    answer.at = sim.now();
    ++answer.calls;
  };
}

TEST_F(QueueProxyTest, QueuedRequestPastItsDeadlineIsAnswered504) {
  // One container, 1.5 s deadline. `first` runs 0-1 s and completes;
  // `second` then runs from 1 s and is still executing when the deadline
  // of `queued` (accepted at 0.2 s) fires, so `queued` expires in the
  // queue without reaching the container.
  QueueProxy qp(sim, http, context(), delay_handler(), 1,
                /*request_timeout_s=*/1.5);
  qp.install(10001);
  Answer first, second, queued;
  send(1.0, record_into(sim, first));
  sim.call_in(0.1, [&] { send(1.0, record_into(sim, second)); });
  sim.call_in(0.2, [&] { send(0.1, record_into(sim, queued)); });
  sim.run_until(0.5);
  EXPECT_EQ(qp.executing(), 1);
  EXPECT_EQ(qp.queued(), 2u);
  sim.run_until(1.75);
  EXPECT_EQ(first.status, 200);
  EXPECT_NEAR(first.at, 1.0, 0.01);
  EXPECT_EQ(queued.status, net::kStatusGatewayTimeout);
  EXPECT_EQ(queued.reason, "timeout");
  EXPECT_NEAR(queued.at, 1.7, 0.01);
  EXPECT_EQ(qp.queued(), 0u);     // dropped from the queue at its deadline
  EXPECT_EQ(qp.executing(), 1);   // `second` still holds the container
  EXPECT_DOUBLE_EQ(qp.concurrency(), 1.0);
  EXPECT_EQ(qp.peak_queued(), 2u);
  sim.run();
  EXPECT_EQ(first.calls, 1);
  EXPECT_EQ(second.calls, 1);
  EXPECT_EQ(queued.calls, 1);
  EXPECT_EQ(qp.timeouts(), 2u);  // `queued` and the executing `second`
  EXPECT_EQ(qp.served(), 2u);    // the queued request never ran
  EXPECT_EQ(qp.executing(), 0);
}

TEST_F(QueueProxyTest, ExecutingRequestPastItsDeadlineIsAnsweredAtOnce) {
  // `slow` outlives its 1.5 s deadline: it is answered 504 at 1.5 s, its
  // handler's 200 at 2 s is dropped, and only then does the container
  // free up for `next`, which was queued at 1 s.
  QueueProxy qp(sim, http, context(), delay_handler(), 1,
                /*request_timeout_s=*/1.5);
  qp.install(10001);
  Answer slow, next;
  send(2.0, record_into(sim, slow));
  sim.call_in(1.0, [&] { send(0.2, record_into(sim, next)); });
  sim.run_until(1.6);
  EXPECT_EQ(slow.status, net::kStatusGatewayTimeout);
  EXPECT_EQ(slow.reason, "timeout");
  EXPECT_NEAR(slow.at, 1.5, 0.01);
  EXPECT_EQ(qp.executing(), 1);  // the handler still runs
  EXPECT_EQ(qp.queued(), 1u);
  EXPECT_EQ(next.calls, 0);
  sim.run();
  EXPECT_EQ(slow.calls, 1);  // the late 200 never reaches the client
  EXPECT_EQ(slow.status, net::kStatusGatewayTimeout);
  EXPECT_EQ(next.calls, 1);
  EXPECT_EQ(next.status, 200);
  EXPECT_NEAR(next.at, 2.2, 0.01);  // dispatched when `slow`'s slot freed
  EXPECT_EQ(qp.timeouts(), 1u);
  EXPECT_EQ(qp.served(), 2u);
  EXPECT_EQ(qp.executing(), 0);
  EXPECT_EQ(qp.queued(), 0u);
}

TEST_F(QueueProxyTest, DestroyedProxyFiresNoPendingDeadline) {
  // The handler keeps its responder and never answers, so nothing but
  // the two deadlines refers to the proxy once it is gone.
  std::vector<net::Responder> held;
  FunctionHandler hold = [&held](const net::HttpRequest&, FunctionContext&,
                                 net::Responder respond) {
    held.push_back(std::move(respond));
  };
  Answer executing, queued;
  auto qp = std::make_unique<QueueProxy>(sim, http, context(), hold, 1,
                                         /*request_timeout_s=*/1.0);
  qp->install(10001);
  send(0, record_into(sim, executing));
  send(0, record_into(sim, queued));
  sim.run_until(0.5);
  ASSERT_EQ(qp->executing(), 1);
  ASSERT_EQ(qp->queued(), 1u);
  const std::size_t pending = sim.pending_events();
  qp.reset();
  EXPECT_EQ(sim.pending_events(), pending - 2);  // both deadlines cancelled
  sim.run();
  EXPECT_EQ(executing.calls, 0);
  EXPECT_EQ(queued.calls, 0);
  EXPECT_EQ(held.size(), 1u);
}

}  // namespace
}  // namespace sf::knative
