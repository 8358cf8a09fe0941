#include "sim/async.hpp"

#include <memory>
#include <utility>

namespace sf::sim {

namespace {

struct Loop {
  std::size_t n;
  AsyncStep step;
  std::function<void(bool)> done;
};

// `loop` is owned by the caller for the duration: for_each_async's
// temporary for step 0, the running `next` closure for every later step.
void run_step(const std::shared_ptr<Loop>& loop, std::size_t i) {
  if (i == loop->n) {
    loop->done(true);
    return;
  }
  loop->step(i, [loop, i](bool ok) {
    if (ok) {
      run_step(loop, i + 1);
    } else {
      loop->done(false);
    }
  });
}

}  // namespace

void for_each_async(std::size_t n, AsyncStep step,
                    std::function<void(bool)> done) {
  if (n == 0) {
    done(true);
    return;
  }
  run_step(std::make_shared<Loop>(Loop{n, std::move(step), std::move(done)}),
           0);
}

}  // namespace sf::sim
