#pragma once

#include <cstddef>
#include <functional>

namespace sf::sim {

/// Continuation handed to each step of for_each_async: `next(true)` starts
/// the following step, `next(false)` ends the loop.
using AsyncNext = std::function<void(bool ok)>;

/// One step of for_each_async: does its (usually asynchronous) work for
/// index `i`, then calls `next` once — or drops it to abandon the loop.
using AsyncStep = std::function<void(std::size_t i, AsyncNext next)>;

/// Runs `step(i, next)` for i = 0..n-1, one step at a time: step i+1
/// starts inside step i's `next(true)`. Calls `done(true)` after the last
/// step, or `done(false)` at the first `next(false)`, after which no step
/// runs; `n == 0` calls `done(true)` at once. This is the one sequential
/// async loop behind file staging, task chains and data-strategy transfers.
///
/// The loop schedules no engine event of its own, so the event stream is
/// exactly the steps' own. Only pending `next` callbacks own the loop's
/// state (`step`, `done` and their captures): it is freed when the loop
/// finishes and also when a step drops its `next` — a transfer whose job
/// attempt died simply never continues, and nothing leaks.
void for_each_async(std::size_t n, AsyncStep step,
                    std::function<void(bool)> done);

}  // namespace sf::sim
