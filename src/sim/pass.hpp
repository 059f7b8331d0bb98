// The pass cursor: each parked host wait written once.
//
// Both protocols of the paper wait by polling flag words (Figs. 5 and 8). A
// host loop that waits on several words at once (a result or slot wait, the
// executor's idle pass, a gateway's loop) repeats a pass: a few advance()
// steps and, between them, checks on state that time or other processes
// move. sim::poll parks such a loop given the pass as a fixed list of steps
// and a wake time per step. The cursor takes that list from the pass itself:
// the loop runs each pass through the calls below, which record the pass as
// it runs. After a pass that found nothing, pass_loop::park() hands the
// record to sim::poll; the engine skips the passes whose checks find nothing
// and wakes the loop after the step k whose checks act. The loop then runs
// its pass again: up to step k the cursor replays it (steps take no time,
// checks answer no, tallies do nothing), and after step k the pass runs live.
// Each step and each check thus has one definition, shared by the pass and
// the engine.
//
// The rule a pass follows:
//   * everything it reads that time or another process can change goes
//     through at() or live(), and "no" from a check means "nothing to do";
//   * everything else is the loop's own state, which stays put while the
//     loop is parked, so a replay takes the branches its record took;
//   * anything else an idle pass does is idempotent (a gauge set) or a
//     tally().
// A replay whose steps differ from its record fails an AURORA_CHECK that
// names the loop. A pass parks only if it found nothing by the cursor's own
// account as well: no check answered yes, no loop opened inside it, and its
// steps account for all the virtual time it took. Otherwise the next pass
// simply runs live.
//
// The calls act on the running process's innermost open loop. Outside any
// loop they act plainly: step() is advance(), a check answers live and
// tally() books one.
//
// Built with AURORA_SIM_LITERAL_POLL, park() never parks and every pass runs
// for real: the reference the tests compare parking against.
#pragma once

#include <cstdint>

#include "sim/engine.hpp"

namespace aurora::sim {

/// A check another process can move: the virtual time from which it acts,
/// given the shared state as it is now, or sim::never. The engine calls it
/// between other processes' segments, so it must be free of side effects,
/// like sim::poll's due. It may answer early (the code after the check
/// still tests the real condition), never late.
using live_fn = time_ns (*)(const void* ctx, std::uint64_t arg);
/// Books `n` passes' worth of a side effect (a probe count, a refused send).
using tally_fn = void (*)(void* ctx, std::uint64_t arg, std::uint64_t n);

namespace pass {
/// advance(ns) as a step of the running pass.
void step(duration_ns ns);
/// A check on time or on the loop's own state that acts from `t` on:
/// t <= now().
[[nodiscard]] bool at(time_ns t);
/// A check on state that other processes move: fn(ctx, arg) <= now().
[[nodiscard]] bool live(live_fn fn, const void* ctx, std::uint64_t arg = 0);
/// A side effect of every idle pass at this point: fn(ctx, arg, 1).
void tally(tally_fn fn, void* ctx, std::uint64_t arg = 0);
} // namespace pass

namespace detail {
struct pass_record;
} // namespace detail

/// One wait loop of the running process, open from construction to
/// destruction; the pass:: calls go to the innermost open loop. A loop opened
/// inside another loop's pass parks on its own record, and that outer pass
/// counts as progress. The record lives in storage kept across loops.
///
///     sim::pass_loop loop("offload::runtime::acquire_slot");
///     for (;;) {
///         if (pass()) break;   // its steps and checks through sim::pass
///         loop.park(pause_ns); // it found nothing
///         loop.begin();
///     }
class pass_loop {
public:
    /// `name` (static storage) names the loop in a failed replay check.
    explicit pass_loop(const char* name);
    ~pass_loop();
    pass_loop(const pass_loop&) = delete;
    pass_loop& operator=(const pass_loop&) = delete;

    /// Start a pass: after a park() that woke, it replays up to the step it
    /// woke after; else it runs live.
    void begin();
    /// After a pass that found nothing: run the recorded pass over and over,
    /// parked (sim::poll), until a check acts; book what the skipped passes
    /// tallied. `pause`, when not 0, is the pass's last step (a poll loop's
    /// pause), run here: parked with the rest, or live when the loop does
    /// not park. False, without parking, when the pass cannot be parked on
    /// or a check before its first step acts now: the next pass then runs
    /// live.
    bool park(duration_ns pause = 0);

private:
    detail::pass_record* outer_;
    detail::pass_record* rec_;
};

} // namespace aurora::sim
