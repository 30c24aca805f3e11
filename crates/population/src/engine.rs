//! The one run loop: the [`Engine`] trait and [`drive`].
//!
//! Every hooked run in the workspace — faulted, checkpointed, observed,
//! probed, and any combination of them, on the sequential
//! [`Simulator`](crate::Simulator), the `shard` crate's sharded engine
//! and the `dynamic` crate's churning population, plus the `scenarios`
//! recovery drivers — is a call into [`drive`]. An engine contributes
//! only its block loop ([`Engine::advance`]) and access to its
//! configuration; `drive` is the single place that decides *where* a run
//! is split and *what* happens at each split point.
//!
//! # The roles
//!
//! * **Faults** — a [`FaultHook`]: fires at exact interaction counts and
//!   mutates the configuration ([`NoFaults`](crate::NoFaults) never
//!   fires).
//! * **Engine events** — [`Engine::next_event`] / [`Engine::apply_events`]:
//!   due points internal to the engine (the dynamic population's
//!   arrivals and departures). Defaulted to none.
//! * **Checkpoints** — a [`Save`]: `&mut C` for any
//!   [`Checkpointer`] `C` over a [`Framed`] engine, or
//!   [`NullCheckpointer`] for none.
//! * **Observer** — a [`Poll`]: [`Watch`] polls an [`Observer`] over the
//!   whole configuration every `check_every` interactions (counted from
//!   the run's entry, plus once at entry and once at the deadline);
//!   [`NoPoll`] never polls.
//! * **Probe** — a [`Probe`], called inside [`Engine::advance`] at block
//!   boundaries and by `drive` after fault firings and polls, always
//!   behind [`Probe::ACTIVE`].
//!
//! # Split points and hook order
//!
//! The run is split at the earliest count where an active role is due:
//! the minimum of the next fault, the next engine event, the next save,
//! the next poll and the deadline. Only those counts split a burst, so a
//! run with no active role is one [`Engine::advance`] call. (The
//! sequential trajectory does not depend on where a run is split; the
//! sharded one does, and this rule is what fixes its burst structure
//! for a given set of hooks.)
//!
//! At every split point — the entry count and the deadline included —
//! the roles act in this fixed order:
//!
//! 1. faults fire (each followed by [`Probe::fault`] on the post-fault
//!    configuration);
//! 2. engine events apply (membership changes);
//! 3. checkpoints save — so a saved frame holds the post-fault,
//!    post-membership configuration and fault state already advanced
//!    past `t`, and a resume from it replays nothing;
//! 4. the observer polls (followed by [`Probe::checkpoint`]); a stop
//!    verdict ends the run right there.
//!
//! Hooks due at entry therefore act before the first interaction, and
//! hooks due exactly at the deadline act before `drive` returns.

use crate::checkpoint::{Checkpointer, Frame, HookState, NullCheckpointer};
use crate::observe::{Control, Observer};
use crate::probe::Probe;
use crate::protocol::Protocol;
use crate::sim::{FaultHook, StopReason};

/// The per-agent state type of an engine's protocol.
pub type StateOf<E> = <<E as Engine>::Protocol as Protocol>::State;

/// An executor [`drive`] can run: a protocol, an interaction counter, a
/// block loop, and access to the whole configuration.
pub trait Engine {
    /// The protocol being simulated.
    type Protocol: Protocol;

    /// The protocol being simulated.
    fn protocol(&self) -> &Self::Protocol;

    /// Interactions executed so far.
    fn interactions(&self) -> u64;

    /// Execute exactly `count` interactions — the engine's block loop.
    /// `probe` is called only behind [`Probe::ACTIVE`], so with a
    /// [`NullProbe`](crate::NullProbe) this is the bare hot loop.
    fn advance<B: Probe<Self::Protocol>>(&mut self, count: u64, probe: &mut B);

    /// Call `f` on the whole configuration, in agent order (observer
    /// polls). An engine that stores it in pieces gathers it first.
    fn read<R>(&self, f: impl FnOnce(&[StateOf<Self>]) -> R) -> R;

    /// Call `f` with mutable access to the whole configuration (fault
    /// firings). An engine that stores it in pieces gathers it first and
    /// scatters it back afterwards.
    fn write<R>(&mut self, f: impl FnOnce(&Self::Protocol, &mut [StateOf<Self>]) -> R) -> R;

    /// The earliest engine-internal event after the current count, if
    /// any. Must be strictly in the future once
    /// [`apply_events`](Engine::apply_events) has run.
    fn next_event(&self) -> Option<u64> {
        None
    }

    /// Apply every engine-internal event due at the current count.
    fn apply_events<B: Probe<Self::Protocol>>(&mut self, probe: &mut B) {
        let _ = probe;
    }
}

/// Engines whose position can be captured as a [`Frame`] — what a
/// checkpointed run needs.
pub trait Framed: Engine {
    /// The run's position: interaction count, configuration words and
    /// scheduler cursors.
    fn frame(&self) -> Frame;
}

/// The checkpoint role of [`drive`]: when to save, and what saving an
/// engine `E` run under fault hook `H` means.
pub trait Save<E: ?Sized, H: ?Sized> {
    /// `false` for [`NullCheckpointer`]: `drive` then never asks.
    const ACTIVE: bool;

    /// The earliest count at (or after) `now` where a save is due.
    fn next_due(&mut self, now: u64) -> Option<u64>;

    /// Save the engine's position and the fault hook's state. Must
    /// advance: `next_due(t)` afterwards is past `t`.
    fn save(&mut self, engine: &E, faults: &H);
}

impl<E: ?Sized, H: ?Sized> Save<E, H> for NullCheckpointer {
    const ACTIVE: bool = false;

    fn next_due(&mut self, _now: u64) -> Option<u64> {
        None
    }

    fn save(&mut self, _engine: &E, _faults: &H) {}
}

impl<E, H, C> Save<E, H> for &mut C
where
    E: Framed + ?Sized,
    H: HookState + ?Sized,
    C: Checkpointer + ?Sized,
{
    const ACTIVE: bool = C::ACTIVE;

    fn next_due(&mut self, now: u64) -> Option<u64> {
        (**self).next_due(now)
    }

    fn save(&mut self, engine: &E, faults: &H) {
        (**self).save(&engine.frame(), faults.export_state().as_ref());
    }
}

/// The observer role of [`drive`]: polled at entry, every
/// [`every`](Poll::every) interactions after the previous poll, and at
/// the deadline. The fault hook is visible read-only, so a poll can
/// correlate what it sees with what fired (recovery measurement).
pub trait Poll<E: ?Sized, H: ?Sized> {
    /// `false` for [`NoPoll`]: `drive` then never polls.
    const ACTIVE: bool = true;

    /// Interactions between polls.
    fn every(&self) -> u64;

    /// Inspect the engine. [`Control::Stop`] ends the run.
    fn poll(&mut self, engine: &E, faults: &H) -> Control;
}

/// The inactive observer role.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPoll;

impl<E: ?Sized, H: ?Sized> Poll<E, H> for NoPoll {
    const ACTIVE: bool = false;

    fn every(&self) -> u64 {
        u64::MAX
    }

    fn poll(&mut self, _engine: &E, _faults: &H) -> Control {
        Control::Continue
    }
}

/// Poll an [`Observer`] over the whole configuration every
/// `check_every` interactions.
#[derive(Debug)]
pub struct Watch<'a, O: ?Sized> {
    observer: &'a mut O,
    every: u64,
}

impl<'a, O: ?Sized> Watch<'a, O> {
    /// Poll `observer` every `check_every` interactions.
    ///
    /// # Panics
    ///
    /// Panics if `check_every == 0`.
    pub fn new(observer: &'a mut O, check_every: u64) -> Self {
        assert!(check_every > 0, "check_every must be positive");
        Self {
            observer,
            every: check_every,
        }
    }
}

impl<E, H, O> Poll<E, H> for Watch<'_, O>
where
    E: Engine + ?Sized,
    H: ?Sized,
    O: Observer<E::Protocol> + ?Sized,
{
    fn every(&self) -> u64 {
        self.every
    }

    fn poll(&mut self, engine: &E, _faults: &H) -> Control {
        let t = engine.interactions();
        engine.read(|states| self.observer.observe(engine.protocol(), t, states))
    }
}

/// Run `engine` for `count` interactions under every hook role — the
/// only hook loop in the workspace. See the [module docs](self) for the
/// split rule and the hook order.
///
/// Returns [`StopReason::Converged`] at the poll whose verdict stopped
/// the run, or [`StopReason::BudgetExhausted`] at the deadline.
pub fn drive<E, H, K, O, B>(
    engine: &mut E,
    count: u64,
    faults: &mut H,
    mut saves: K,
    mut poll: O,
    probe: &mut B,
) -> StopReason
where
    E: Engine + ?Sized,
    H: FaultHook<E::Protocol> + ?Sized,
    K: Save<E, H>,
    O: Poll<E, H>,
    B: Probe<E::Protocol>,
{
    let deadline = engine.interactions().saturating_add(count);
    let mut next_poll = engine.interactions();
    loop {
        let now = engine.interactions();
        while faults.next_fire(now).is_some_and(|t| t <= now) {
            engine.write(|protocol, states| {
                faults.fire(protocol, now, states);
                if B::ACTIVE {
                    probe.fault(protocol, now, states);
                }
            });
        }
        engine.apply_events(probe);
        if K::ACTIVE {
            while saves.next_due(now).is_some_and(|t| t <= now) {
                saves.save(engine, faults);
            }
        }
        if O::ACTIVE && (now >= next_poll || now >= deadline) {
            let stop = poll.poll(engine, faults).is_stop();
            if B::ACTIVE {
                probe.checkpoint(engine.protocol(), now, stop);
            }
            if stop {
                return StopReason::Converged(now);
            }
            next_poll = now.saturating_add(poll.every());
        }
        if now >= deadline {
            return StopReason::BudgetExhausted;
        }
        let due = [
            faults.next_fire(now),
            engine.next_event(),
            if K::ACTIVE { saves.next_due(now) } else { None },
            O::ACTIVE.then_some(next_poll),
        ];
        let stop = due.into_iter().flatten().fold(deadline, u64::min);
        debug_assert!(stop > now, "hook scheduled in the past");
        engine.advance(stop - now, probe);
    }
}
