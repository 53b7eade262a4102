//! A virtual clock for deterministic, sleep-free serving tests.
//!
//! The admission queue's deadline semantics are defined against *ticks*
//! of a [`VirtualClock`], not wall time: the clock only moves when a
//! driver advances it, so a seeded arrival trace replays to the exact
//! same flush schedule on every run, on any machine, with no sleeps.
//! By convention one tick is one microsecond of virtual time.

use std::sync::atomic::{AtomicU64, Ordering};

/// Virtual time, in ticks (one tick = 1 µs by convention).
pub type Tick = u64;

/// A monotonic virtual clock shared by the server and its drivers.
///
/// All reads and advances are atomic; the clock never goes backwards
/// ([`VirtualClock::advance_to`] clamps to the current time).
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: AtomicU64,
}

impl VirtualClock {
    /// A clock at tick zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current virtual time.
    pub fn now(&self) -> Tick {
        self.now.load(Ordering::SeqCst)
    }

    /// Moves the clock forward by `ticks` and returns the new time.
    pub fn advance(&self, ticks: Tick) -> Tick {
        self.now.fetch_add(ticks, Ordering::SeqCst) + ticks
    }

    /// Moves the clock forward to `t` (no-op if `t` is in the past) and
    /// returns the current time afterwards.
    pub fn advance_to(&self, t: Tick) -> Tick {
        self.now.fetch_max(t, Ordering::SeqCst).max(t)
    }
}

/// An absolute point in virtual time at which a queued batch must flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Deadline {
    /// The tick at which the deadline fires.
    pub at: Tick,
}

impl Deadline {
    /// A deadline `delay` ticks after `now` (saturating).
    pub fn after(now: Tick, delay: Tick) -> Self {
        Deadline {
            at: now.saturating_add(delay),
        }
    }

    /// `true` once the clock has reached the deadline.
    pub fn due(self, now: Tick) -> bool {
        now >= self.at
    }

    /// Ticks left before the deadline fires, or `None` once it has.
    ///
    /// The boundary is exclusive: a deadline due exactly at `now` is
    /// already expired (`remaining` is `None`), never runnable — this is
    /// the contract the queue's shedding decisions are built on, so a
    /// request whose completion deadline equals the flush tick is shed,
    /// not executed.
    pub fn remaining(self, now: Tick) -> Option<Tick> {
        if now < self.at {
            Some(self.at - now)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(5), 5);
        assert_eq!(c.advance_to(3), 5, "advance_to never rewinds");
        assert_eq!(c.advance_to(9), 9);
        assert_eq!(c.now(), 9);
    }

    #[test]
    fn deadlines_fire_at_their_tick() {
        let d = Deadline::after(10, 5);
        assert!(!d.due(14));
        assert!(d.due(15));
        assert!(d.due(16));
        assert_eq!(Deadline::after(u64::MAX, 2).at, u64::MAX);
    }

    #[test]
    fn remaining_boundary_tick_is_expired() {
        let d = Deadline { at: 15 };
        assert_eq!(d.remaining(14), Some(1), "one tick left just before");
        assert_eq!(
            d.remaining(15),
            None,
            "a deadline due exactly at `now` is expired, not runnable"
        );
        assert_eq!(d.remaining(16), None);
        // `remaining` and `due` agree everywhere: due ⇔ no time remains.
        for now in 0..32 {
            assert_eq!(d.due(now), d.remaining(now).is_none(), "tick {now}");
        }
        assert_eq!(Deadline { at: 0 }.remaining(0), None);
    }
}
