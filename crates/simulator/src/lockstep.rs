//! Lockstep arbitration for multi-engine co-simulation.
//!
//! The fleet layer advances several independent [`crate::event`] queues —
//! one per cluster — under a single virtual clock. Determinism requires a
//! total order over "which simulation acts next": the earliest pending
//! time wins, and on ties the lowest source index wins. That arbitration
//! rule lives here so it can be tested in isolation and reused by any
//! future multi-engine driver.

use crate::time::SimTime;

/// Picks the next source to advance: the one with the earliest pending
/// time; ties break to the lowest index. Sources with `None` (nothing
/// pending) never win. Returns `(index, time)` or `None` when every
/// source is drained. Takes the pending times as an iterator so a driver
/// can scan its sources in place, without collecting them per tick.
pub fn next_source(pending: impl IntoIterator<Item = Option<SimTime>>) -> Option<(usize, SimTime)> {
    let mut best: Option<(usize, SimTime)> = None;
    for (i, t) in pending.into_iter().enumerate() {
        let Some(t) = t else { continue };
        match best {
            Some((_, bt)) if bt <= t => {}
            _ => best = Some((i, t)),
        }
    }
    best
}

/// A monotonic global clock for lockstep drivers: refuses to move
/// backwards, which turns subtle arbitration bugs into loud panics.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalClock {
    now: SimTime,
}

impl GlobalClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        GlobalClock::default()
    }

    /// The current global time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is earlier than the current time — lockstep
    /// arbitration must never deliver events out of order.
    pub fn advance_to(&mut self, to: SimTime) {
        assert!(
            to >= self.now,
            "global clock moved backwards: {} < {}",
            to,
            self.now
        );
        self.now = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn earliest_time_wins() {
        let pending = vec![Some(t(30)), Some(t(10)), Some(t(20))];
        assert_eq!(next_source(pending), Some((1, t(10))));
    }

    #[test]
    fn ties_break_to_lowest_index() {
        let pending = vec![Some(t(10)), Some(t(10)), Some(t(10))];
        assert_eq!(next_source(pending), Some((0, t(10))));
        let pending = vec![None, Some(t(10)), Some(t(10))];
        assert_eq!(next_source(pending), Some((1, t(10))));
    }

    #[test]
    fn drained_sources_never_win() {
        assert_eq!(next_source([]), None);
        assert_eq!(next_source([None, None]), None);
        let pending = vec![None, Some(t(5)), None];
        assert_eq!(next_source(pending), Some((1, t(5))));
    }

    #[test]
    fn clock_is_monotonic() {
        let mut clock = GlobalClock::new();
        assert_eq!(clock.now(), SimTime::ZERO);
        clock.advance_to(t(10));
        clock.advance_to(t(10));
        clock.advance_to(t(25));
        assert_eq!(clock.now(), t(25));
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn clock_rejects_time_travel() {
        let mut clock = GlobalClock::new();
        clock.advance_to(t(10));
        clock.advance_to(t(9));
    }
}
