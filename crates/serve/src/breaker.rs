//! Per-plan circuit breaker: quarantine plans whose integrity keeps
//! failing, serve them from the golden CSR, and probe for recovery.
//!
//! PR 3 made a *single* execution fault-tolerant: the verify-and-heal
//! ladder detects corruption and falls back to the golden CSR — but at
//! full ladder cost, on every request, forever. A plan with a persistent
//! fault (a stuck lane, a corrupted stream) would burn
//! verify + quarantine + re-execute + fallback work on every batch it
//! touches. The breaker moves that policy decision up into the serving
//! layer (the SMASH framing: the software-managed layer owns policy, the
//! fast path stays simple): the catalog tracks each plan's recent
//! execution outcomes in a sliding window; too many fallbacks trip the
//! plan into [`BreakerState::Quarantined`], where requests are served
//! *directly* from the golden CSR — graceful degradation with zero
//! ladder cost. After a seeded cooldown on the virtual clock the plan
//! goes [`BreakerState::HalfOpen`]: exactly one batch per round probes
//! the accelerator path; a clean probe re-admits the plan, a dirty one
//! re-trips it.
//!
//! Everything is deterministic: routing decisions are taken serially in
//! flush order under the server's issue step, outcomes are recorded in
//! flush order after the round's barrier, and the cooldown jitter is a
//! pure function of the configured seed and the trip count — so the
//! whole Healthy → Quarantined → HalfOpen → Healthy history of a trace
//! replays identically for any worker count.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::clock::Tick;

/// Configuration for the per-plan circuit breaker.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Sliding window of recent per-vector execution outcomes tracked per
    /// plan (clamped to at least 1).
    pub window: u32,
    /// Trip into quarantine once this many outcomes in the window were
    /// failures (needed the golden fallback or errored). Clamped to at
    /// least 1; values above `window` can never trip.
    pub trip_failures: u32,
    /// Ticks a tripped plan stays quarantined before a half-open probe is
    /// allowed.
    pub cooldown: Tick,
    /// Upper bound on the deterministic per-trip jitter added to
    /// `cooldown` (0 disables jitter). Jitter is a pure function of
    /// `seed` and the plan's trip count, so re-probes of a fleet of
    /// plans tripped at the same tick spread out — deterministically.
    pub probe_jitter: Tick,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 16,
            trip_failures: 8,
            cooldown: 10_000,
            probe_jitter: 0,
            seed: 0,
        }
    }
}

/// Where the breaker routes a plan's next batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecRoute {
    /// Healthy: execute on the accelerator plan (the normal path).
    Plan,
    /// Quarantined: serve directly from the golden CSR — no ladder cost.
    Golden,
    /// Half-open: execute on the plan as a recovery probe; the outcome
    /// decides re-admission.
    Probe,
}

/// The breaker's position in the Healthy → Quarantined → HalfOpen cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Serving on the accelerator path.
    Healthy,
    /// Serving from the golden CSR until the cooldown expires.
    Quarantined {
        /// The tick at which a half-open probe becomes allowed.
        until: Tick,
    },
    /// Cooldown expired; one probe is (or is about to be) in flight.
    HalfOpen,
}

/// A state-machine transition observed while recording outcomes, for the
/// server's overload counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerEvent {
    /// Healthy (or a failed probe) tripped into quarantine.
    Tripped {
        /// When the quarantine lifts.
        until: Tick,
    },
    /// A clean probe re-admitted the plan.
    Recovered,
}

/// Per-plan breaker bookkeeping: the sliding outcome window plus the
/// state machine. Owned by the catalog entry, driven by the server.
#[derive(Debug)]
pub struct PlanHealth {
    state: BreakerState,
    /// Recent per-vector outcomes on the accelerator path
    /// (`true` = failure). Probe and golden outcomes never enter the
    /// window: a probe decides the transition by itself, and golden
    /// serves say nothing about the accelerator path.
    outcomes: VecDeque<bool>,
    failures: u32,
    trips: u64,
    probe_inflight: bool,
}

impl Default for PlanHealth {
    fn default() -> Self {
        PlanHealth {
            state: BreakerState::Healthy,
            outcomes: VecDeque::new(),
            failures: 0,
            trips: 0,
            probe_inflight: false,
        }
    }
}

impl PlanHealth {
    /// The current state (quarantine expiry is *not* applied here; the
    /// transition to half-open happens on the next [`PlanHealth::route`]).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How many times this plan has tripped into quarantine.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Routes the next batch at `now`. Must be called serially in flush
    /// order (the server's issue step) — the half-open bookkeeping keyed
    /// off this call is what keeps probe selection deterministic.
    pub fn route(&mut self, now: Tick, _config: &BreakerConfig) -> ExecRoute {
        match self.state {
            BreakerState::Healthy => ExecRoute::Plan,
            BreakerState::Quarantined { until } if now >= until => {
                self.state = BreakerState::HalfOpen;
                self.probe_inflight = true;
                ExecRoute::Probe
            }
            BreakerState::Quarantined { .. } => ExecRoute::Golden,
            BreakerState::HalfOpen if !self.probe_inflight => {
                self.probe_inflight = true;
                ExecRoute::Probe
            }
            // A probe is already in flight this round; don't gamble more
            // traffic on an unproven plan.
            BreakerState::HalfOpen => ExecRoute::Golden,
        }
    }

    /// Records a finished batch's per-vector outcomes (`true` = the
    /// vector needed the golden fallback or errored) for the route the
    /// batch was issued under. Must be called in flush order after the
    /// round completes. Returns the transition this recording caused, if
    /// any.
    pub fn record(
        &mut self,
        route: ExecRoute,
        outcomes: &[bool],
        now: Tick,
        config: &BreakerConfig,
    ) -> Option<BreakerEvent> {
        match route {
            ExecRoute::Golden => None,
            ExecRoute::Probe => {
                self.probe_inflight = false;
                if outcomes.iter().any(|&failed| failed) {
                    Some(self.trip(now, config))
                } else {
                    self.state = BreakerState::Healthy;
                    self.outcomes.clear();
                    self.failures = 0;
                    Some(BreakerEvent::Recovered)
                }
            }
            ExecRoute::Plan => {
                let window = config.window.max(1) as usize;
                for &failed in outcomes {
                    if self.outcomes.len() == window && self.outcomes.pop_front() == Some(true) {
                        self.failures -= 1;
                    }
                    self.outcomes.push_back(failed);
                    if failed {
                        self.failures += 1;
                    }
                    if self.failures >= config.trip_failures.max(1) {
                        return Some(self.trip(now, config));
                    }
                }
                None
            }
        }
    }

    fn trip(&mut self, now: Tick, config: &BreakerConfig) -> BreakerEvent {
        self.trips += 1;
        let jitter = if config.probe_jitter == 0 {
            0
        } else {
            SmallRng::seed_from_u64(config.seed ^ self.trips.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .gen_range(0..=config.probe_jitter)
        };
        let until = now.saturating_add(config.cooldown).saturating_add(jitter);
        self.state = BreakerState::Quarantined { until };
        self.outcomes.clear();
        self.failures = 0;
        self.probe_inflight = false;
        BreakerEvent::Tripped { until }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            window: 4,
            trip_failures: 2,
            cooldown: 100,
            probe_jitter: 0,
            seed: 7,
        }
    }

    #[test]
    fn trips_after_threshold_failures_in_window() {
        let c = cfg();
        let mut h = PlanHealth::default();
        assert_eq!(h.route(0, &c), ExecRoute::Plan);
        assert_eq!(h.record(ExecRoute::Plan, &[false, true], 0, &c), None);
        let ev = h.record(ExecRoute::Plan, &[true], 5, &c);
        assert_eq!(ev, Some(BreakerEvent::Tripped { until: 105 }));
        assert_eq!(h.state(), BreakerState::Quarantined { until: 105 });
        assert_eq!(h.trips(), 1);
    }

    #[test]
    fn window_slides_old_failures_out() {
        let c = cfg();
        let mut h = PlanHealth::default();
        // One failure, then a full window of successes: the failure ages
        // out and a later lone failure does not trip.
        h.record(ExecRoute::Plan, &[true, false, false, false], 0, &c);
        assert_eq!(h.record(ExecRoute::Plan, &[false, true], 1, &c), None);
        assert_eq!(h.state(), BreakerState::Healthy);
    }

    #[test]
    fn quarantine_serves_golden_until_cooldown_then_probes() {
        let c = cfg();
        let mut h = PlanHealth::default();
        h.record(ExecRoute::Plan, &[true, true], 10, &c);
        assert_eq!(h.state(), BreakerState::Quarantined { until: 110 });
        assert_eq!(h.route(50, &c), ExecRoute::Golden);
        assert_eq!(h.route(109, &c), ExecRoute::Golden);
        // Cooldown expiry: first route is the probe, siblings in the same
        // round stay on golden.
        assert_eq!(h.route(110, &c), ExecRoute::Probe);
        assert_eq!(h.route(110, &c), ExecRoute::Golden);
        // Failed probe re-trips with a fresh cooldown.
        let ev = h.record(ExecRoute::Probe, &[false, true], 110, &c);
        assert_eq!(ev, Some(BreakerEvent::Tripped { until: 210 }));
        assert_eq!(h.route(209, &c), ExecRoute::Golden);
        // Clean probe re-admits.
        assert_eq!(h.route(210, &c), ExecRoute::Probe);
        assert_eq!(
            h.record(ExecRoute::Probe, &[false], 210, &c),
            Some(BreakerEvent::Recovered)
        );
        assert_eq!(h.state(), BreakerState::Healthy);
        assert_eq!(h.route(211, &c), ExecRoute::Plan);
        assert_eq!(h.trips(), 2);
    }

    #[test]
    fn golden_outcomes_never_touch_the_window() {
        let c = cfg();
        let mut h = PlanHealth::default();
        assert_eq!(
            h.record(ExecRoute::Golden, &[true, true, true], 0, &c),
            None
        );
        assert_eq!(h.state(), BreakerState::Healthy);
    }

    #[test]
    fn probe_jitter_is_seeded_and_bounded() {
        let c = BreakerConfig {
            probe_jitter: 50,
            ..cfg()
        };
        let until_of = |seed: u64| {
            let c = BreakerConfig { seed, ..c };
            let mut h = PlanHealth::default();
            match h.record(ExecRoute::Plan, &[true, true], 0, &c) {
                Some(BreakerEvent::Tripped { until }) => until,
                other => panic!("expected trip, got {other:?}"),
            }
        };
        for seed in 0..8 {
            let u = until_of(seed);
            assert!((100..=150).contains(&u), "seed {seed}: until {u}");
            assert_eq!(u, until_of(seed), "jitter must be deterministic");
        }
        assert!(
            (0..8)
                .map(until_of)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                > 1,
            "jitter should actually vary across seeds"
        );
    }
}
