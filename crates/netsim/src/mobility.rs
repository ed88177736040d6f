//! Node mobility models.
//!
//! The paper's simulation (§VI-B1) uses 40 mobile nodes that "randomly choose
//! their direction and speed" (speed 2–10 m/s, direction 0–2π) in a
//! 300 m × 300 m field, plus 4 stationary repositories. The real-world
//! scenarios of Fig. 8 follow scripted trajectories, which
//! [`ScriptedMobility`] reproduces.

use crate::geometry::{advance, time_to_boundary, Point, Velocity};
use crate::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;
use std::fmt::Debug;

/// How a node moves. Positions are queried analytically between *segment
/// changes*, so the simulator never ticks idle nodes. `Send` so a whole
/// `World` can move to a worker thread (independent trials in parallel).
pub trait Mobility: Debug + Send {
    /// Position at time `now`. Must be piecewise-deterministic: two queries
    /// at the same instant return the same point.
    fn position(&self, now: SimTime) -> Point;

    /// When the current movement segment ends and [`Mobility::on_change`]
    /// must run, or `None` for "never" (stationary nodes). A model that
    /// answers `None` is fixed from then on: `on_change` never runs again,
    /// so `position` must keep returning one point. The spatial grid and
    /// the world's fixed-position table both rely on this.
    fn next_change(&self) -> Option<SimTime>;

    /// Re-plans movement at a segment boundary.
    fn on_change(&mut self, now: SimTime, rng: &mut SmallRng, field: (f64, f64));
}

/// A node that never moves (the paper's stationary repositories).
#[derive(Clone, Debug)]
pub struct Stationary {
    at: Point,
}

impl Stationary {
    /// Creates a stationary node at `at`.
    pub fn new(at: Point) -> Self {
        Stationary { at }
    }
}

impl Mobility for Stationary {
    fn position(&self, _now: SimTime) -> Point {
        self.at
    }

    fn next_change(&self) -> Option<SimTime> {
        None
    }

    fn on_change(&mut self, _now: SimTime, _rng: &mut SmallRng, _field: (f64, f64)) {}
}

/// Slowest walking speed a [`RandomDirection`] leg draws, in m/s (paper
/// §VI-B1: 2–10 m/s).
pub const MIN_SPEED: f64 = 2.0;

/// Upper end of the speed range a [`RandomDirection`] leg draws from, in
/// m/s (exclusive).
pub const MAX_SPEED: f64 = 10.0;

/// Longest leg a [`RandomDirection`] walks before re-drawing, so nodes
/// change direction even mid-field.
pub const MAX_LEG: SimDuration = SimDuration::from_secs(20);

/// Random-direction mobility: pick a heading in `[0, 2π)` and a speed in
/// `[MIN_SPEED, MAX_SPEED)`, walk until the field boundary (or
/// [`MAX_LEG`]), then re-draw.
#[derive(Clone, Debug)]
pub struct RandomDirection {
    origin: Point,
    velocity: Velocity,
    seg_start: SimTime,
    seg_end: SimTime,
    /// Field learned at the first `on_change`; positions are clamped into it
    /// to absorb microsecond-rounding overshoot at the walls.
    field: (f64, f64),
}

impl RandomDirection {
    /// Creates the model at `start`; the first heading is drawn at t = 0.
    pub fn new(start: Point) -> Self {
        RandomDirection {
            origin: start,
            velocity: Velocity::ZERO,
            seg_start: SimTime::ZERO,
            // A change at t=0 draws the first heading.
            seg_end: SimTime::ZERO,
            field: (f64::INFINITY, f64::INFINITY),
        }
    }
}

impl Mobility for RandomDirection {
    fn position(&self, now: SimTime) -> Point {
        let t = now.min(self.seg_end);
        let dt = t.since(self.seg_start).as_secs_f64();
        advance(self.origin, self.velocity, dt).clamped(self.field.0, self.field.1)
    }

    fn next_change(&self) -> Option<SimTime> {
        Some(self.seg_end)
    }

    fn on_change(&mut self, now: SimTime, rng: &mut SmallRng, field: (f64, f64)) {
        let (w, h) = field;
        self.field = field;
        self.origin = self.position(now).clamped(w, h);
        self.seg_start = now;

        // Re-sample until the heading points into the field; on a wall a
        // random heading has >= 1/2 chance of pointing inward, so this
        // terminates quickly.
        for _ in 0..64 {
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            let speed = rng.gen_range(MIN_SPEED..MAX_SPEED);
            let v = Velocity::from_heading(theta, speed);
            match time_to_boundary(self.origin, v, w, h) {
                Some(t_exit) if t_exit > 0.05 => {
                    self.velocity = v;
                    let leg = SimDuration::from_secs_f64(t_exit.min(MAX_LEG.as_secs_f64()));
                    self.seg_end = now + leg;
                    return;
                }
                None => {
                    // No exit time (a non-finite position or field, say):
                    // idle a leg.
                    self.velocity = Velocity::ZERO;
                    self.seg_end = now + MAX_LEG;
                    return;
                }
                _ => continue,
            }
        }
        // Pathological corner: stay put for one leg and retry later.
        self.velocity = Velocity::ZERO;
        self.seg_end = now + MAX_LEG;
    }
}

/// Scripted waypoint mobility for the real-world scenarios of the paper's
/// Fig. 8: the node moves in straight lines between timed waypoints and
/// stays at the final waypoint afterwards.
#[derive(Clone, Debug)]
pub struct ScriptedMobility {
    /// `(arrival time, position)`, sorted by time, first entry at t = 0.
    waypoints: Vec<(SimTime, Point)>,
    /// Index of the last waypoint already reached.
    current: usize,
}

impl ScriptedMobility {
    /// Creates a scripted trajectory.
    ///
    /// # Panics
    ///
    /// Panics if `waypoints` is empty or not sorted by strictly increasing
    /// time, or if the first waypoint is not at `SimTime::ZERO`.
    pub fn new(waypoints: Vec<(SimTime, Point)>) -> Self {
        assert!(!waypoints.is_empty(), "need at least one waypoint");
        assert_eq!(
            waypoints[0].0,
            SimTime::ZERO,
            "first waypoint must be at t=0"
        );
        assert!(
            waypoints.windows(2).all(|w| w[0].0 < w[1].0),
            "waypoint times must strictly increase"
        );
        ScriptedMobility {
            waypoints,
            current: 0,
        }
    }

    /// Convenience: hold position `p` forever.
    pub fn hold(p: Point) -> Self {
        Self::new(vec![(SimTime::ZERO, p)])
    }
}

impl Mobility for ScriptedMobility {
    fn position(&self, now: SimTime) -> Point {
        // Find the segment containing `now`; `current` is a hint but the
        // answer must be correct for any query time in the current segment.
        let mut idx = self.current.min(self.waypoints.len() - 1);
        while idx + 1 < self.waypoints.len() && self.waypoints[idx + 1].0 <= now {
            idx += 1;
        }
        let (t0, p0) = self.waypoints[idx];
        match self.waypoints.get(idx + 1) {
            None => p0,
            Some(&(t1, p1)) => {
                let span = t1.since(t0).as_secs_f64();
                let frac = if span <= 0.0 {
                    0.0
                } else {
                    (now.since(t0).as_secs_f64() / span).clamp(0.0, 1.0)
                };
                Point::new(p0.x + (p1.x - p0.x) * frac, p0.y + (p1.y - p0.y) * frac)
            }
        }
    }

    fn next_change(&self) -> Option<SimTime> {
        self.waypoints.get(self.current + 1).map(|&(t, _)| t)
    }

    fn on_change(&mut self, _now: SimTime, _rng: &mut SmallRng, _field: (f64, f64)) {
        if self.current + 1 < self.waypoints.len() {
            self.current += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    const FIELD: (f64, f64) = (300.0, 300.0);

    #[test]
    fn stationary_never_moves_or_changes() {
        let m = Stationary::new(Point::new(10.0, 20.0));
        assert_eq!(m.position(SimTime::from_secs(100)), Point::new(10.0, 20.0));
        assert!(m.next_change().is_none());
    }

    #[test]
    fn random_direction_stays_in_field() {
        let mut rng = rng();
        let mut m = RandomDirection::new(Point::new(150.0, 150.0));
        for _ in 0..200 {
            let now = m.next_change().expect("mobile node always re-plans");
            m.on_change(now, &mut rng, FIELD);
            // Sample the whole next segment.
            let end = m.next_change().expect("segment end");
            for k in 0..=10u64 {
                let span = end.since(now).as_micros();
                let t = now + crate::time::SimDuration::from_micros(span * k / 10);
                let p = m.position(t);
                assert!(
                    (-1e-6..=300.0 + 1e-6).contains(&p.x) && (-1e-6..=300.0 + 1e-6).contains(&p.y),
                    "escaped field at {p:?}"
                );
            }
        }
    }

    #[test]
    fn random_direction_speed_in_range() {
        let mut rng = rng();
        let mut m = RandomDirection::new(Point::new(150.0, 150.0));
        m.on_change(SimTime::ZERO, &mut rng, FIELD);
        for _ in 0..100 {
            let now = m.next_change().expect("end");
            let speed = m.velocity.speed();
            assert!((2.0..=10.0).contains(&speed), "speed {speed} out of range");
            m.on_change(now, &mut rng, FIELD);
        }
    }

    #[test]
    fn random_direction_position_is_continuous_across_change() {
        let mut rng = rng();
        let mut m = RandomDirection::new(Point::new(10.0, 10.0));
        m.on_change(SimTime::ZERO, &mut rng, FIELD);
        for _ in 0..50 {
            let t = m.next_change().expect("end");
            let before = m.position(t);
            m.on_change(t, &mut rng, FIELD);
            let after = m.position(t);
            assert!(before.distance(&after) < 1e-6);
        }
    }

    #[test]
    fn scripted_interpolates_and_holds() {
        let m = ScriptedMobility::new(vec![
            (SimTime::ZERO, Point::new(0.0, 0.0)),
            (SimTime::from_secs(10), Point::new(100.0, 0.0)),
            (SimTime::from_secs(20), Point::new(100.0, 50.0)),
        ]);
        assert_eq!(m.position(SimTime::from_secs(5)), Point::new(50.0, 0.0));
        assert_eq!(m.position(SimTime::from_secs(10)), Point::new(100.0, 0.0));
        assert_eq!(m.position(SimTime::from_secs(15)), Point::new(100.0, 25.0));
        // Holds after the last waypoint.
        assert_eq!(m.position(SimTime::from_secs(99)), Point::new(100.0, 50.0));
    }

    #[test]
    fn scripted_change_schedule_walks_waypoints() {
        let mut m = ScriptedMobility::new(vec![
            (SimTime::ZERO, Point::new(0.0, 0.0)),
            (SimTime::from_secs(10), Point::new(100.0, 0.0)),
        ]);
        assert_eq!(m.next_change(), Some(SimTime::from_secs(10)));
        m.on_change(SimTime::from_secs(10), &mut rng(), FIELD);
        assert_eq!(m.next_change(), None);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn scripted_rejects_unsorted_waypoints() {
        ScriptedMobility::new(vec![
            (SimTime::ZERO, Point::new(0.0, 0.0)),
            (SimTime::ZERO, Point::new(1.0, 0.0)),
        ]);
    }

    #[test]
    fn scripted_position_correct_even_before_on_change_runs() {
        // position() must not depend on on_change having advanced `current`.
        let m = ScriptedMobility::new(vec![
            (SimTime::ZERO, Point::new(0.0, 0.0)),
            (SimTime::from_secs(10), Point::new(10.0, 0.0)),
            (SimTime::from_secs(20), Point::new(10.0, 10.0)),
        ]);
        assert_eq!(m.position(SimTime::from_secs(15)), Point::new(10.0, 5.0));
    }
}
