//! Plane geometry for node positions and movement.

use std::fmt;

/// A position in the simulation field, in metres.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Metres along the x axis.
    pub x: f64,
    /// Metres along the y axis.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other` in metres.
    pub fn distance(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Whether `other` lies within `range` metres (inclusive).
    pub fn within(&self, other: &Point, range: f64) -> bool {
        // Squared comparison avoids the sqrt on the hot path.
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy <= range * range
    }

    /// Whether a transmitter here can be audible, at `range`, to `sender`
    /// or to any receiver within `range` of it: the triangle inequality
    /// bounds every such distance by `2 × range`, and a relative margin of
    /// 1e-9 absorbs the rounding of [`Point::within`], so an interferer
    /// this rejects fails every `within(_, range)` check a receiver of
    /// `sender` would make.
    pub fn may_interfere(&self, sender: &Point, range: f64) -> bool {
        self.within(sender, 2.0 * range * (1.0 + 1e-9))
    }

    /// Component-wise clamp into the rectangle `(0,0)..=(w,h)`.
    pub fn clamped(&self, w: f64, h: f64) -> Point {
        Point {
            x: self.x.clamp(0.0, w),
            y: self.y.clamp(0.0, h),
        }
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

/// A velocity vector in metres per second.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Velocity {
    /// Metres per second along x.
    pub vx: f64,
    /// Metres per second along y.
    pub vy: f64,
}

impl Velocity {
    /// A stationary velocity.
    pub const ZERO: Velocity = Velocity { vx: 0.0, vy: 0.0 };

    /// Builds a velocity from a heading (radians) and speed (m/s).
    pub fn from_heading(theta: f64, speed: f64) -> Self {
        Velocity {
            vx: speed * theta.cos(),
            vy: speed * theta.sin(),
        }
    }

    /// Speed in metres per second.
    pub fn speed(&self) -> f64 {
        (self.vx * self.vx + self.vy * self.vy).sqrt()
    }
}

/// Advances `origin` by `v` for `dt_secs` seconds.
pub fn advance(origin: Point, v: Velocity, dt_secs: f64) -> Point {
    Point {
        x: origin.x + v.vx * dt_secs,
        y: origin.y + v.vy * dt_secs,
    }
}

/// Time in seconds until a mover starting at `p` with velocity `v` exits the
/// rectangle `(0,0)..(w,h)`, or `None` if it never does (zero velocity or
/// already gliding along a wall inward).
pub fn time_to_boundary(p: Point, v: Velocity, w: f64, h: f64) -> Option<f64> {
    let mut t = f64::INFINITY;
    if v.vx > 0.0 {
        t = t.min((w - p.x) / v.vx);
    } else if v.vx < 0.0 {
        t = t.min(-p.x / v.vx);
    }
    if v.vy > 0.0 {
        t = t.min((h - p.y) / v.vy);
    } else if v.vy < 0.0 {
        t = t.min(-p.y / v.vy);
    }
    if t.is_finite() && t >= 0.0 {
        Some(t)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_and_within() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!(a.within(&b, 5.0));
        assert!(!a.within(&b, 4.999));
    }

    /// Collinear chains sender → receiver → interferer, each hop `range`
    /// long, where rounding puts both hops within `range` but the interferer
    /// just beyond `2 × range` of the sender: the margin must keep it.
    #[test]
    fn may_interfere_keeps_interferers_rounding_puts_past_twice_the_range() {
        let chains = [
            (
                (-362.10392348037624, 403.45664025121823),
                119.34595355973192,
                (-269.5515165134901, 328.10739608966355),
                (-176.99910954660405, 252.75815192810884),
            ),
            (
                (-277.4488260546326, 408.3216600744306),
                133.23367344209936,
                (-172.32158351527698, 326.47134171862047),
                (-67.19434097592138, 244.6210233628103),
            ),
            (
                (225.792049380678, -177.36664726686024),
                78.5900804884818,
                (155.0643232135863, -143.1031170573366),
                (84.33659704649462, -108.83958684781292),
            ),
        ];
        for (s, range, r, p) in chains {
            let (s, r, p) = (
                Point::new(s.0, s.1),
                Point::new(r.0, r.1),
                Point::new(p.0, p.1),
            );
            assert!(
                s.within(&r, range) && p.within(&r, range),
                "{s:?} {r:?} {p:?}"
            );
            assert!(!p.within(&s, 2.0 * range), "{p:?} rounds past 2R of {s:?}");
            assert!(p.may_interfere(&s, range), "{p:?} dropped");
        }
    }

    #[test]
    fn advance_moves_linearly() {
        let p = advance(Point::new(1.0, 2.0), Velocity { vx: 2.0, vy: -1.0 }, 3.0);
        assert!((p.x - 7.0).abs() < 1e-12);
        assert!((p.y + 1.0).abs() < 1e-12);
    }

    #[test]
    fn heading_velocity_has_requested_speed() {
        for theta in [0.0, 1.0, 2.5, 6.0] {
            let v = Velocity::from_heading(theta, 7.0);
            assert!((v.speed() - 7.0).abs() < 1e-9);
        }
    }

    #[test]
    fn boundary_time_simple_cases() {
        let w = 300.0;
        let h = 300.0;
        // Heading straight right from the centre.
        let t = time_to_boundary(
            Point::new(150.0, 150.0),
            Velocity { vx: 10.0, vy: 0.0 },
            w,
            h,
        )
        .expect("moving");
        assert!((t - 15.0).abs() < 1e-9);
        // Heading diagonally down-left from near the origin corner.
        let t = time_to_boundary(Point::new(5.0, 10.0), Velocity { vx: -1.0, vy: -2.0 }, w, h)
            .expect("moving");
        assert!((t - 5.0).abs() < 1e-9);
        // Stationary never exits.
        assert!(time_to_boundary(Point::new(5.0, 10.0), Velocity::ZERO, w, h).is_none());
    }

    #[test]
    fn boundary_time_on_wall_heading_out_is_zero() {
        let t = time_to_boundary(
            Point::new(300.0, 150.0),
            Velocity { vx: 1.0, vy: 0.0 },
            300.0,
            300.0,
        )
        .expect("moving");
        assert_eq!(t, 0.0);
    }

    #[test]
    fn clamp_restores_field_membership() {
        let p = Point::new(-3.0, 400.0).clamped(300.0, 300.0);
        assert_eq!((p.x, p.y), (0.0, 300.0));
    }
}
