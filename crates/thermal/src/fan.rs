//! The forced-convection cooler: fan power law and the speed-dependent
//! heat-sink conductance — Eqs. (8) and (9) of the paper.

use oftec_units::{AngularVelocity, Power, ThermalConductance};

/// Fan and heat-sink aggregate model.
///
/// - `P_fan = c·ω³` (Eq. (8), laminar regime) with `c` in J·s²;
/// - `g_HS&fan(ω) = p·ln(q·ω) + r` (Eq. (9), HotSpot-5 curve fit),
///   clamped below by the still-air heat-sink conductance `g_HS`.
///
/// # Examples
///
/// ```
/// use oftec_thermal::FanModel;
/// use oftec_units::AngularVelocity;
///
/// let fan = FanModel::dac14();
/// let w = AngularVelocity::from_rpm(2000.0);
/// assert!(fan.conductance(w).w_per_k() > 4.0);
/// assert!(fan.power(w).watts() < 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FanModel {
    /// Cubic power-law constant `c` (J·s²).
    pub c: f64,
    /// Logarithmic fit slope `p` (W/K).
    pub p: f64,
    /// Dimensional normalizer `q` (s); the paper sets it to 1 s.
    pub q: f64,
    /// Logarithmic fit offset `r` (W/K).
    pub r: f64,
    /// Still-air heat-sink conductance `g_HS` (W/K), the floor of Eq. (9).
    pub g_hs_still: f64,
    /// Physical speed limit `ω_max`.
    pub omega_max: AngularVelocity,
}

impl FanModel {
    /// The constants the paper uses in §6.1:
    /// `c = 1.6e-7 J·s²` (from its reference \[11\]), `p = 0.97`, `q = 1 s`,
    /// `r = −0.25`, `g_HS = 0.525 W/K`, `ω_max = 5000 RPM`.
    pub fn dac14() -> Self {
        Self {
            c: 1.6e-7,
            p: 0.97,
            q: 1.0,
            r: -0.25,
            g_hs_still: 0.525,
            omega_max: AngularVelocity::from_rpm(5000.0),
        }
    }

    /// Fan power `c·ω³` (Eq. (8)).
    pub fn power(&self, omega: AngularVelocity) -> Power {
        omega.fan_power(self.c)
    }

    /// Combined heat-sink + fan conductance to ambient (Eq. (9)), clamped
    /// below by the still-air value. Monotone non-decreasing in ω.
    pub fn conductance(&self, omega: AngularVelocity) -> ThermalConductance {
        let w = omega.rad_per_s();
        let fitted = if w > 0.0 {
            self.p * (self.q * w).ln() + self.r
        } else {
            f64::NEG_INFINITY
        };
        ThermalConductance::from_w_per_k(fitted.max(self.g_hs_still))
    }

    /// `dP_fan/dω = 3c·ω²` (W per rad/s).
    pub fn power_slope(&self, omega: AngularVelocity) -> f64 {
        let w = omega.rad_per_s();
        3.0 * self.c * w * w
    }

    /// `dg/dω` of [`FanModel::conductance`] (W/K per rad/s): `p/ω` where
    /// the fit is above the still-air clamp, 0 where the clamp holds.
    pub fn conductance_slope(&self, omega: AngularVelocity) -> f64 {
        let w = omega.rad_per_s();
        if w > 0.0 && self.p * (self.q * w).ln() + self.r > self.g_hs_still {
            self.p / w
        } else {
            0.0
        }
    }

    /// The speed below which Eq. (9) is clamped to the still-air
    /// conductance.
    pub fn clamp_speed(&self) -> AngularVelocity {
        AngularVelocity::from_rad_per_s(((self.g_hs_still - self.r) / self.p).exp() / self.q)
    }

    /// Validates the model: positive constants and a monotone fit.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on unphysical values.
    pub fn assert_physical(&self) {
        assert!(self.c > 0.0, "fan power constant must be positive");
        assert!(self.p > 0.0, "conductance fit slope must be positive");
        assert!(self.q > 0.0, "normalizer must be positive");
        assert!(
            self.g_hs_still > 0.0,
            "still-air conductance must be positive"
        );
        assert!(
            self.omega_max.rad_per_s() > 0.0,
            "fan speed limit must be positive"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let f = FanModel::dac14();
        f.assert_physical();
        assert_eq!(f.c, 1.6e-7);
        assert!((f.omega_max.rad_per_s() - 523.6).abs() < 0.1);
    }

    #[test]
    fn power_at_known_speeds() {
        let f = FanModel::dac14();
        // 5000 RPM = 523.6 rad/s → 1.6e-7 · 523.6³ ≈ 23.0 W.
        assert!((f.power(AngularVelocity::from_rpm(5000.0)).watts() - 22.97).abs() < 0.1);
        // 2000 RPM ≈ 209.4 rad/s → ≈ 1.47 W.
        assert!((f.power(AngularVelocity::from_rpm(2000.0)).watts() - 1.47).abs() < 0.01);
        assert_eq!(f.power(AngularVelocity::ZERO), Power::ZERO);
    }

    #[test]
    fn conductance_at_known_speeds() {
        let f = FanModel::dac14();
        // ω_max: 0.97·ln(523.6) − 0.25 ≈ 5.82 W/K.
        let g_max = f.conductance(AngularVelocity::from_rpm(5000.0));
        assert!((g_max.w_per_k() - 5.82).abs() < 0.01);
        // 2000 RPM: 0.97·ln(209.4) − 0.25 ≈ 4.93 W/K.
        let g_2k = f.conductance(AngularVelocity::from_rpm(2000.0));
        assert!((g_2k.w_per_k() - 4.93).abs() < 0.01);
    }

    #[test]
    fn still_air_clamp() {
        let f = FanModel::dac14();
        assert_eq!(f.conductance(AngularVelocity::ZERO).w_per_k(), 0.525);
        let below = f.clamp_speed() * 0.5;
        assert_eq!(f.conductance(below).w_per_k(), 0.525);
        let above = f.clamp_speed() * 2.0;
        assert!(f.conductance(above).w_per_k() > 0.525);
    }

    #[test]
    fn conductance_monotone() {
        let f = FanModel::dac14();
        let mut last = 0.0;
        for rpm in (0..=5000).step_by(100) {
            let g = f
                .conductance(AngularVelocity::from_rpm(rpm as f64))
                .w_per_k();
            assert!(g >= last);
            last = g;
        }
    }

    #[test]
    fn slopes_match_central_differences() {
        let f = FanModel::dac14();
        for rpm in [800.0, 2000.0, 4999.0] {
            let w = AngularVelocity::from_rpm(rpm).rad_per_s();
            let h = 1e-4 * w;
            let at = AngularVelocity::from_rad_per_s;
            let dg = (f.conductance(at(w + h)).w_per_k() - f.conductance(at(w - h)).w_per_k())
                / (2.0 * h);
            let dp = (f.power(at(w + h)).watts() - f.power(at(w - h)).watts()) / (2.0 * h);
            assert!((f.conductance_slope(at(w)) - dg).abs() <= 1e-6 * dg);
            assert!((f.power_slope(at(w)) - dp).abs() <= 1e-6 * dp);
        }
        assert_eq!(f.conductance_slope(f.clamp_speed() * 0.99), 0.0);
        assert_eq!(f.conductance_slope(AngularVelocity::ZERO), 0.0);
        assert_eq!(f.power_slope(AngularVelocity::ZERO), 0.0);
    }

    #[test]
    fn clamp_speed_formula() {
        let f = FanModel::dac14();
        let w = f.clamp_speed();
        let g = f.p * (f.q * w.rad_per_s()).ln() + f.r;
        assert!((g - f.g_hs_still).abs() < 1e-9);
    }
}
