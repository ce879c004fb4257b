//! Power states, the WaveLAN-II energy model, and per-node accounting.

use rcast_engine::SimDuration;

/// The radio's power state over an accounting interval.
///
/// The paper (Section 4.2) uses a two-level model: idle listening,
/// receiving and transmitting all draw essentially the same power on a
/// WaveLAN-II card (1.15–1.5 W), while the doze state draws 0.045 W. We
/// keep transmit/receive distinct so the model can also express
/// asymmetric radios (e.g. the TR 1000 used in Berkeley motes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerState {
    /// Awake: idle listening (also the paper's receive/transmit power).
    Awake,
    /// Actively transmitting.
    Transmit,
    /// Actively receiving.
    Receive,
    /// Low-power doze.
    Sleep,
    /// Radio powered off entirely (crashed or battery-dead node); draws
    /// nothing, regardless of the model.
    Off,
}

impl PowerState {
    /// Every state, in meter-slot order.
    pub const ALL: [PowerState; 5] = [
        PowerState::Awake,
        PowerState::Transmit,
        PowerState::Receive,
        PowerState::Sleep,
        PowerState::Off,
    ];

    /// Stable lowercase label, used by the trace exporter. Never
    /// changes: `rcast-trace/v1` output depends on it byte-for-byte.
    pub const fn label(self) -> &'static str {
        match self {
            PowerState::Awake => "awake",
            PowerState::Transmit => "tx",
            PowerState::Receive => "rx",
            PowerState::Sleep => "sleep",
            PowerState::Off => "off",
        }
    }
}

/// Power draw per state, watts.
///
/// # Example
///
/// ```
/// use rcast_radio::{EnergyModel, PowerState};
///
/// let m = EnergyModel::wavelan_ii();
/// assert_eq!(m.power_w(PowerState::Awake), 1.15);
/// assert_eq!(m.power_w(PowerState::Sleep), 0.045);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Idle-listening power, watts.
    pub idle_w: f64,
    /// Transmit power, watts.
    pub tx_w: f64,
    /// Receive power, watts.
    pub rx_w: f64,
    /// Doze power, watts.
    pub sleep_w: f64,
}

impl EnergyModel {
    /// The paper's Lucent WaveLAN-II profile: 1.15 W awake
    /// (idle = rx = tx, per Section 4.2), 0.045 W doze.
    pub fn wavelan_ii() -> Self {
        EnergyModel {
            idle_w: 1.15,
            tx_w: 1.15,
            rx_w: 1.15,
            sleep_w: 0.045,
        }
    }

    /// The RFM TR 1000 profile cited in the introduction: 13.5 mW receive
    /// /idle, 0.015 mW doze (transmit ~24.75 mW at full power).
    pub fn tr1000() -> Self {
        EnergyModel {
            idle_w: 0.0135,
            tx_w: 0.02475,
            rx_w: 0.0135,
            sleep_w: 0.000_015,
        }
    }

    /// Power draw in a given state, watts.
    pub fn power_w(&self, state: PowerState) -> f64 {
        match state {
            PowerState::Awake => self.idle_w,
            PowerState::Transmit => self.tx_w,
            PowerState::Receive => self.rx_w,
            PowerState::Sleep => self.sleep_w,
            PowerState::Off => 0.0,
        }
    }

    /// Awake-to-sleep power ratio (the paper quotes 25–900× across
    /// hardware).
    pub fn awake_sleep_ratio(&self) -> f64 {
        self.idle_w / self.sleep_w
    }

    /// Validates that every state draws positive finite power.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending value.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("idle", self.idle_w),
            ("tx", self.tx_w),
            ("rx", self.rx_w),
            ("sleep", self.sleep_w),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} power must be positive: {v}"));
            }
        }
        if self.sleep_w > self.idle_w {
            return Err("sleep power exceeds idle power".into());
        }
        Ok(())
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::wavelan_ii()
    }
}

/// Integrates energy for one node: joules per power state.
///
/// The simulator calls [`accumulate`](EnergyMeter::accumulate) once per
/// accounting interval (a beacon interval, or an AM segment). The meter
/// keeps per-state time so reports can break consumption down.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    model: EnergyModel,
    /// Seconds spent per state: [awake, tx, rx, sleep, off].
    secs: [f64; 5],
}

impl EnergyMeter {
    /// A meter with nothing accumulated.
    pub fn new(model: EnergyModel) -> Self {
        EnergyMeter {
            model,
            secs: [0.0; 5],
        }
    }

    fn slot(state: PowerState) -> usize {
        match state {
            PowerState::Awake => 0,
            PowerState::Transmit => 1,
            PowerState::Receive => 2,
            PowerState::Sleep => 3,
            PowerState::Off => 4,
        }
    }

    /// Adds `dur` spent in `state`.
    pub fn accumulate(&mut self, state: PowerState, dur: SimDuration) {
        self.secs[Self::slot(state)] += dur.as_secs_f64();
    }

    /// Total energy consumed so far, joules.
    pub fn total_joules(&self) -> f64 {
        self.secs[0] * self.model.idle_w
            + self.secs[1] * self.model.tx_w
            + self.secs[2] * self.model.rx_w
            + self.secs[3] * self.model.sleep_w
    }

    /// Seconds spent in a state.
    pub fn seconds_in(&self, state: PowerState) -> f64 {
        self.secs[Self::slot(state)]
    }

    /// Total accounted wall-clock seconds (all states).
    pub fn total_seconds(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// Fraction of accounted time spent asleep, in `[0, 1]`; zero when
    /// nothing has been accumulated.
    pub fn sleep_fraction(&self) -> f64 {
        let total = self.total_seconds();
        if total == 0.0 {
            0.0
        } else {
            self.secs[3] / total
        }
    }

    /// The model this meter integrates against.
    pub fn model(&self) -> EnergyModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelan_matches_paper_numbers() {
        let m = EnergyModel::wavelan_ii();
        assert_eq!(m.power_w(PowerState::Awake), 1.15);
        assert_eq!(m.power_w(PowerState::Transmit), 1.15);
        assert_eq!(m.power_w(PowerState::Receive), 1.15);
        assert_eq!(m.power_w(PowerState::Sleep), 0.045);
        // 1.15 / 0.045 ≈ 25.6 — the paper's "25 times" lower bound.
        assert!((m.awake_sleep_ratio() - 25.56).abs() < 0.1);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn tr1000_ratio_is_huge() {
        let m = EnergyModel::tr1000();
        // The paper quotes up to 900x; TR1000 is 13.5 mW / 0.015 mW = 900.
        assert!((m.awake_sleep_ratio() - 900.0).abs() < 1.0);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn always_awake_node_energy_matches_paper_figure5() {
        // The paper: 1.15 W × 1125 s = 1293.75 J for every 802.11 node.
        let mut meter = EnergyMeter::new(EnergyModel::wavelan_ii());
        meter.accumulate(PowerState::Awake, SimDuration::from_secs(1125));
        assert!((meter.total_joules() - 1293.75).abs() < 1e-9);
    }

    #[test]
    fn psm_idle_node_energy_matches_paper_figure5d() {
        // The paper's fig 5(d) arithmetic for an idle PS node:
        // awake 1.15 W × 225 s (ATIM windows) + 0.045 W × 900 s = 299.25 J.
        let mut meter = EnergyMeter::new(EnergyModel::wavelan_ii());
        meter.accumulate(PowerState::Awake, SimDuration::from_secs(225));
        meter.accumulate(PowerState::Sleep, SimDuration::from_secs(900));
        assert!((meter.total_joules() - 299.25).abs() < 1e-9);
    }

    #[test]
    fn meter_tracks_states_separately() {
        let mut meter = EnergyMeter::new(EnergyModel::wavelan_ii());
        meter.accumulate(PowerState::Transmit, SimDuration::from_millis(500));
        meter.accumulate(PowerState::Sleep, SimDuration::from_millis(1500));
        assert_eq!(meter.seconds_in(PowerState::Transmit), 0.5);
        assert_eq!(meter.seconds_in(PowerState::Sleep), 1.5);
        assert_eq!(meter.seconds_in(PowerState::Awake), 0.0);
        assert_eq!(meter.total_seconds(), 2.0);
        assert!((meter.sleep_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn off_state_accounts_time_but_no_energy() {
        let mut meter = EnergyMeter::new(EnergyModel::wavelan_ii());
        meter.accumulate(PowerState::Off, SimDuration::from_secs(100));
        meter.accumulate(PowerState::Awake, SimDuration::from_secs(10));
        assert_eq!(meter.seconds_in(PowerState::Off), 100.0);
        assert_eq!(meter.total_seconds(), 110.0);
        assert!((meter.total_joules() - 11.5).abs() < 1e-12);
        assert_eq!(EnergyModel::wavelan_ii().power_w(PowerState::Off), 0.0);
    }

    #[test]
    fn empty_meter() {
        let meter = EnergyMeter::new(EnergyModel::default());
        assert_eq!(meter.total_joules(), 0.0);
        assert_eq!(meter.sleep_fraction(), 0.0);
    }

    #[test]
    fn invalid_model_rejected() {
        let m = EnergyModel {
            idle_w: 0.0,
            ..EnergyModel::wavelan_ii()
        };
        assert!(m.validate().is_err());
        let m2 = EnergyModel {
            sleep_w: 2.0,
            ..EnergyModel::wavelan_ii()
        };
        assert!(m2.validate().is_err());
    }
}
