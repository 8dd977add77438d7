//! Transient simulation of the SFQ/DC current generator (Fig 4).
//!
//! The paper drives flux-tunable CZ gates with an in-fridge current
//! generator: an array of SFQ/DC converters feeding an R1–C1–R2 network
//! into a superconducting microstrip flex line (Fig 4a), simulated there
//! with JSIM. This module substitutes a lumped-element ODE of the same
//! schematic (a circuit-level JJ simulator is out of scope, and Fig 4
//! needs only the output current waveform): the SFQ/DC blocks form a series
//! voltage stack (a standard RSFQ driver idiom — each enabled block adds
//! its few-µV DC output), driving R1 → C1 shunt → R2 and the flex-line
//! inductance `L`:
//!
//! ```text
//! C1·dVc/dt = (n_on(t)·V_s − Vc)/R1 − I_L
//! L·dI_L/dt = Vc − R2·I_L
//! ```
//!
//! Blocks are enabled/disabled sequentially (one per `stagger_ns`), which
//! together with the L/R pole reproduces the ~10 ns rise of the published
//! waveform (Fig 4b: ≈1.2 mA plateau within a 60 ns window for 25 blocks,
//! R1 = R2 = 0.05 Ω, C1 = 10 nF).
//!
//! # Examples
//!
//! ```
//! use sfq_hw::analog::CurrentGenerator;
//!
//! let wave = CurrentGenerator::paper_fig4().simulate(70.0, 0.25);
//! let peak = wave.samples_ma.iter().cloned().fold(0.0, f64::max);
//! assert!((peak - 1.2).abs() < 0.1);
//! ```

/// Configuration of the SFQ/DC current generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurrentGenerator {
    /// Number of SFQ/DC blocks (paper: 25).
    pub n_blocks: usize,
    /// Open-circuit source voltage per block in µV (sets the plateau).
    pub v_source_uv: f64,
    /// Series resistance per block branch, Ω (paper: 0.05).
    pub r1_ohm: f64,
    /// Damping resistance to the load, Ω (paper: 0.05).
    pub r2_ohm: f64,
    /// Shunt capacitance, nF (paper: 10).
    pub c1_nf: f64,
    /// Flex-line (load loop) inductance, nH.
    pub l_nh: f64,
    /// Delay between consecutive block enables, ns.
    pub stagger_ns: f64,
    /// Time at which the start trigger arrives, ns.
    pub start_ns: f64,
    /// Time at which the stop trigger arrives, ns (blocks disable with the
    /// same stagger).
    pub stop_ns: f64,
}

impl CurrentGenerator {
    /// The Fig 4 configuration: 25 blocks, R1 = R2 = 0.05 Ω, C1 = 10 nF,
    /// staggered enables producing a ~10 ns rise to ≈1.2 mA, start at
    /// 5 ns, stop at 55 ns (≈60 ns CZ window).
    pub fn paper_fig4() -> Self {
        // Plateau: I∞ = n·Vs/(R1+R2) = 1.2 mA ⇒ Vs = 1.2 mA·0.1 Ω/25
        // = 4.8 µV per block (the µV scale of a single SFQ/DC output).
        CurrentGenerator {
            n_blocks: 25,
            v_source_uv: 4.8,
            r1_ohm: 0.05,
            r2_ohm: 0.05,
            c1_nf: 10.0,
            l_nh: 0.4,
            stagger_ns: 0.4,
            start_ns: 5.0,
            stop_ns: 55.0,
        }
    }

    /// Steady-state load current with all blocks on, in mA:
    /// `I∞ = n·Vs/(R1+R2)` — linear in the enabled block count, which is
    /// how the array modulates flux amplitude.
    pub fn plateau_ma(&self) -> f64 {
        let n = self.n_blocks as f64;
        n * self.v_source_uv / (self.r1_ohm + self.r2_ohm) * 1e-3
    }

    /// Number of enabled blocks at time `t_ns`.
    pub fn blocks_on(&self, t_ns: f64) -> usize {
        let ramp = |since: f64| -> usize {
            if since < 0.0 {
                0
            } else {
                ((since / self.stagger_ns).floor() as usize + 1).min(self.n_blocks)
            }
        };
        let on = ramp(t_ns - self.start_ns);
        let off = ramp(t_ns - self.stop_ns);
        on.saturating_sub(off)
    }

    /// Simulates the load current from `t = 0` to `t_end_ns`, sampled
    /// every `dt_ns`, using forward-Euler sub-steps well below the
    /// electrical time constant.
    ///
    /// # Panics
    ///
    /// Panics if `dt_ns <= 0` or `t_end_ns <= 0`.
    pub fn simulate(&self, t_end_ns: f64, dt_ns: f64) -> CurrentWaveform {
        assert!(dt_ns > 0.0 && t_end_ns > 0.0);
        let n_samples = (t_end_ns / dt_ns).ceil() as usize;
        // Sub-step well below the fastest pole (τ_cap = R1·C1) for
        // forward-Euler stability.
        let tau_cap = self.r1_ohm * self.c1_nf; // Ω·nF = ns
        let tau_l = self.l_nh / (self.r1_ohm + self.r2_ohm); // nH/Ω = ns
        let tau_min = tau_cap.min(tau_l).max(1e-4);
        let sub = ((dt_ns / (tau_min / 20.0)).ceil() as usize).max(1);
        let h = dt_ns / sub as f64;

        let mut vc = 0.0f64; // capacitor voltage in µV
        let mut il = 0.0f64; // load current in µA
        let mut samples = Vec::with_capacity(n_samples);
        for k in 0..n_samples {
            for s in 0..sub {
                let t = k as f64 * dt_ns + s as f64 * h;
                let n_on = self.blocks_on(t) as f64;
                // Units are self-consistent: µV/Ω = µA; nF·µV/ns = µA;
                // nH·µA/ns = µV.
                let dvc = ((n_on * self.v_source_uv - vc) / self.r1_ohm - il) / self.c1_nf;
                let dil = (vc - self.r2_ohm * il) / self.l_nh;
                vc += dvc * h;
                il += dil * h;
            }
            samples.push(il * 1e-3); // µA → mA
        }
        CurrentWaveform {
            dt_ns,
            samples_ma: samples,
        }
    }
}

/// A sampled load-current waveform.
#[derive(Debug, Clone, PartialEq)]
pub struct CurrentWaveform {
    /// Sample spacing in ns.
    pub dt_ns: f64,
    /// Load current per sample in mA.
    pub samples_ma: Vec<f64>,
}

impl CurrentWaveform {
    /// Total duration in ns.
    pub fn duration_ns(&self) -> f64 {
        self.dt_ns * self.samples_ma.len() as f64
    }

    /// Peak current in mA.
    pub fn peak_ma(&self) -> f64 {
        self.samples_ma.iter().cloned().fold(0.0, f64::max)
    }

    /// 10%→90% rise time in ns, or `None` if the waveform never reaches
    /// 90% of peak.
    pub fn rise_time_ns(&self) -> Option<f64> {
        let peak = self.peak_ma();
        if peak <= 0.0 {
            return None;
        }
        let t10 = self.samples_ma.iter().position(|&v| v >= 0.1 * peak)? as f64 * self.dt_ns;
        let t90 = self.samples_ma.iter().position(|&v| v >= 0.9 * peak)? as f64 * self.dt_ns;
        Some(t90 - t10)
    }

    /// Duration (ns) spent above 90% of peak — the usable flux plateau.
    pub fn plateau_ns(&self) -> f64 {
        let peak = self.peak_ma();
        self.samples_ma.iter().filter(|&&v| v >= 0.9 * peak).count() as f64 * self.dt_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plateau_matches_fig4b() {
        let gen = CurrentGenerator::paper_fig4();
        assert!((gen.plateau_ma() - 1.2).abs() < 0.01);
        let wave = gen.simulate(70.0, 0.25);
        assert!(
            (wave.peak_ma() - 1.2).abs() < 0.06,
            "peak {}",
            wave.peak_ma()
        );
    }

    #[test]
    fn rise_time_is_about_ten_ns() {
        // Fig 4b shows the current climbing over roughly 10 ns.
        let wave = CurrentGenerator::paper_fig4().simulate(70.0, 0.1);
        let rise = wave.rise_time_ns().expect("reaches plateau");
        assert!(
            (4.0..14.0).contains(&rise),
            "rise time {rise:.1} ns out of Fig 4b range"
        );
    }

    #[test]
    fn waveform_window_is_sixty_ns() {
        let gen = CurrentGenerator::paper_fig4();
        let wave = gen.simulate(80.0, 0.1);
        // Above-threshold window ≈ stop − start = 50 ns plateau plus ramps.
        let above: f64 = wave.samples_ma.iter().filter(|&&v| v > 0.06).count() as f64 * wave.dt_ns;
        assert!((45.0..70.0).contains(&above), "active window {above:.1} ns");
    }

    #[test]
    fn current_is_zero_before_start_and_after_settle() {
        let gen = CurrentGenerator::paper_fig4();
        let wave = gen.simulate(80.0, 0.1);
        let idx = |t: f64| (t / wave.dt_ns) as usize;
        assert!(wave.samples_ma[idx(4.0)].abs() < 1e-6);
        assert!(wave.samples_ma[idx(79.0)].abs() < 0.08);
    }

    #[test]
    fn blocks_ramp_sequentially() {
        let gen = CurrentGenerator::paper_fig4();
        assert_eq!(gen.blocks_on(0.0), 0);
        assert_eq!(gen.blocks_on(5.0), 1);
        assert_eq!(gen.blocks_on(5.9), 3);
        assert_eq!(gen.blocks_on(20.0), 25);
        // During shutdown the count ramps back down.
        assert!(gen.blocks_on(55.5) < 25);
        assert_eq!(gen.blocks_on(70.0), 0);
    }

    #[test]
    fn fewer_blocks_less_current() {
        let mut gen = CurrentGenerator::paper_fig4();
        gen.n_blocks = 10;
        // Amplitude is linear in block count: 10/25 of 1.2 mA.
        assert!((gen.plateau_ma() - 0.48).abs() < 1e-9);
        let wave = gen.simulate(70.0, 0.25);
        assert!(wave.peak_ma() < 0.6);
    }

    #[test]
    fn plateau_duration_reasonable() {
        let wave = CurrentGenerator::paper_fig4().simulate(80.0, 0.1);
        let p = wave.plateau_ns();
        assert!((30.0..55.0).contains(&p), "plateau {p:.1} ns");
    }

    #[test]
    fn waveform_duration_accessor() {
        let wave = CurrentGenerator::paper_fig4().simulate(70.0, 0.5);
        assert!((wave.duration_ns() - 70.0).abs() < 0.5);
    }
}
