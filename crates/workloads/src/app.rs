//! Generic phase-machine application model.
//!
//! An application is a cyclic (or one-shot) sequence of [`PhaseSpec`]s.
//! Within a phase, work arrives in *frames*: every `frame_period_ms`
//! the application enqueues `rate_gips · frame_period` instructions into
//! a backlog, which it then drains as fast as the hardware allows. This
//! frame-granular arrival is what makes CPU load *bursty* — the signal
//! the `interactive` governor overreacts to, producing the paper's
//! Fig. 1/4 histograms.
//!
//! On top of the phases sit [`TouchSpec`] (Poisson user interactions)
//! and [`EventSpec`]s (periodic happenings such as AngryBirds
//! advertisements, Spotify song changes or e-book page turns) that add
//! power draw and enqueue extra work for a bounded duration.
//!
//! The model books demand once per window of `quantum_ms` simulated ms
//! ([`PhasedApp::with_quantum`]); a 1 ms window is the exact per-ms model.

use crate::background::BackgroundLoad;
use asgov_soc::{Demand, Executed, Workload};
use asgov_util::Rng;

/// One application phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpec {
    /// Phase label (for traces).
    pub name: &'static str,
    /// Phase length, ms. Phases cycle; a single phase of any duration
    /// behaves as steady-state.
    pub duration_ms: u64,
    /// Average work arrival rate, GIPS. For [`AppKind::Batch`]
    /// applications this is ignored — work is unbounded until done.
    pub rate_gips: f64,
    /// Work arrival granularity, ms (frame period; 0 = continuous).
    pub frame_period_ms: u64,
    /// Relative jitter of per-frame work (0 = uniform frames; 0.5 means
    /// frames vary ±50 %). Heavy frames are what bounce the
    /// `interactive` governor to its hispeed frequency.
    pub rate_jitter: f64,
    /// Peak per-core IPC of this phase's instruction mix.
    pub ipc0: f64,
    /// Bus bytes per instruction of this phase.
    pub bytes_per_instr: f64,
    /// Pipeline GIPS cap (hardware decoder etc.), if any.
    pub gips_cap: Option<f64>,
    /// Whether hitting the cap keeps the CPU busy (dependency stalls)
    /// or idles it (I/O / hardware waits). See `asgov_soc::Demand`.
    pub cap_busy: bool,
    /// Cores this phase can keep busy.
    pub active_cores: f64,
    /// Constant extra device power during this phase, watts (camera,
    /// hardware decoder).
    pub extra_power_w: f64,
    /// Constant extra bus traffic during this phase (streaming DMA,
    /// network buffers), MBps.
    pub extra_traffic_mbps: f64,
    /// GPU render work per tick, GHz-equivalents (0 = GPU unused).
    pub gpu_work_ghz: f64,
}

impl Default for PhaseSpec {
    fn default() -> Self {
        Self {
            name: "phase",
            duration_ms: 1_000,
            rate_gips: 0.1,
            frame_period_ms: 17,
            rate_jitter: 0.0,
            ipc0: 1.5,
            bytes_per_instr: 1.0,
            gips_cap: None,
            cap_busy: false,
            active_cores: 2.0,
            extra_power_w: 0.0,
            extra_traffic_mbps: 0.0,
            gpu_work_ghz: 0.0,
        }
    }
}

/// Poisson touch-event generator (user interactions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TouchSpec {
    /// Mean touches per second.
    pub rate_per_s: f64,
    /// Extra work enqueued per touch (UI response), giga-instructions.
    pub work_gi: f64,
}

/// A periodic application event (advertisement, song change, page turn).
#[derive(Debug, Clone, PartialEq)]
pub struct EventSpec {
    /// Event label.
    pub name: &'static str,
    /// Period between event starts, ms.
    pub period_ms: u64,
    /// Event duration, ms.
    pub duration_ms: u64,
    /// Extra device power while the event is active, watts.
    pub power_w: f64,
    /// Extra work enqueued at event start, giga-instructions.
    pub work_gi: f64,
    /// Additional bus traffic while the event is active (asset
    /// streaming, DMA), MBps. Contends with the application for the bus
    /// and drives the `cpubw_hwmon` governor's vote up.
    pub extra_traffic_mbps: f64,
}

/// Whether the application has a fixed amount of work or runs at a rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AppKind {
    /// Fixed total work (giga-instructions); the app finishes when done
    /// and its figure of merit is execution time (VidCon).
    Batch {
        /// Total work, giga-instructions.
        total_gi: f64,
    },
    /// Rate-based: runs until the harness stops it; figure of merit is
    /// GIPS.
    Interactive,
}

/// Full application specification.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Application name (matches the paper).
    pub name: &'static str,
    /// Batch or rate-based.
    pub kind: AppKind,
    /// Cyclic phase list (must be non-empty).
    pub phases: Vec<PhaseSpec>,
    /// Optional touch generator.
    pub touch: Option<TouchSpec>,
    /// Periodic events.
    pub events: Vec<EventSpec>,
    /// Frequency indices (0-based, inclusive) usable in the offline
    /// profile — the paper excludes per-app ranges (WeChat's camera
    /// fails below f3; MX Player stutters below f5; VidCon loses > 50 %
    /// below f7).
    pub profile_freq_range: (usize, usize),
    /// Maximum frames of backlog kept before work is dropped (frame
    /// dropping under overload); `None` = unbounded (batch).
    pub max_backlog_frames: Option<f64>,
    /// Default wall-clock test duration used by the experiments, ms
    /// (the paper plays AngryBirds 200 s, calls WeChat 100 s, …).
    pub test_duration_ms: u64,
}

/// Executable application model: an [`AppSpec`] plus runtime state.
///
/// Implements [`Workload`]; create it via the constructors in
/// [`crate::apps`] or from a custom spec with [`PhasedApp::new`].
///
/// # Example
///
/// ```
/// use asgov_soc::{sim, Device, DeviceConfig};
/// use asgov_workloads::{apps, BackgroundLoad};
///
/// let mut device = Device::new(DeviceConfig::nexus6());
/// let mut game = apps::angrybirds(BackgroundLoad::baseline(1));
/// let report = sim::run(&mut device, &mut game, &mut [], 5_000);
/// // At the boot configuration (f1, bw1) the game is capability-bound
/// // near its profiled base speed.
/// assert!(report.avg_gips > 0.05 && report.avg_gips < 0.25);
/// ```
#[derive(Debug, Clone)]
pub struct PhasedApp {
    spec: AppSpec,
    background: BackgroundLoad,
    rng: Rng,
    phase_idx: usize,
    phase_elapsed_ms: u64,
    frame_backlog_gi: f64,
    event_backlog_gi: f64,
    executed_gi: f64,
    next_frame_ms: u64,
    seed: u64,
    /// Demand quantum, ms (see [`PhasedApp::with_quantum`]).
    quantum_ms: u64,
    /// The quantum in seconds (exactly `1e-3` at quantum 1).
    window_s: f64,
    /// `1 / quantum_ms`, the weight of one millisecond of a window.
    inv_quantum: f64,
    /// The current demand window `[window_from_ms, window_until_ms)`;
    /// both ends are multiples of the quantum, and the window is empty
    /// before the first demand.
    window_from_ms: u64,
    window_until_ms: u64,
    /// Demand of the current window.
    window_demand: Demand,
    /// Active event instances `(index, start, end)`.
    active_events: Vec<(usize, u64, u64)>,
}

impl PhasedApp {
    /// Build an application from a spec, a background-load generator and
    /// an RNG seed (touch timing, jitter).
    ///
    /// # Panics
    ///
    /// Panics if the spec has no phases or an inverted profile range.
    pub fn new(spec: AppSpec, background: BackgroundLoad, seed: u64) -> Self {
        assert!(!spec.phases.is_empty(), "app spec must have phases");
        assert!(
            spec.profile_freq_range.0 <= spec.profile_freq_range.1,
            "inverted profile frequency range"
        );
        Self {
            spec,
            background,
            rng: Rng::seed_from_u64(seed),
            phase_idx: 0,
            phase_elapsed_ms: 0,
            frame_backlog_gi: 0.0,
            event_backlog_gi: 0.0,
            executed_gi: 0.0,
            next_frame_ms: 0,
            seed,
            quantum_ms: 1,
            window_s: 1e-3,
            inv_quantum: 1.0,
            window_from_ms: 0,
            window_until_ms: 0,
            window_demand: Demand::default(),
            active_events: Vec::new(),
        }
    }

    /// Set the demand quantum to `quantum_ms` (clamped to ≥ 1; default
    /// 1), before the first [`Workload::demand`]. The app books its
    /// demand once per window of `quantum_ms` ms anchored to multiples
    /// of the quantum, and [`Workload::next_event_ms`] advertises the
    /// window's end so the engine runs it as one span: frames due
    /// before the end arrive at the start, one jitter draw each; event
    /// power is weighted by overlap; one touch and one wander draw cover
    /// the window. A 1 ms window is the exact per-ms model. A batch
    /// app's finish stays ms-accurate through [`Workload::work_left_gi`].
    pub fn with_quantum(mut self, quantum_ms: u64) -> Self {
        self.quantum_ms = quantum_ms.max(1);
        self.window_s = self.quantum_ms as f64 * 1e-3;
        self.inv_quantum = 1.0 / self.quantum_ms as f64;
        self.window_from_ms = 0;
        self.window_until_ms = 0;
        self
    }

    fn is_batch(&self) -> bool {
        matches!(self.spec.kind, AppKind::Batch { .. })
    }

    /// The specification.
    pub fn spec(&self) -> &AppSpec {
        &self.spec
    }

    /// Total work executed so far, giga-instructions.
    pub fn executed_gi(&self) -> f64 {
        self.executed_gi
    }

    /// Current backlog, giga-instructions (frame + event work).
    pub fn backlog_gi(&self) -> f64 {
        self.frame_backlog_gi + self.event_backlog_gi
    }

    /// Whether `now_ms` lies in the current demand window.
    fn in_window(&self, now_ms: u64) -> bool {
        now_ms.wrapping_sub(self.window_from_ms) < self.window_until_ms - self.window_from_ms
    }

    fn current_phase(&self) -> &PhaseSpec {
        // asgov-analyze: allow(hot-path-transitive): new() rejects an empty phase list, the spec is never mutated after, and phase_idx only takes 0 or (phase_idx + 1) % phases.len()
        &self.spec.phases[self.phase_idx]
    }

    /// Advance the phase clock by `ms` simulated milliseconds, crossing
    /// as many phase boundaries as the span covers. A phase lasts its
    /// `duration_ms`, and at least 1 ms.
    fn advance_phase_clock_by(&mut self, ms: u64) {
        self.phase_elapsed_ms += ms;
        loop {
            let dur = self.current_phase().duration_ms.max(1);
            if self.phase_elapsed_ms < dur {
                break;
            }
            self.phase_elapsed_ms -= dur;
            self.phase_idx = (self.phase_idx + 1) % self.spec.phases.len();
        }
    }

    /// Do the bookkeeping of the window containing `now_ms` and cache
    /// its [`Demand`], which [`Workload::demand`] then returns unchanged
    /// for every call inside the window — the piecewise-constancy the
    /// event engine's span contract requires.
    fn open_window(&mut self, now_ms: u64) -> Demand {
        let q = self.quantum_ms;
        // Windows are `[w0, w0 + q)` with `w0` a multiple of `q`; the
        // window right after the cached one needs no division.
        let w0 = if now_ms.wrapping_sub(self.window_until_ms) < q {
            self.window_until_ms
        } else {
            now_ms - now_ms % q
        };
        let w1 = w0 + q;
        self.window_from_ms = w0;
        self.window_until_ms = w1;
        let phase = *self.current_phase();
        let is_batch = self.is_batch();

        // Frame-granular work arrival (rate apps only): every frame due
        // before the window ends arrives at its start, one jitter draw
        // per frame, and the next frame is due one period after it.
        if !is_batch {
            if phase.frame_period_ms == 0 {
                self.frame_backlog_gi += phase.rate_gips * self.window_s;
            } else {
                while self.next_frame_ms < w1 {
                    let jitter = if phase.rate_jitter > 0.0 {
                        1.0 + self.rng.gen_range(-phase.rate_jitter..phase.rate_jitter)
                    } else {
                        1.0
                    };
                    self.frame_backlog_gi +=
                        phase.rate_gips * jitter * phase.frame_period_ms as f64 * 1e-3;
                    self.next_frame_ms = self.next_frame_ms.max(w0) + phase.frame_period_ms;
                }
            }
            // Frame dropping under overload (event work is never
            // dropped: advertisements and song changes always complete).
            if let Some(max_frames) = self.spec.max_backlog_frames {
                let granule = phase.frame_period_ms.max(q).max(1) as f64;
                let cap = phase.rate_gips * granule * 1e-3 * max_frames;
                if self.frame_backlog_gi > cap {
                    self.frame_backlog_gi = cap;
                }
            }
        }

        // Events start at the positive multiples of their period that
        // fall inside the window, anchored to absolute time.
        for (i, ev) in self.spec.events.iter().enumerate() {
            if ev.period_ms == 0 {
                continue;
            }
            let mut start = (w0.saturating_sub(1) / ev.period_ms + 1).saturating_mul(ev.period_ms);
            while start < w1 {
                self.active_events
                    .push((i, start, start.saturating_add(ev.duration_ms)));
                self.event_backlog_gi += ev.work_gi;
                start = start.saturating_add(ev.period_ms);
            }
        }
        self.active_events.retain(|&(_, _, end)| end > w0);

        let mut extra_power = phase.extra_power_w;
        let mut extra_traffic = phase.extra_traffic_mbps;
        for &(i, start, end) in &self.active_events {
            let Some(ev) = self.spec.events.get(i) else {
                continue;
            };
            let overlap = end.min(w1).saturating_sub(start.max(w0));
            let frac = overlap as f64 * self.inv_quantum;
            extra_power += ev.power_w * frac;
            extra_traffic += ev.extra_traffic_mbps * frac;
        }

        // Touches: one Poisson draw for the whole window.
        if let Some(t) = self.spec.touch {
            let p = (t.rate_per_s * self.window_s).clamp(0.0, 1.0);
            if self.rng.gen_bool(p) {
                self.event_backlog_gi += t.work_gi;
            }
        }

        // Drain the backlog over the window: delivering exactly
        // `backlog / window` clears it, and carried backlog raises the
        // request above the steady rate until the app catches up. Batch
        // work runs as fast as the hardware allows.
        let desired = if is_batch {
            None
        } else {
            Some((self.backlog_gi() / self.window_s).max(0.0))
        };
        let mut bg = self.background.demand_window(w0, q);
        bg.traffic_mbps += extra_traffic;
        let demand = Demand {
            ipc0: phase.ipc0,
            bytes_per_instr: phase.bytes_per_instr,
            gips_cap: phase.gips_cap,
            cap_busy: phase.cap_busy,
            desired_gips: desired,
            active_cores: phase.active_cores,
            extra_power_w: extra_power,
            gpu_work: phase.gpu_work_ghz,
            bg,
        };
        self.window_demand = demand;
        demand
    }
}

impl Workload for PhasedApp {
    fn name(&self) -> &str {
        self.spec.name
    }

    fn demand(&mut self, now_ms: u64) -> Demand {
        if self.in_window(now_ms) {
            return self.window_demand;
        }
        self.open_window(now_ms)
    }

    fn deliver(&mut self, now_ms: u64, executed: Executed) {
        self.deliver_span(now_ms, executed, 1);
    }

    fn finished(&self) -> bool {
        match self.spec.kind {
            AppKind::Batch { total_gi } => self.executed_gi >= total_gi,
            AppKind::Interactive => false,
        }
    }

    fn work_left_gi(&self) -> Option<f64> {
        match self.spec.kind {
            AppKind::Batch { total_gi } => Some(total_gi - self.executed_gi),
            AppKind::Interactive => None,
        }
    }

    fn reset(&mut self) {
        self.rng = Rng::seed_from_u64(self.seed);
        self.phase_idx = 0;
        self.phase_elapsed_ms = 0;
        self.frame_backlog_gi = 0.0;
        self.event_backlog_gi = 0.0;
        self.executed_gi = 0.0;
        self.next_frame_ms = 0;
        self.window_from_ms = 0;
        self.window_until_ms = 0;
        self.active_events.clear();
        self.background.reset();
    }

    fn next_event_ms(&self, now_ms: u64) -> u64 {
        // The window demand is constant (and draw-free) until the next
        // absolute quantum boundary.
        if self.in_window(now_ms) {
            self.window_until_ms
        } else {
            (now_ms / self.quantum_ms + 1).saturating_mul(self.quantum_ms)
        }
    }

    /// Book a span's work in one accumulator update. Event work drains
    /// first (it is what the user is waiting on), then frame work;
    /// batch apps keep no backlog.
    fn deliver_span(&mut self, _now_ms: u64, executed: Executed, span_ms: u64) {
        let gi = executed.instructions * span_ms as f64 / 1e9;
        self.executed_gi += gi;
        if !self.is_batch() {
            let from_events = gi.min(self.event_backlog_gi);
            self.event_backlog_gi -= from_events;
            self.frame_backlog_gi = (self.frame_backlog_gi - (gi - from_events)).max(0.0);
        }
        self.advance_phase_clock_by(span_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::background::BackgroundLoad;
    use asgov_soc::{sim, Device, DeviceConfig};

    fn device() -> Device {
        let mut cfg = DeviceConfig::nexus6();
        cfg.monitor_noise_w = 0.0;
        Device::new(cfg)
    }

    fn steady_spec(rate: f64) -> AppSpec {
        AppSpec {
            name: "steady",
            kind: AppKind::Interactive,
            phases: vec![PhaseSpec {
                rate_gips: rate,
                duration_ms: 1_000,
                ..PhaseSpec::default()
            }],
            touch: None,
            events: vec![],
            profile_freq_range: (0, 17),
            max_backlog_frames: Some(3.0),
            test_duration_ms: 10_000,
        }
    }

    #[test]
    fn rate_app_delivers_its_rate_when_hardware_suffices() {
        let mut dev = device();
        dev.set_cpu_governor("userspace");
        dev.set_cpu_freq(asgov_soc::FreqIndex(17));
        dev.set_mem_bw(asgov_soc::BwIndex(12));
        let mut app = PhasedApp::new(steady_spec(0.3), BackgroundLoad::none(1), 1);
        let report = sim::run(&mut dev, &mut app, &mut [], 5_000);
        assert!(
            (report.avg_gips - 0.3).abs() < 0.02,
            "expected ~0.3 GIPS, got {}",
            report.avg_gips
        );
    }

    #[test]
    fn rate_app_saturates_on_slow_hardware() {
        let mut dev = device(); // stays at lowest config
        dev.set_cpu_governor("userspace");
        let mut app = PhasedApp::new(steady_spec(5.0), BackgroundLoad::none(1), 1);
        let report = sim::run(&mut dev, &mut app, &mut [], 5_000);
        assert!(
            report.avg_gips < 2.0,
            "lowest config cannot deliver 5 GIPS, got {}",
            report.avg_gips
        );
        // Backlog must be bounded (frames dropped), not runaway.
        assert!(app.backlog_gi() < 1.0);
    }

    #[test]
    fn batch_app_finishes_and_reports() {
        let spec = AppSpec {
            name: "batch",
            kind: AppKind::Batch { total_gi: 0.5 },
            phases: vec![PhaseSpec {
                ipc0: 1.8,
                bytes_per_instr: 0.3,
                active_cores: 3.0,
                ..PhaseSpec::default()
            }],
            touch: None,
            events: vec![],
            profile_freq_range: (0, 17),
            max_backlog_frames: None,
            test_duration_ms: 60_000,
        };
        let mut dev = device();
        dev.set_cpu_governor("userspace");
        dev.set_cpu_freq(asgov_soc::FreqIndex(17));
        let mut app = PhasedApp::new(spec, BackgroundLoad::none(1), 1);
        let report = sim::run(&mut dev, &mut app, &mut [], 60_000);
        assert!(report.completed);
        assert!((app.executed_gi() - 0.5).abs() < 0.05);
    }

    #[test]
    fn events_add_power_and_work() {
        let mut spec = steady_spec(0.05);
        spec.events.push(EventSpec {
            name: "ad",
            period_ms: 2_000,
            duration_ms: 500,
            power_w: 0.5,
            work_gi: 0.05,
            extra_traffic_mbps: 300.0,
        });
        let mut dev = device();
        dev.set_cpu_governor("userspace");
        dev.set_cpu_freq(asgov_soc::FreqIndex(9));
        let mut app = PhasedApp::new(spec, BackgroundLoad::none(1), 1);

        let mut with_event = 0.0;
        let mut without_event = 0.0;
        let (mut n_with, mut n_without) = (0, 0);
        for _ in 0..6_000u64 {
            let now = dev.now_ms();
            let d = app.demand(now);
            let out = dev.tick(&d);
            app.deliver(now, out.executed);
            let in_event = now % 2_000 < 500 && now >= 2_000;
            if in_event {
                with_event += out.power.total_w();
                n_with += 1;
            } else {
                without_event += out.power.total_w();
                n_without += 1;
            }
        }
        let p_event = with_event / n_with as f64;
        let p_quiet = without_event / n_without as f64;
        assert!(
            p_event > p_quiet + 0.3,
            "ads should draw visibly more power: {p_event} vs {p_quiet}"
        );
    }

    /// Whether the demand window opened at `now` books a touch. Nothing
    /// is executed in the tests that ask, so a window raises the backlog
    /// by the frames it books (at most two frames of 0.05 GIPS · 17 ms,
    /// 0.0017 GI) plus the touch's work if one fires: a rise of over
    /// half a touch's work is a touch.
    fn books_a_touch(app: &mut PhasedApp, now: u64, touch: TouchSpec) -> bool {
        let before = app.backlog_gi();
        let _ = app.demand(now);
        app.backlog_gi() - before > touch.work_gi / 2.0
    }

    #[test]
    fn touches_fire_at_roughly_the_configured_rate() {
        let mut spec = steady_spec(0.05);
        let touch = TouchSpec {
            rate_per_s: 2.0,
            work_gi: 0.01,
        };
        spec.touch = Some(touch);
        let mut app = PhasedApp::new(spec, BackgroundLoad::none(1), 42);
        let mut touches = 0;
        for now in 0..60_000u64 {
            if books_a_touch(&mut app, now, touch) {
                touches += 1;
            }
            app.deliver(now, Executed::default());
        }
        let rate = touches as f64 / 60.0;
        assert!(
            (rate - 2.0).abs() < 0.5,
            "expected ~2 touches/s, got {rate}"
        );
    }

    #[test]
    fn phases_cycle() {
        let spec = AppSpec {
            name: "two-phase",
            kind: AppKind::Interactive,
            phases: vec![
                PhaseSpec {
                    name: "a",
                    duration_ms: 10,
                    rate_gips: 1.0,
                    ..PhaseSpec::default()
                },
                PhaseSpec {
                    name: "b",
                    duration_ms: 10,
                    rate_gips: 0.0,
                    ..PhaseSpec::default()
                },
            ],
            touch: None,
            events: vec![],
            profile_freq_range: (0, 17),
            max_backlog_frames: Some(2.0),
            test_duration_ms: 1_000,
        };
        let mut app = PhasedApp::new(spec, BackgroundLoad::none(1), 1);
        let mut names = Vec::new();
        for now in 0..40u64 {
            names.push(app.current_phase().name);
            app.demand(now);
            app.deliver(now, Executed::default());
        }
        assert_eq!(names[0], "a");
        assert_eq!(names[15], "b");
        assert_eq!(names[25], "a");
        assert_eq!(names[35], "b");
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut app = PhasedApp::new(steady_spec(0.3), BackgroundLoad::baseline(1), 9);
        for now in 0..100u64 {
            app.demand(now);
            app.deliver(
                now,
                Executed {
                    instructions: 1e6,
                    ..Executed::default()
                },
            );
        }
        assert!(app.executed_gi() > 0.0);
        app.reset();
        assert_eq!(app.executed_gi(), 0.0);
        assert_eq!(app.backlog_gi(), 0.0);
    }

    #[test]
    fn quantum_app_delivers_its_rate_when_hardware_suffices() {
        // A 16 ms quantum must deliver the rate the 1 ms quantum does
        // when the hardware can keep up.
        let mut dev = device();
        dev.set_cpu_governor("userspace");
        dev.set_cpu_freq(asgov_soc::FreqIndex(17));
        dev.set_mem_bw(asgov_soc::BwIndex(12));
        let mut app = PhasedApp::new(steady_spec(0.3), BackgroundLoad::none(1), 1).with_quantum(16);
        let report = asgov_soc::event::run(&mut dev, &mut app, &mut [], 5_000);
        assert!(
            (report.avg_gips - 0.3).abs() < 0.02,
            "expected ~0.3 GIPS, got {}",
            report.avg_gips
        );
    }

    #[test]
    fn quantum_run_is_deterministic_and_resettable() {
        let run = || {
            let mut dev = device();
            let mut app =
                PhasedApp::new(steady_spec(0.4), BackgroundLoad::heavy(9), 7).with_quantum(32);
            let r = asgov_soc::event::run(&mut dev, &mut app, &mut [], 4_000);
            (r.energy_j.to_bits(), r.avg_gips.to_bits())
        };
        assert_eq!(run(), run(), "same seed, same windowed trajectory");
        // reset() must replay the identical sequence on the same app.
        let mut app =
            PhasedApp::new(steady_spec(0.4), BackgroundLoad::heavy(9), 7).with_quantum(32);
        let mut dev = device();
        let a = asgov_soc::event::run(&mut dev, &mut app, &mut [], 4_000);
        app.reset();
        let mut dev2 = device();
        let b = asgov_soc::event::run(&mut dev2, &mut app, &mut [], 4_000);
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
    }

    #[test]
    fn quantum_touches_fire_at_roughly_the_configured_rate() {
        let mut spec = steady_spec(0.05);
        let touch = TouchSpec {
            rate_per_s: 2.0,
            work_gi: 0.01,
        };
        spec.touch = Some(touch);
        let q = 20u64;
        let mut app = PhasedApp::new(spec, BackgroundLoad::none(1), 42).with_quantum(q);
        let mut touch_windows = 0;
        let mut now = 0u64;
        while now < 60_000 {
            if books_a_touch(&mut app, now, touch) {
                touch_windows += 1;
            }
            app.deliver_span(now, Executed::default(), q);
            now += q;
        }
        // p(touch per window) = 2/s · 20 ms = 0.04 → ~120 windows.
        let rate = touch_windows as f64 / 60.0;
        assert!(
            (rate - 2.0).abs() < 0.6,
            "expected ~2 touch windows/s, got {rate}"
        );
    }

    /// A rate app with jittered frames, no touches, no events and no
    /// backlog cap, so its backlog is the sum of the frames that
    /// arrived.
    fn frames_only(phases: Vec<PhaseSpec>) -> AppSpec {
        AppSpec {
            name: "frames",
            kind: AppKind::Interactive,
            phases,
            touch: None,
            events: vec![],
            profile_freq_range: (0, 17),
            max_backlog_frames: None,
            test_duration_ms: 10_000,
        }
    }

    /// With nothing executed, a window of any quantum books the frames
    /// the 1 ms model books over the same milliseconds, with the same
    /// jitter draws in the same order: at every window boundary the
    /// backlog equals the quantum-1 app's bit for bit. The two-phase
    /// spec's 420 ms phases are a multiple of every quantum tested, so
    /// no window straddles a phase change.
    #[test]
    fn window_frames_match_the_quantum_one_backlog_bit_for_bit() {
        let phase = |name, frame_period_ms, rate_gips| PhaseSpec {
            name,
            duration_ms: 420,
            rate_gips,
            frame_period_ms,
            rate_jitter: 0.3,
            ..PhaseSpec::default()
        };
        let specs = [
            frames_only(vec![phase("one", 17, 0.3)]),
            frames_only(vec![phase("a", 17, 0.4), phase("b", 30, 0.15)]),
        ];
        for spec in specs {
            for q in [7u64, 20, 60] {
                let mut exact = PhasedApp::new(spec.clone(), BackgroundLoad::baseline(5), 3);
                let mut windowed =
                    PhasedApp::new(spec.clone(), BackgroundLoad::baseline(5), 3).with_quantum(q);
                let mut t = 0u64;
                for w0 in (0..2_520).step_by(q as usize) {
                    let _ = windowed.demand(w0);
                    windowed.deliver_span(w0, Executed::default(), q);
                    while t < w0 + q {
                        let _ = exact.demand(t);
                        exact.deliver(t, Executed::default());
                        t += 1;
                    }
                    assert_eq!(
                        windowed.backlog_gi().to_bits(),
                        exact.backlog_gi().to_bits(),
                        "{} q {q}: backlog at {t} ms",
                        spec.phases.len()
                    );
                }
            }
        }
    }

    #[test]
    fn quantum_events_still_arrive_and_add_power() {
        let mut spec = steady_spec(0.05);
        spec.events.push(EventSpec {
            name: "ad",
            period_ms: 2_000,
            duration_ms: 500,
            power_w: 0.5,
            work_gi: 0.05,
            extra_traffic_mbps: 300.0,
        });
        let q = 25u64;
        let mut app = PhasedApp::new(spec, BackgroundLoad::none(1), 1).with_quantum(q);
        let mut peak_power = 0.0f64;
        let mut quiet_power = f64::INFINITY;
        let mut now = 0u64;
        while now < 6_000 {
            let d = app.demand(now);
            if (2_000..2_500).contains(&now) {
                peak_power = peak_power.max(d.extra_power_w);
            }
            if (1_000..2_000).contains(&now) {
                quiet_power = quiet_power.min(d.extra_power_w);
            }
            app.deliver_span(now, Executed::default(), q);
            now += q;
        }
        assert!(
            peak_power > quiet_power + 0.4,
            "event power visible in 25 ms windows: {peak_power} vs {quiet_power}"
        );
    }

    /// A rate app with periodic events whose periods are not multiples
    /// of the test quanta (one is), under heavy load's sync bursts.
    fn evented_app(q: u64) -> PhasedApp {
        let mut spec = steady_spec(0.2);
        spec.touch = Some(TouchSpec {
            rate_per_s: 2.0,
            work_gi: 0.01,
        });
        for (period_ms, duration_ms) in [(13, 5), (45, 30), (140, 1), (1_001, 250)] {
            spec.events.push(EventSpec {
                name: "tick",
                period_ms,
                duration_ms,
                power_w: 0.1,
                work_gi: 0.001,
                extra_traffic_mbps: 5.0,
            });
        }
        PhasedApp::new(spec, BackgroundLoad::heavy(5), 9).with_quantum(q)
    }

    /// Drive `app` window by window over `[from, to)` the way the event
    /// engine does (demand, horizon, deliver), checking every horizon
    /// against the next quantum boundary and returning every event
    /// start `(event, start)` the windows booked.
    fn drive_windows(app: &mut PhasedApp, from: u64, to: u64) -> Vec<(usize, u64)> {
        let q = app.quantum_ms;
        let mut starts = Vec::new();
        let mut now = from;
        while now < to {
            let _ = app.demand(now);
            // Every event here lasts ≥ 1 ms, so a start booked by this
            // window is still listed after the window's `retain`.
            starts.extend(app.active_events.iter().map(|&(i, start, _)| (i, start)));
            let next = app.next_event_ms(now);
            assert_eq!(next, (now / q + 1) * q, "q {q}: horizon at {now}");
            app.deliver_span(now, Executed::default(), next - now);
            now = next;
        }
        starts.sort_unstable();
        starts.dedup();
        starts
    }

    /// The per-ms reference: every `t` in `[from, to)` with
    /// `t % period == 0` (t > 0) starts its event.
    fn scanned_starts(app: &PhasedApp, from: u64, to: u64) -> Vec<(usize, u64)> {
        let mut starts = Vec::new();
        for (i, ev) in app.spec().events.iter().enumerate() {
            for t in from.max(1)..to {
                if t % ev.period_ms == 0 {
                    starts.push((i, t));
                }
            }
        }
        starts.sort_unstable();
        starts
    }

    /// Windows book exactly the event starts of a per-ms scan, for quanta that do not divide the event periods, from
    /// time zero, on a clone first driven from an unaligned time, and
    /// across a mid-run `reset`.
    #[test]
    fn window_event_starts_match_a_per_ms_scan() {
        for q in [7u64, 20, 60] {
            let horizon = 6_000;
            let mut app = evented_app(q);
            let mut late = app.clone();
            let from = 5 * q + 3;
            assert_eq!(
                drive_windows(&mut late, from, horizon),
                scanned_starts(&late, from - from % q, horizon),
                "q {q}: clone driven from {from}"
            );
            assert_eq!(
                drive_windows(&mut app, 0, horizon),
                scanned_starts(&app, 0, horizon),
                "q {q}: from zero"
            );
            let mut again = evented_app(q);
            let _ = drive_windows(&mut again, 0, 1_234);
            again.reset();
            assert_eq!(
                drive_windows(&mut again, 0, horizon),
                scanned_starts(&again, 0, horizon),
                "q {q}: after reset"
            );
        }
    }

    #[test]
    #[should_panic(expected = "phases")]
    fn empty_spec_rejected() {
        let spec = AppSpec {
            name: "empty",
            kind: AppKind::Interactive,
            phases: vec![],
            touch: None,
            events: vec![],
            profile_freq_range: (0, 17),
            max_backlog_frames: None,
            test_duration_ms: 0,
        };
        let _ = PhasedApp::new(spec, BackgroundLoad::none(1), 1);
    }
}
