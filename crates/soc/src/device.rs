//! The simulated device: clock, CPU, memory bus, counters and actuation.
//!
//! [`Device`] advances in spans of whole 1 ms ticks
//! ([`Device::tick_span`]). Each tick it takes the foreground
//! application's [`Demand`], runs the roofline performance model at the
//! current (frequency, bandwidth) operating point, retires instructions
//! into the [`Pmu`], computes whole-device power through the
//! [`PowerModel`] and integrates it in the [`PowerMonitor`].
//!
//! Governors and controllers actuate the device either through the
//! in-kernel driver interface ([`Device::set_cpu_freq`] /
//! [`Device::set_mem_bw`]) or through the virtual sysfs tree
//! ([`Device::sysfs_write`]), which enforces the Linux rule that
//! `scaling_setspeed` only works under the `userspace` governor.

use crate::dvfs::{BwIndex, DvfsTable, FreqIndex};
use crate::faults::{FaultInjector, PerfFault};
use crate::gpu::{Gpu, GpuFreqIndex};
use crate::monitor::PowerMonitor;
use crate::pmu::Pmu;
use crate::power::{OpPoint, PowerBreakdown, PowerModel, PowerModelParams};
use crate::sysfs::{self, BW_GOVERNORS, CPU_GOVERNORS};
use crate::workload::{Demand, Executed};
use asgov_obs::{CycleRecord, DeviceEvent, TraceSink};
use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;

/// Duration of one simulation tick, milliseconds.
pub const TICK_MS: u64 = 1;

/// Energy charged per DVFS transition (driver + PLL relock), joules.
/// The paper reports ~14 mW of actuation power at the controller's
/// 200 ms-minimum switching cadence, i.e. ≈ 2.8 mJ per switch.
const TRANSITION_ENERGY_J: f64 = 2.8e-3;

/// Power of the idle WiFi radio, watts: its poll power per
/// packet-per-second (2·10⁻⁵ W) at the 1 000 pps service rate. It is
/// part of every tick's extra power.
const IDLE_RADIO_W: f64 = 2.0e-5 * 1_000.0;

/// Construction-time parameters of a [`Device`].
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// DVFS operating points.
    pub table: DvfsTable,
    /// Power model constants.
    pub power: PowerModelParams,
    /// Monsoon measurement noise, watts (σ).
    pub monitor_noise_w: f64,
    /// Number of online cores. `mpdecision` (hotplugging) is disabled in
    /// the paper's experiments, so all four Krait cores stay online.
    pub online_cores: f64,
    /// RNG seed for measurement noise.
    pub seed: u64,
    /// Fraction of memory-stall time the core overlaps with useful
    /// compute (0 = fully serialized, 1 = perfect overlap). Out-of-order
    /// Krait cores hide most but not all memory latency.
    pub mem_overlap: f64,
    /// Enable cpuidle-style deep sleep: idle core time sheds this
    /// fraction of CPU leakage (§I lists "greedily entering low power
    /// states" alongside DVFS; the paper's experiments leave it to the
    /// kernel, so the Table III calibration keeps it off — enable it
    /// for the corresponding ablation).
    pub cpuidle_leak_reduction: f64,
}

impl DeviceConfig {
    /// The Nexus 6 configuration used throughout the paper.
    pub fn nexus6() -> Self {
        Self {
            table: DvfsTable::nexus6(),
            power: PowerModelParams::nexus6(),
            monitor_noise_w: 0.004,
            online_cores: 4.0,
            seed: 0x6e657875, // "nexu"
            mem_overlap: 0.7,
            cpuidle_leak_reduction: 0.0,
        }
    }

    /// Same device, different noise seed (for averaging over runs).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::nexus6()
    }
}

/// What happened during one tick (returned to the harness and forwarded
/// to the workload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickOutcome {
    /// Foreground execution results.
    pub executed: Executed,
    /// Power breakdown for the tick.
    pub power: PowerBreakdown,
    /// Milliseconds the call advanced the clock: the requested span, or
    /// fewer when the workload's remaining work bounds it (see
    /// [`Device::tick_span`]).
    pub span_ms: u64,
}

/// Cumulative statistics snapshot (see [`Device::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceStats {
    /// Simulation time, ms.
    pub elapsed_ms: u64,
    /// Measured (Monsoon) energy, joules.
    pub energy_j: f64,
    /// Measured average power, watts.
    pub avg_power_w: f64,
    /// Retired foreground instructions.
    pub instructions: f64,
    /// Average foreground performance over the window, GIPS.
    pub avg_gips: f64,
    /// Milliseconds spent at each CPU frequency index.
    pub time_in_freq_ms: Vec<u64>,
    /// Milliseconds spent at each bandwidth index.
    pub time_in_bw_ms: Vec<u64>,
    /// Number of CPU frequency transitions.
    pub freq_transitions: u64,
    /// Number of bandwidth transitions.
    pub bw_transitions: u64,
}

impl DeviceStats {
    /// Fraction of time spent at each CPU frequency (sums to 1).
    pub fn freq_histogram(&self) -> Vec<f64> {
        normalize(&self.time_in_freq_ms)
    }

    /// Fraction of time spent at each bandwidth (sums to 1).
    pub fn bw_histogram(&self) -> Vec<f64> {
        normalize(&self.time_in_bw_ms)
    }
}

fn normalize(counts: &[u64]) -> Vec<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return vec![0.0; counts.len()];
    }
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

/// The simulated mobile device. See the module docs.
///
/// # Example
///
/// ```
/// use asgov_soc::{Device, DeviceConfig, Demand, FreqIndex};
///
/// let mut device = Device::new(DeviceConfig::nexus6());
/// device.set_cpu_governor("userspace");
/// device.set_cpu_freq(FreqIndex(9)); // the paper's f10, 1.4976 GHz
/// let out = device.tick(&Demand {
///     ipc0: 1.5,
///     desired_gips: Some(0.3),
///     active_cores: 2.0,
///     ..Demand::default()
/// });
/// assert!((out.executed.gips - 0.3).abs() < 1e-9);
/// assert!(out.power.total_w() > 0.8);
/// ```
#[derive(Debug, Clone)]
pub struct Device {
    table: DvfsTable,
    power_model: PowerModel,
    online_cores: f64,
    mem_overlap: f64,
    cpuidle_leak_reduction: f64,
    now_ms: u64,
    freq: FreqIndex,
    bw: BwIndex,
    // `power_model`'s terms at (`freq`, `bw`); refreshed by the only two
    // writers of those fields, `set_cpu_freq` and `set_mem_bw`.
    op: OpPoint,
    // Borrowed from the sysfs governor lists for every stock name.
    cpu_governor: Cow<'static, str>,
    bw_governor: Cow<'static, str>,
    gpu: Gpu,
    pmu: Pmu,
    monitor: PowerMonitor,
    // Extra monitors on the same power trace, one per added seed; empty
    // unless a caller asks for replicas (`add_replica_monitor`).
    replicas: Vec<PowerMonitor>,
    // cumulative signals governors sample and difference
    busy_core_ms: f64,
    busy_ms: f64,
    // statistics
    stats_start_ms: u64,
    instr_at_stats_start: f64,
    time_in_freq_ms: Vec<u64>,
    time_in_bw_ms: Vec<u64>,
    freq_transitions: u64,
    bw_transitions: u64,
    pending_transition_energy_j: f64,
    tool_load: f64,
    tool_power_w: f64,
    faults: Option<FaultInjector>,
    pending_kill: bool,
    obs: Option<Rc<RefCell<dyn TraceSink>>>,
    default_online_cores: f64,
}

impl Device {
    /// Create a device in its boot state: lowest frequency and bandwidth,
    /// `interactive` + `cpubw_hwmon` governors selected.
    pub fn new(cfg: DeviceConfig) -> Self {
        let nf = cfg.table.num_freqs();
        let nb = cfg.table.num_bws();
        let power_model = PowerModel::new(cfg.power);
        let op = power_model.op_point(&cfg.table, FreqIndex(0), BwIndex(0));
        Self {
            power_model,
            online_cores: cfg.online_cores,
            mem_overlap: cfg.mem_overlap.clamp(0.0, 1.0),
            cpuidle_leak_reduction: cfg.cpuidle_leak_reduction.clamp(0.0, 1.0),
            now_ms: 0,
            freq: FreqIndex(0),
            bw: BwIndex(0),
            op,
            cpu_governor: Cow::Borrowed("interactive"),
            bw_governor: Cow::Borrowed("cpubw_hwmon"),
            gpu: Gpu::adreno420(),
            pmu: Pmu::new(),
            monitor: PowerMonitor::new(cfg.monitor_noise_w, cfg.seed),
            replicas: Vec::new(),
            busy_core_ms: 0.0,
            busy_ms: 0.0,
            stats_start_ms: 0,
            instr_at_stats_start: 0.0,
            time_in_freq_ms: vec![0; nf],
            time_in_bw_ms: vec![0; nb],
            freq_transitions: 0,
            bw_transitions: 0,
            pending_transition_energy_j: 0.0,
            tool_load: 0.0,
            tool_power_w: 0.0,
            faults: None,
            pending_kill: false,
            obs: None,
            default_online_cores: cfg.online_cores,
            table: cfg.table,
        }
    }

    // ---- observation -------------------------------------------------

    /// Current simulation time, ms.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// The DVFS table.
    pub fn table(&self) -> &DvfsTable {
        &self.table
    }

    /// Current CPU frequency index.
    pub fn freq(&self) -> FreqIndex {
        self.freq
    }

    /// Current memory bandwidth index.
    pub fn bw(&self) -> BwIndex {
        self.bw
    }

    /// The PMU counters.
    pub fn pmu(&self) -> &Pmu {
        &self.pmu
    }

    /// The GPU.
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// The power monitor.
    pub fn monitor(&self) -> &PowerMonitor {
        &self.monitor
    }

    /// Attach a replica power monitor seeded `seed`: a second Monsoon
    /// on the same power trace, with the primary monitor's noise level
    /// and its own noise stream. Every span is booked into it exactly as
    /// into the primary monitor, and [`Device::reset_stats`] clears it,
    /// so after a run on an untouched device it holds the bits the
    /// primary monitor of a device seeded `seed` would hold after the
    /// same run. That holds because the seed reaches nothing but the
    /// monitor's noise and no policy or workload reads the monitor
    /// during a run (see [`Policy`](crate::Policy)): one simulated
    /// trajectory then stands for every seed's run. Add replicas before
    /// the device's first span.
    pub fn add_replica_monitor(&mut self, seed: u64) {
        self.replicas.push(self.monitor.replica(seed));
    }

    /// The replica monitors, in the order they were added.
    pub fn replica_monitors(&self) -> &[PowerMonitor] {
        &self.replicas
    }

    /// Number of online cores (all four unless hotplugging changed it).
    pub fn online_cores(&self) -> f64 {
        self.online_cores
    }

    /// Set the number of online cores (the `mpdecision` hotplug path).
    /// The paper disables hotplugging during its experiments because it
    /// perturbs measurements; it is available here for the same ablation.
    ///
    /// # Panics
    ///
    /// Panics unless `1.0 ≤ cores ≤ 4.0`.
    pub fn set_online_cores(&mut self, cores: f64) {
        assert!(
            (1.0..=4.0).contains(&cores),
            "online cores must be within 1..=4"
        );
        self.online_cores = cores;
    }

    /// Cumulative busy core-milliseconds (for load computation by
    /// sampling governors; analogous to `/proc/stat` busy time).
    pub fn busy_core_ms(&self) -> f64 {
        self.busy_core_ms
    }

    /// Cumulative busy milliseconds (time any runnable work occupied the
    /// CPU, memory stalls included) — the utilization signal sampled by
    /// load-based governors such as `interactive` and `ondemand`.
    pub fn busy_ms(&self) -> f64 {
        self.busy_ms
    }

    /// Currently selected cpufreq governor name.
    pub fn cpu_governor(&self) -> &str {
        &self.cpu_governor
    }

    /// Currently selected devfreq (memory bus) governor name.
    pub fn bw_governor(&self) -> &str {
        &self.bw_governor
    }

    // ---- fault injection ------------------------------------------------

    /// Install a deterministic fault injector (see [`crate::faults`]).
    /// Without one — or with an empty plan — the device behaves exactly
    /// as if the fault layer did not exist.
    pub fn install_faults(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// The installed fault injector, if any (for inspecting its
    /// [`stats`](FaultInjector::stats) after a run).
    pub fn faults(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// Consume a pending [`FaultKind::ControllerKill`](crate::FaultKind::ControllerKill)
    /// event: `true` exactly once per fired kill, after which the latch
    /// clears. A supervising harness polls this after each tick to
    /// learn that the controller process it shepherds has just died;
    /// with no injector (or no kill window) it is always `false` and
    /// touches nothing.
    pub fn take_pending_kill(&mut self) -> bool {
        std::mem::take(&mut self.pending_kill)
    }

    /// Whether a checkpoint image written at the current millisecond is
    /// corrupted by an active
    /// [`FaultKind::CheckpointCorrupt`](crate::FaultKind::CheckpointCorrupt)
    /// window. Probability-gated from the injector's RNG stream — call
    /// it only when a checkpoint is actually written, so replays stay
    /// aligned.
    pub fn draw_checkpoint_corrupt(&mut self) -> bool {
        let now = self.now_ms;
        self.faults
            .as_mut()
            .is_some_and(|f| f.checkpoint_corrupt(now))
    }

    /// Whether a snapshot restore attempted at the current millisecond
    /// observes a clock jump
    /// ([`FaultKind::ClockJump`](crate::FaultKind::ClockJump) window) —
    /// the checkpoint's time anchor cannot be trusted and a supervisor
    /// must fall back to a cold restart. Probability-gated from the
    /// injector's RNG stream — call it only when a restore is actually
    /// attempted.
    pub fn draw_clock_jump(&mut self) -> bool {
        let now = self.now_ms;
        self.faults.as_mut().is_some_and(|f| f.clock_jump(now))
    }

    // ---- observability ------------------------------------------------

    /// Install an observability sink (see [`asgov_obs`]): the one
    /// recorder of the run, which receives every actuation as a
    /// [`DeviceEvent`], every power-monitor span and every control
    /// cycle. The sink is shared — clones of the device emit into the
    /// same sink. Without one, the observability layer costs nothing;
    /// with a [`asgov_obs::NullSink`], simulation outputs are
    /// bit-identical to no sink at all (asserted in
    /// `tests/observability.rs`).
    pub fn install_obs_sink(&mut self, sink: Rc<RefCell<dyn TraceSink>>) {
        self.obs = Some(sink);
    }

    /// Whether a sink is installed. Controllers gate record
    /// construction (and the wall-clock reads that feed it) on this so
    /// un-instrumented runs pay nothing.
    pub fn has_obs_sink(&self) -> bool {
        self.obs.is_some()
    }

    /// Emit one control-cycle record into the sink, if present. Called
    /// by the controller at the end of every control cycle.
    pub fn emit_cycle(&self, rec: &CycleRecord) {
        if let Some(sink) = &self.obs {
            sink.borrow_mut().record_cycle(rec);
        }
    }

    /// Emit a device-level event into the sink, if present.
    fn obs_event(&self, event: DeviceEvent<'_>) {
        if let Some(sink) = &self.obs {
            sink.borrow_mut().device_event(self.now_ms, event);
        }
    }

    /// Draw the fault (if any) afflicting a perf reading produced now.
    /// Called by [`crate::PerfReader::poll`].
    pub(crate) fn draw_perf_fault(&mut self) -> Option<PerfFault> {
        let now = self.now_ms;
        self.faults.as_mut().and_then(|f| f.perf_fault(now))
    }

    // ---- actuation (in-kernel driver path) ----------------------------

    /// Set the CPU frequency (all four cores — the paper pins them to a
    /// common frequency). This is the in-kernel driver path used by
    /// governor implementations; user-space code should go through
    /// [`Device::sysfs_write`] instead.
    pub fn set_cpu_freq(&mut self, idx: FreqIndex) {
        assert!(
            idx.0 < self.table.num_freqs(),
            "frequency index out of range"
        );
        // msm-thermal-style mitigation: requests above the active
        // ceiling are silently pulled down to it.
        let mut idx = idx;
        let now = self.now_ms;
        if let Some(f) = self.faults.as_mut() {
            if let Some(ceiling) = f.thermal_ceiling(now) {
                if idx.0 > ceiling {
                    idx = FreqIndex(ceiling);
                    f.note_thermal_clamp();
                }
            }
        }
        if idx != self.freq {
            self.obs_event(DeviceEvent::CpuFreq {
                from: self.freq.0,
                to: idx.0,
            });
            self.freq = idx;
            self.op = self.power_model.op_point(&self.table, self.freq, self.bw);
            self.freq_transitions += 1;
            self.pending_transition_energy_j += TRANSITION_ENERGY_J;
        }
    }

    /// Set the GPU frequency. In-kernel driver path (the kgsl driver).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of the GPU ladder's range.
    pub fn set_gpu_freq(&mut self, idx: GpuFreqIndex) {
        if idx != self.gpu.freq() {
            self.obs_event(DeviceEvent::GpuFreq {
                from: self.gpu.freq().0,
                to: idx.0,
            });
            self.gpu.set_freq(idx);
            self.pending_transition_energy_j += TRANSITION_ENERGY_J;
        }
    }

    /// Select the GPU devfreq governor (kernel path; sysfs writes
    /// route here). `performance` and `powersave` pin the top and
    /// bottom of the ladder through [`Device::set_gpu_freq`], so the
    /// move is charged and reported like any other GPU transition — as
    /// the CPU and bus governors do through their frequency paths.
    pub fn set_gpu_governor(&mut self, name: &str) {
        self.gpu.set_governor(name);
        match name {
            "performance" => self.set_gpu_freq(GpuFreqIndex(self.gpu.num_freqs() - 1)),
            "powersave" => self.set_gpu_freq(GpuFreqIndex(0)),
            _ => {}
        }
    }

    /// Set the memory-bus bandwidth. In-kernel driver path.
    pub fn set_mem_bw(&mut self, idx: BwIndex) {
        assert!(idx.0 < self.table.num_bws(), "bandwidth index out of range");
        if idx != self.bw {
            self.obs_event(DeviceEvent::MemBw {
                from: self.bw.0,
                to: idx.0,
            });
            self.bw = idx;
            self.op = self.power_model.op_point(&self.table, self.freq, self.bw);
            self.bw_transitions += 1;
            self.pending_transition_energy_j += TRANSITION_ENERGY_J;
        }
    }

    /// Select the cpufreq governor (kernel path; sysfs writes route here).
    pub fn set_cpu_governor(&mut self, name: &str) {
        self.obs_event(DeviceEvent::Governor {
            subsystem: "cpufreq",
            name,
        });
        self.cpu_governor = sysfs::governor_name(&CPU_GOVERNORS, name);
        match name {
            "performance" => self.set_cpu_freq(self.table.max_freq()),
            "powersave" => self.set_cpu_freq(self.table.min_freq()),
            _ => {}
        }
    }

    /// Select the devfreq governor (kernel path; sysfs writes route here).
    pub fn set_bw_governor(&mut self, name: &str) {
        self.obs_event(DeviceEvent::Governor {
            subsystem: "devfreq",
            name,
        });
        self.bw_governor = sysfs::governor_name(&BW_GOVERNORS, name);
        match name {
            "performance" => self.set_mem_bw(self.table.max_bw()),
            "powersave" => self.set_mem_bw(self.table.min_bw()),
            _ => {}
        }
    }

    /// Inject measurement-tool CPU load and power (models the `perf`
    /// overhead: 40 % at a 100 ms sampling period, 4 % at 1 s, 15 mW).
    pub fn set_tool_overhead(&mut self, load: f64, power_w: f64) {
        self.tool_load = load.clamp(0.0, 1.0);
        self.tool_power_w = power_w.max(0.0);
    }

    // ---- statistics ----------------------------------------------------

    /// Snapshot of cumulative statistics since the last
    /// [`Device::reset_stats`].
    pub fn stats(&self) -> DeviceStats {
        let elapsed_ms = self.now_ms - self.stats_start_ms;
        let instructions = self.pmu.instructions() - self.instr_at_stats_start;
        let avg_gips = if elapsed_ms == 0 {
            0.0
        } else {
            instructions / (elapsed_ms as f64 * 1e-3) / 1e9
        };
        DeviceStats {
            elapsed_ms,
            energy_j: self.monitor.energy_j(),
            avg_power_w: self.monitor.average_power_w(),
            instructions,
            avg_gips,
            time_in_freq_ms: self.time_in_freq_ms.clone(),
            time_in_bw_ms: self.time_in_bw_ms.clone(),
            freq_transitions: self.freq_transitions,
            bw_transitions: self.bw_transitions,
        }
    }

    /// Reset statistics (histograms, energy integrators of the monitor
    /// and its replicas, transition counters) without touching device
    /// state.
    pub fn reset_stats(&mut self) {
        self.gpu.reset_stats();
        self.stats_start_ms = self.now_ms;
        self.instr_at_stats_start = self.pmu.instructions();
        self.time_in_freq_ms.iter_mut().for_each(|c| *c = 0);
        self.time_in_bw_ms.iter_mut().for_each(|c| *c = 0);
        self.freq_transitions = 0;
        self.bw_transitions = 0;
        self.monitor.reset();
        self.replicas.iter_mut().for_each(PowerMonitor::reset);
    }

    // ---- execution -----------------------------------------------------

    /// Execute one 1 ms tick under the given foreground demand: a span
    /// of one millisecond ([`Device::tick_span`]).
    pub fn tick(&mut self, demand: &Demand) -> TickOutcome {
        self.tick_span(demand, 1, None)
    }

    /// Execute up to `span_ms` consecutive 1 ms ticks under a demand
    /// that is constant over the span, in a single call. This is the
    /// device's only time-advance primitive: [`Device::tick`] is a span
    /// of one, and the event engine ([`crate::event::run`]) advances by
    /// whole spans. A `span_ms` of 0 is treated as 1.
    ///
    /// `work_left_gi` is the workload's remaining work
    /// ([`Workload::work_left_gi`](crate::Workload::work_left_gi)). When
    /// given, the span is cut to `⌊left / instructions-per-ms⌋` ticks (at
    /// least one), which never passes the millisecond at which a 1 ms
    /// loop would see the work run out: f64 rounding can only shorten
    /// the span, leaving a trailing 1 ms span. The span actually run is
    /// returned in [`TickOutcome::span_ms`].
    ///
    /// The expensive contention / roofline / power model is evaluated
    /// once, and every per-millisecond accumulator (PMU counters, busy
    /// time, monitor energy, GPU counters) then
    /// ends with the exact bits the sequence of floating-point additions
    /// of a 1 ms loop would produce, provided no fault boundary falls
    /// strictly inside the span (the caller bounds spans by
    /// [`Device::next_fault_boundary_ms`]). One replay rule skips work
    /// without moving a bit: an idle GPU's per-ms `+ 0.0` is idempotent
    /// (for either sign of zero), so one add books the whole span.
    ///
    /// The one exception is the power monitor's measurement noise,
    /// drawn once per span (see [`PowerMonitor`]): a span is
    /// bit-identical to calling [`Device::tick`] `span_ms` times when it
    /// is one tick long or the monitor is noiseless, and equal in law
    /// otherwise. Pending DVFS transition energy is charged into the
    /// first millisecond only.
    /// The returned outcome is that of the first millisecond of the span
    /// (the remaining milliseconds are identical except for the
    /// transition-energy surcharge).
    ///
    /// `#[inline]` lets the event engine, instantiated in each caller's
    /// crate, inline the span: without LTO an unmarked `tick_span` is a
    /// real call per millisecond at quantum 1 (DESIGN.md §9).
    #[inline]
    pub fn tick_span(
        &mut self,
        demand: &Demand,
        span_ms: u64,
        work_left_gi: Option<f64>,
    ) -> TickOutcome {
        let span_ms = span_ms.max(1);
        // Fault side effects fire at span start; interior milliseconds
        // would be no-ops because the caller never lets a span cross a
        // window edge, and cuts it to 1 ms wherever a fault changes
        // state on the tick (see `FaultInjector::next_event_ms`).
        let now = self.now_ms;
        if let Some(actions) = self.faults.as_mut().map(|f| f.on_tick(now)) {
            if let Some(gov) = actions.governor_reset {
                self.set_cpu_governor(&gov);
            }
            if let Some(cores) = actions.set_cores {
                self.online_cores = cores.clamp(1.0, 4.0);
            } else if actions.restore_cores {
                self.online_cores = self.default_online_cores;
            }
            if let Some(ceiling) = actions.thermal_ceiling {
                if self.freq.0 > ceiling {
                    self.set_cpu_freq(FreqIndex(ceiling));
                    if let Some(f) = self.faults.as_mut() {
                        f.note_thermal_clamp();
                    }
                }
            }
            if actions.controller_kill {
                self.pending_kill = true;
                self.obs_event(DeviceEvent::ControllerKill);
            }
        }
        // --- model evaluation, once per span.
        let dt_s = TICK_MS as f64 * 1e-3;
        let op = self.op;
        let f_hz = op.f_hz;
        let bw_bps = op.bw_bps;

        // --- contention: background + tool activity steal core time and
        // bus bandwidth from the foreground application.
        let stolen_util = (demand.bg.cpu_util + self.tool_load).min(0.9);
        let cores_avail = (self.online_cores * (1.0 - stolen_util)).max(0.1);
        let fg_cores = demand.active_cores.clamp(0.0, cores_avail);
        let bg_traffic_bps = demand.bg.traffic_mbps * 1e6;
        // Bus arbitration guarantees the foreground a minimum share.
        let bus_avail_bps = (bw_bps - bg_traffic_bps).max(0.4 * bw_bps);

        // --- roofline performance model.
        let ips_cpu = demand.ipc0 * fg_cores * f_hz;
        let ips_mem = if demand.bytes_per_instr > 0.0 {
            bus_avail_bps / demand.bytes_per_instr
        } else {
            f64::INFINITY
        };
        // Partial-overlap roofline: a fraction `mem_overlap` of memory
        // stall time hides under compute.
        let ips_hw = if ips_cpu <= 0.0 {
            0.0
        } else if ips_mem.is_finite() && ips_mem > 0.0 {
            1.0 / (1.0 / ips_cpu + (1.0 - self.mem_overlap) / ips_mem)
        } else {
            ips_cpu
        };
        // GPU-bound throttling: when the GPU cannot keep up with the
        // demanded render work, the render thread blocks on the fence
        // and CPU-side throughput scales down with it.
        let ips_cpu_side = ips_hw;
        let gpu = self.gpu.evaluate(demand.gpu_work);
        let ips_hw = ips_hw * gpu.fraction;
        let ips_capped = match demand.gips_cap {
            Some(cap) => ips_hw.min(cap * 1e9),
            None => ips_hw,
        };
        let ips_run = match demand.desired_gips {
            Some(want) => ips_capped.min(want.max(0.0) * 1e9),
            None => ips_capped,
        };

        let instructions = ips_run * dt_s;
        // Work-bounded span: ⌊left / per-ms⌋ ticks never outrun the
        // per-ms completion (rounding error is far below one tick), and
        // a fractional remainder becomes a trailing 1 ms span.
        let span_ms = match work_left_gi {
            Some(left_gi) if instructions > 0.0 => {
                span_ms.min(((left_gi * 1e9 / instructions) as u64).max(1))
            }
            _ => span_ms,
        };
        self.gpu.accumulate(gpu, span_ms);
        // Fraction of the tick the foreground app occupies the CPU
        // (memory stalls count as busy time, as cpufreq sees them).
        // When the pipeline cap binds: a dependency-stalled pipeline
        // (`cap_busy`) still occupies the cores; an I/O- or
        // hardware-wait lets them idle. GPU waits always idle the CPU.
        let busy_denominator = if demand.cap_busy {
            ips_capped
        } else {
            ips_cpu_side
        };
        let fg_busy = if busy_denominator > 0.0 {
            (ips_run / busy_denominator).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let busy_frac = (fg_busy + stolen_util).clamp(0.0, 1.0);
        let fg_busy_cores = fg_busy * fg_cores;
        let busy_cores = (fg_busy_cores + stolen_util * self.online_cores).min(self.online_cores);

        // The bus physically cannot carry more than its configured
        // bandwidth, whatever the overlap model credits the cores with.
        let fg_traffic_bps = (instructions * demand.bytes_per_instr / dt_s).min(bus_avail_bps);
        let traffic_mbps = (fg_traffic_bps + bg_traffic_bps) / 1e6;

        // --- power: the model is pure, so per-millisecond re-evaluation
        // would produce the same value; evaluate once, from the cached
        // operating point (bit-identical to `PowerModel::power`). With
        // cpuidle enabled, idle core time sheds part of its leakage
        // (deep C-states power-gate the core).
        let idle_cores = (self.online_cores - busy_cores).max(0.0);
        let effective_cores = self.online_cores - idle_cores * self.cpuidle_leak_reduction;
        let mut power = self.power_model.power_at(
            &op,
            effective_cores,
            busy_cores,
            traffic_mbps,
            demand.extra_power_w + self.tool_power_w,
            demand.bg.power_w,
        );
        power.gpu_w = gpu.power_w;
        power.extra_w += IDLE_RADIO_W;
        // Pending transition energy is charged into the first
        // millisecond only, exactly as a 1 ms loop would.
        let mut first = power;
        if self.pending_transition_energy_j > 0.0 {
            first.extra_w += self.pending_transition_energy_j / dt_s;
            self.pending_transition_energy_j = 0.0;
        }
        let total_first_w = first.total_w();
        let total_rest_w = power.total_w();

        // --- accounting: one fused residue loop replaying the
        // per-millisecond statements in 1 ms tick order. Each
        // accumulator receives the identical sequence of
        // additions a 1 ms loop would produce (f64 addition is not
        // associative, so the per-ms adds must not be hoisted; fusing
        // is safe because the accumulators are independent). The first
        // millisecond is peeled: it carries the transition surcharge.
        // The monitor books the span itself, with one noise draw.
        let bus_bytes = (fg_traffic_bps + bg_traffic_bps) * dt_s;
        self.pmu.record(instructions, bus_bytes);
        self.busy_core_ms += busy_cores * TICK_MS as f64;
        self.busy_ms += busy_frac * TICK_MS as f64;
        debug_assert!(total_first_w >= 0.0 && total_rest_w >= 0.0);
        let measured_first_w = self
            .monitor
            .record_span(total_first_w, total_rest_w, span_ms);
        if !self.replicas.is_empty() {
            self.record_replica_spans(total_first_w, total_rest_w, span_ms);
        }
        for _ in 1..span_ms {
            self.pmu.record(instructions, bus_bytes);
            self.busy_core_ms += busy_cores * TICK_MS as f64;
            self.busy_ms += busy_frac * TICK_MS as f64;
        }

        // --- statistics: integer counters hoist exactly.
        if let Some(t) = self.time_in_freq_ms.get_mut(self.freq.0) {
            *t += TICK_MS * span_ms;
        }
        if let Some(t) = self.time_in_bw_ms.get_mut(self.bw.0) {
            *t += TICK_MS * span_ms;
        }
        self.now_ms += TICK_MS * span_ms;
        // The sink, if any, receives the span as the monitor measured
        // it. The call is opaque to the optimizer, so it comes after the
        // accounting rather than in the middle of it, where it cost the
        // traced run more.
        if let Some(sink) = &self.obs {
            sink.borrow_mut()
                .power_span(now, measured_first_w, total_rest_w, span_ms);
        }

        TickOutcome {
            executed: Executed {
                instructions,
                gips: ips_run / 1e9,
                busy_frac,
            },
            power: first,
            span_ms,
        }
    }

    /// Book a span into every replica monitor, as into the primary one.
    /// Kept out of line so a device without replicas runs a
    /// `tick_span` no larger than before replicas existed.
    #[cold]
    #[inline(never)]
    fn record_replica_spans(&mut self, first_w: f64, rest_w: f64, span_ms: u64) {
        for replica in &mut self.replicas {
            replica.record_span(first_w, rest_w, span_ms);
        }
    }

    /// Earliest millisecond after `now_ms` at which the installed fault
    /// plan's behaviour may change ([`u64::MAX`] when no injector is
    /// installed or the plan is exhausted) — the event engine's fault
    /// clock domain: the next window start or end, or `now_ms + 1` at a
    /// millisecond where a fault changes device state on the tick. See
    /// [`FaultInjector::next_event_ms`].
    pub fn next_fault_boundary_ms(&self, now_ms: u64) -> u64 {
        self.faults
            .as_ref()
            .map_or(u64::MAX, |f| f.next_event_ms(now_ms))
    }

    // ---- sysfs ----------------------------------------------------------

    /// Read a virtual sysfs file. See [`crate::sysfs`] for the tree.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SocError::NoSuchFile`] for unknown paths.
    pub fn sysfs_read(&self, path: &str) -> Result<String, crate::SocError> {
        sysfs::read(self, path)
    }

    /// Read a numeric virtual sysfs file (a current or requested
    /// frequency or bandwidth) without building its text: the number
    /// `sysfs_read(path)?.trim().parse::<u64>()` would give.
    ///
    /// # Errors
    ///
    /// [`crate::SocError::NoSuchFile`] for unknown paths, as
    /// [`Device::sysfs_read`]; [`crate::SocError::InvalidValue`]
    /// (carrying the file's text) for a file that is not one number.
    pub fn sysfs_read_u64(&self, path: &str) -> Result<u64, crate::SocError> {
        sysfs::read_u64(self, path)
    }

    /// Write a virtual sysfs file. See [`crate::sysfs`] for the tree and
    /// its semantics.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SocError`] for unknown paths, read-only files,
    /// unparsable values, `scaling_setspeed` writes while the active
    /// governor is not `userspace`, or [`crate::SocError::Busy`] when an
    /// installed fault injector transiently rejects the write.
    pub fn sysfs_write(&mut self, path: &str, value: &str) -> Result<(), crate::SocError> {
        let now = self.now_ms;
        if let Some(f) = &mut self.faults {
            if let Some(err) = f.intercept_write(now, path) {
                return Err(err);
            }
        }
        sysfs::write(self, path, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::BackgroundDemand;

    fn quiet_device() -> Device {
        let mut cfg = DeviceConfig::nexus6();
        cfg.monitor_noise_w = 0.0;
        Device::new(cfg)
    }

    fn cpu_demand(gips: f64) -> Demand {
        Demand {
            ipc0: 1.5,
            bytes_per_instr: 0.5,
            desired_gips: Some(gips),
            active_cores: 2.0,
            ..Demand::default()
        }
    }

    #[test]
    fn boot_state_is_lowest_config() {
        let d = quiet_device();
        assert_eq!(d.freq(), FreqIndex(0));
        assert_eq!(d.bw(), BwIndex(0));
        assert_eq!(d.cpu_governor(), "interactive");
        assert_eq!(d.bw_governor(), "cpubw_hwmon");
    }

    #[test]
    fn tick_advances_time_and_counts() {
        let mut d = quiet_device();
        let out = d.tick(&cpu_demand(0.2));
        assert_eq!(d.now_ms(), 1);
        assert!(out.executed.instructions > 0.0);
        assert!(d.pmu().instructions() > 0.0);
        assert!(d.monitor().energy_j() > 0.0);
    }

    #[test]
    fn higher_frequency_executes_faster_for_compute_bound() {
        let mut d = quiet_device();
        // Unbounded batch demand, compute bound.
        let demand = Demand {
            ipc0: 1.5,
            bytes_per_instr: 0.05,
            desired_gips: None,
            active_cores: 2.0,
            ..Demand::default()
        };
        let low = d.tick(&demand).executed.gips;
        d.set_cpu_freq(FreqIndex(17));
        let high = d.tick(&demand).executed.gips;
        assert!(
            high > low * 4.0,
            "compute-bound work should scale strongly with frequency ({low} -> {high})"
        );
    }

    #[test]
    fn memory_bound_work_saturates_with_frequency() {
        let mut d = quiet_device();
        let demand = Demand {
            ipc0: 1.5,
            bytes_per_instr: 16.0, // heavily memory bound at bw1 = 762 MBps
            desired_gips: None,
            active_cores: 4.0,
            ..Demand::default()
        };
        d.set_cpu_freq(FreqIndex(9));
        let mid = d.tick(&demand).executed.gips;
        d.set_cpu_freq(FreqIndex(17));
        let high = d.tick(&demand).executed.gips;
        assert!(
            high < mid * 1.3,
            "memory-bound work should barely scale with frequency ({mid} -> {high})"
        );
        // ... but scales with bandwidth.
        d.set_mem_bw(BwIndex(12));
        let high_bw = d.tick(&demand).executed.gips;
        assert!(high_bw > high * 2.0);
    }

    #[test]
    fn gips_cap_limits_execution() {
        let mut d = quiet_device();
        d.set_cpu_freq(FreqIndex(17));
        d.set_mem_bw(BwIndex(12));
        let demand = Demand {
            ipc0: 2.0,
            bytes_per_instr: 0.5,
            gips_cap: Some(0.3),
            desired_gips: None,
            active_cores: 4.0,
            ..Demand::default()
        };
        let out = d.tick(&demand);
        assert!((out.executed.gips - 0.3).abs() < 1e-9);
    }

    #[test]
    fn rate_limited_app_reduces_busy_fraction_at_high_freq() {
        let mut d = quiet_device();
        let demand = cpu_demand(0.3);
        d.set_cpu_freq(FreqIndex(0));
        let low = d.tick(&demand).executed.busy_frac;
        d.set_cpu_freq(FreqIndex(17));
        let high = d.tick(&demand).executed.busy_frac;
        assert!(
            high < low,
            "same work rate should be less busy at high frequency ({low} vs {high})"
        );
    }

    #[test]
    fn background_load_steals_throughput() {
        let mut d = quiet_device();
        let mut demand = Demand {
            ipc0: 1.5,
            bytes_per_instr: 0.5,
            desired_gips: None,
            active_cores: 4.0,
            ..Demand::default()
        };
        let clean = d.tick(&demand).executed.gips;
        demand.bg = BackgroundDemand {
            cpu_util: 0.5,
            traffic_mbps: 300.0,
            power_w: 0.1,
        };
        let loaded = d.tick(&demand).executed.gips;
        assert!(loaded < clean);
    }

    #[test]
    fn transitions_counted_and_cost_energy() {
        let mut d = quiet_device();
        let base = {
            let mut d2 = quiet_device();
            d2.tick(&cpu_demand(0.1));
            d2.monitor().energy_j()
        };
        d.set_cpu_freq(FreqIndex(5));
        d.set_cpu_freq(FreqIndex(5)); // no-op, same freq
        assert_eq!(d.stats().freq_transitions, 1);
        d.set_mem_bw(BwIndex(3));
        assert_eq!(d.stats().bw_transitions, 1);
        d.set_cpu_freq(FreqIndex(0));
        d.set_mem_bw(BwIndex(0));
        d.tick(&cpu_demand(0.1));
        assert!(d.monitor().energy_j() > base, "transition energy charged");
    }

    #[test]
    fn governor_performance_pins_max() {
        let mut d = quiet_device();
        d.set_cpu_governor("performance");
        assert_eq!(d.freq(), FreqIndex(17));
        d.set_bw_governor("performance");
        assert_eq!(d.bw(), BwIndex(12));
        d.set_cpu_governor("powersave");
        assert_eq!(d.freq(), FreqIndex(0));
    }

    /// A `performance`/`powersave` write to the GPU governor file moves
    /// the clock through the GPU's frequency path exactly as the same
    /// write to `scaling_governor` moves the CPU through its own: one
    /// charged transition, one frequency event each way.
    #[test]
    fn gpu_governor_pins_take_the_frequency_path_like_the_cpu() {
        use crate::sysfs::{CPU_GOVERNOR, GPU_GOVERNOR};
        /// Keeps the (from, to) of every CPU and GPU frequency event.
        #[derive(Debug, Default)]
        struct Moves(Vec<(usize, usize)>);
        impl TraceSink for Moves {
            fn record_cycle(&mut self, _rec: &CycleRecord) {}
            fn device_event(&mut self, _t_ms: u64, event: DeviceEvent<'_>) {
                if let DeviceEvent::CpuFreq { from, to } | DeviceEvent::GpuFreq { from, to } = event
                {
                    self.0.push((from, to));
                }
            }
        }
        let pins = |governor_path: &str| {
            let mut d = quiet_device();
            let sink = Rc::new(RefCell::new(Moves::default()));
            d.install_obs_sink(sink.clone());
            let mut charged = Vec::new();
            for name in ["performance", "powersave"] {
                d.sysfs_write(governor_path, name).expect("stock governor");
                charged.push(std::mem::take(&mut d.pending_transition_energy_j));
            }
            let moves = std::mem::take(&mut sink.borrow_mut().0);
            (d, charged, moves)
        };
        let (cpu, cpu_charged, cpu_moves) = pins(CPU_GOVERNOR);
        let (gpu, gpu_charged, gpu_moves) = pins(GPU_GOVERNOR);
        assert_eq!(gpu_charged, cpu_charged, "one transition charged per move");
        assert_eq!(gpu_charged, [TRANSITION_ENERGY_J; 2]);
        assert_eq!(cpu_moves, [(0, 17), (17, 0)]);
        assert_eq!(gpu_moves, [(0, 4), (4, 0)]);
        assert_eq!(cpu.freq(), FreqIndex(0));
        assert_eq!(gpu.gpu().freq(), GpuFreqIndex(0));
        assert_eq!(gpu.gpu().governor(), "powersave");
    }

    #[test]
    fn stats_reset_zeroes_histograms() {
        let mut d = quiet_device();
        for _ in 0..10 {
            d.tick(&cpu_demand(0.1));
        }
        assert_eq!(d.stats().elapsed_ms, 10);
        d.reset_stats();
        let s = d.stats();
        assert_eq!(s.elapsed_ms, 0);
        assert_eq!(s.energy_j, 0.0);
        assert!(s.time_in_freq_ms.iter().all(|&c| c == 0));
    }

    #[test]
    fn histogram_mass_sums_to_one() {
        let mut d = quiet_device();
        for i in 0..100u64 {
            if i == 50 {
                d.set_cpu_freq(FreqIndex(9));
            }
            d.tick(&cpu_demand(0.1));
        }
        let h = d.stats().freq_histogram();
        let sum: f64 = h.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!((h[0] - 0.5).abs() < 1e-9);
        assert!((h[9] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cpuidle_sheds_idle_leakage() {
        let mut cfg = DeviceConfig::nexus6();
        cfg.monitor_noise_w = 0.0;
        let without = Device::new(cfg.clone())
            .tick(&Demand::idle())
            .power
            .total_w();
        cfg.cpuidle_leak_reduction = 0.8;
        let with = Device::new(cfg.clone())
            .tick(&Demand::idle())
            .power
            .total_w();
        assert!(with < without, "idle power must drop: {without} -> {with}");
        // Fully-busy power is unaffected.
        let busy = Demand {
            ipc0: 1.5,
            bytes_per_instr: 0.1,
            desired_gips: None,
            active_cores: 4.0,
            ..Demand::default()
        };
        let mut clean = Device::new({
            let mut c = DeviceConfig::nexus6();
            c.monitor_noise_w = 0.0;
            c
        });
        let p_clean = clean.tick(&busy).power.total_w();
        let mut idled = Device::new(cfg);
        let p_idled = idled.tick(&busy).power.total_w();
        assert!((p_clean - p_idled).abs() < 1e-9);
    }

    #[test]
    fn fault_injector_busy_rejects_writes_only_in_window() {
        use crate::faults::{FaultInjector, FaultKind, FaultPlan};
        let mut d = quiet_device();
        d.set_cpu_governor("userspace");
        let plan = FaultPlan::new()
            .window(5, 10, FaultKind::SysfsBusy)
            .expect("valid window");
        d.install_faults(FaultInjector::new(plan, 1));
        let path = crate::sysfs::CPU_SETSPEED;
        assert!(d.sysfs_write(path, "1497600").is_ok());
        for _ in 0..5 {
            d.tick(&Demand::idle());
        }
        let err = d.sysfs_write(path, "300000").unwrap_err();
        assert_eq!(err.kind(), crate::SocErrorKind::Busy);
        for _ in 0..5 {
            d.tick(&Demand::idle());
        }
        assert!(d.sysfs_write(path, "300000").is_ok());
        assert_eq!(d.faults().unwrap().stats().sysfs_busy, 1);
    }

    /// Every path that moves `freq` or `bw` refreshes the cached
    /// operating point: it always equals one built fresh.
    #[test]
    fn cached_op_point_tracks_every_frequency_and_bandwidth_change() {
        use crate::faults::{FaultInjector, FaultKind, FaultPlan};
        let fresh = |d: &Device| d.power_model.op_point(&d.table, d.freq, d.bw);
        let mut d = quiet_device();
        assert_eq!(d.op, fresh(&d), "boot state");
        d.set_cpu_governor("userspace");
        d.set_cpu_freq(FreqIndex(17));
        assert_eq!(d.op, fresh(&d), "set_cpu_freq");
        d.set_mem_bw(BwIndex(9));
        assert_eq!(d.op, fresh(&d), "set_mem_bw");
        let khz = d.table().freq(FreqIndex(11)).khz();
        d.sysfs_write(crate::sysfs::CPU_SETSPEED, &khz.to_string())
            .unwrap();
        assert_eq!(d.freq(), FreqIndex(11));
        assert_eq!(d.op, fresh(&d), "scaling_setspeed");
        let plan = FaultPlan::new()
            .window(1, 5, FaultKind::ThermalClamp(3))
            .expect("valid window");
        d.install_faults(FaultInjector::new(plan, 1));
        for _ in 0..2 {
            d.tick(&Demand::idle());
        }
        assert_eq!(d.freq(), FreqIndex(3), "clamped on the tick");
        assert_eq!(d.op, fresh(&d), "thermal clamp");
    }

    #[test]
    fn thermal_clamp_silently_limits_and_forces_down() {
        use crate::faults::{FaultInjector, FaultKind, FaultPlan};
        let mut d = quiet_device();
        d.set_cpu_governor("userspace");
        d.set_cpu_freq(FreqIndex(17));
        let plan = FaultPlan::new()
            .window(10, 20, FaultKind::ThermalClamp(5))
            .expect("valid window");
        d.install_faults(FaultInjector::new(plan, 1));
        for _ in 0..11 {
            d.tick(&Demand::idle());
        }
        assert_eq!(d.freq(), FreqIndex(5), "running freq forced to ceiling");
        // A write above the ceiling succeeds but is clamped.
        let khz = d.table().freq(FreqIndex(15)).khz();
        d.sysfs_write(crate::sysfs::CPU_SETSPEED, &khz.to_string())
            .unwrap();
        assert_eq!(d.freq(), FreqIndex(5));
        // After the window the same write takes full effect.
        for _ in 0..10 {
            d.tick(&Demand::idle());
        }
        d.sysfs_write(crate::sysfs::CPU_SETSPEED, &khz.to_string())
            .unwrap();
        assert_eq!(d.freq(), FreqIndex(15));
        assert!(d.faults().unwrap().stats().thermal_clamps >= 2);
    }

    #[test]
    fn governor_reset_and_hotplug_fire_from_the_plan() {
        use crate::faults::{FaultInjector, FaultKind, FaultPlan};
        let mut d = quiet_device();
        d.set_cpu_governor("userspace");
        let plan = FaultPlan::new()
            .window(3, 4, FaultKind::GovernorReset("interactive".into()))
            .and_then(|p| p.window(5, 8, FaultKind::Hotplug(2.0)))
            .expect("valid windows");
        d.install_faults(FaultInjector::new(plan, 1));
        for _ in 0..4 {
            d.tick(&Demand::idle());
        }
        assert_eq!(d.cpu_governor(), "interactive", "external reset applied");
        for _ in 0..2 {
            d.tick(&Demand::idle());
        }
        assert_eq!(d.online_cores(), 2.0, "hotplug window active");
        for _ in 0..4 {
            d.tick(&Demand::idle());
        }
        assert_eq!(d.online_cores(), 4.0, "cores restored after the window");
    }

    #[test]
    fn controller_kill_is_latched_until_taken() {
        use crate::faults::{FaultInjector, FaultKind, FaultPlan};
        let mut d = quiet_device();
        let plan = FaultPlan::new()
            .window(3, 5, FaultKind::ControllerKill)
            .expect("valid window");
        d.install_faults(FaultInjector::new(plan, 1));
        assert!(!d.take_pending_kill(), "nothing pending before the window");
        for _ in 0..3 {
            d.tick(&Demand::idle());
        }
        // The kill fired at t = 3 but was not consumed: it stays latched
        // across later ticks until a supervisor takes it, exactly once.
        d.tick(&Demand::idle());
        assert!(d.take_pending_kill());
        assert!(!d.take_pending_kill(), "the latch clears after take");
        for _ in 0..10 {
            d.tick(&Demand::idle());
        }
        assert!(!d.take_pending_kill(), "one-shot window fires once");
        assert_eq!(d.faults().expect("installed").stats().controller_kills, 1);
    }

    #[test]
    fn checkpoint_corrupt_and_clock_jump_draws_respect_windows() {
        use crate::faults::{FaultInjector, FaultKind, FaultPlan};
        let mut d = quiet_device();
        let plan = FaultPlan::new()
            .window(2, 4, FaultKind::CheckpointCorrupt)
            .and_then(|p| p.window(6, 8, FaultKind::ClockJump))
            .expect("valid windows");
        d.install_faults(FaultInjector::new(plan, 1));
        assert!(!d.draw_checkpoint_corrupt());
        assert!(!d.draw_clock_jump());
        while d.now_ms() < 2 {
            d.tick(&Demand::idle());
        }
        assert!(d.draw_checkpoint_corrupt());
        assert!(!d.draw_clock_jump());
        while d.now_ms() < 6 {
            d.tick(&Demand::idle());
        }
        assert!(!d.draw_checkpoint_corrupt());
        assert!(d.draw_clock_jump());
    }

    #[test]
    fn empty_fault_plan_is_bit_identical() {
        use crate::faults::{FaultInjector, FaultPlan};
        let demand = cpu_demand(0.2);
        let run = |with_empty_injector: bool| {
            let mut d = Device::new(DeviceConfig::nexus6());
            if with_empty_injector {
                d.install_faults(FaultInjector::new(FaultPlan::new(), 99));
            }
            d.set_cpu_governor("userspace");
            for i in 0..500u64 {
                if i == 250 {
                    d.set_cpu_freq(FreqIndex(9));
                }
                d.tick(&demand);
            }
            (d.monitor().energy_j(), d.pmu().instructions())
        };
        assert_eq!(run(false), run(true));
    }

    /// A span of `n` ms leaves every accumulator bit-identical to `n`
    /// single ticks, with a DVFS transition pending (its surcharge lands
    /// in the first millisecond only), with the GPU busy and with it
    /// idle (its one-add zero replay). Monitor noise is on
    /// for the 1 ms span and off for longer ones, since a span draws its
    /// noise once (see `monitor`). A replica monitor seeded `k` holds
    /// the bits of the monitor of a separate device seeded `k`.
    #[test]
    fn tick_span_is_bit_identical_to_repeated_ticks() {
        const REPLICA_SEEDS: [u64; 2] = [8, 9];
        let busy = Demand {
            gpu_work: 0.35,
            bg: BackgroundDemand {
                cpu_util: 0.2,
                traffic_mbps: 150.0,
                power_w: 0.05,
            },
            ..cpu_demand(0.4)
        };
        let idle_gpu = Demand {
            gpu_work: 0.0,
            ..busy
        };
        let fresh = |n: u64, seed: u64| {
            let mut cfg = DeviceConfig::nexus6().with_seed(seed);
            if n > 1 {
                cfg.monitor_noise_w = 0.0;
            }
            let mut d = Device::new(cfg);
            d.set_cpu_freq(FreqIndex(9));
            d.set_mem_bw(BwIndex(4));
            d.set_gpu_freq(GpuFreqIndex(4));
            d
        };
        let fingerprint = |d: &Device, monitor: &PowerMonitor| {
            let mut bits = vec![
                d.now_ms(),
                d.pmu().instructions().to_bits(),
                d.pmu().bus_bytes().to_bits(),
                monitor.energy_j().to_bits(),
                monitor.elapsed_ms(),
                d.gpu().busy_ms().to_bits(),
                d.busy_core_ms().to_bits(),
                d.busy_ms().to_bits(),
            ];
            bits.extend(d.stats().time_in_freq_ms);
            bits.extend(d.gpu().time_in_freq_ms());
            bits
        };
        for (label, demand) in [("busy", busy), ("idle GPU", idle_gpu)] {
            for n in [1u64, 2, 7, 200] {
                let ticked = |seed: u64| {
                    let mut d = fresh(n, seed);
                    let first_out = d.tick(&demand);
                    for _ in 1..n {
                        d.tick(&demand);
                    }
                    (first_out, d)
                };
                let mut spanned = fresh(n, 7);
                for seed in REPLICA_SEEDS {
                    spanned.add_replica_monitor(seed);
                }
                let span_out = spanned.tick_span(&demand, n, None);
                let (first_out, ticked_7) = ticked(7);
                assert_eq!(span_out.span_ms, n, "{label}, n = {n}: span run");
                assert_eq!(
                    TickOutcome {
                        span_ms: 1,
                        ..span_out
                    },
                    first_out,
                    "{label}, n = {n}: outcome of the first tick"
                );
                assert_eq!(
                    fingerprint(&spanned, spanned.monitor()),
                    fingerprint(&ticked_7, ticked_7.monitor()),
                    "{label}, n = {n}"
                );
                let replicas = spanned.replica_monitors();
                assert_eq!(replicas.len(), REPLICA_SEEDS.len());
                for (replica, seed) in replicas.iter().zip(REPLICA_SEEDS) {
                    let (_, alone) = ticked(seed);
                    assert_eq!(
                        fingerprint(&spanned, replica),
                        fingerprint(&alone, alone.monitor()),
                        "{label}, n = {n}: replica seeded {seed}"
                    );
                    if n == 1 {
                        assert_ne!(
                            replica.energy_j().to_bits(),
                            spanned.monitor().energy_j().to_bits(),
                            "{label}: replica seeded {seed} draws its own noise"
                        );
                    }
                }
            }
        }
    }

    /// `reset_stats` clears the replica monitors with the primary one,
    /// so a second run on the same device measures that run only, in
    /// every replica, and each replica keeps reading what a separate
    /// device seeded like it reads over the same two runs.
    #[test]
    fn replica_monitors_reset_with_the_statistics() {
        use crate::workload::{ConstantWorkload, Workload as _};
        const REPLICA_SEEDS: [u64; 2] = [21, 22];
        let two_runs = |seed: u64, replicas: &[u64]| {
            let mut d = Device::new(DeviceConfig::nexus6().with_seed(seed));
            replicas.iter().for_each(|&r| d.add_replica_monitor(r));
            let mut app = ConstantWorkload::new("toy", 0.3, 1.5, 1.0);
            let first = crate::sim::run(&mut d, &mut app, &mut [], 300);
            app.reset();
            let second = crate::sim::run(&mut d, &mut app, &mut [], 200);
            (d, [first, second])
        };
        let (mut shared, runs) = two_runs(20, &REPLICA_SEEDS);
        assert_eq!(runs[1].duration_ms, 200);
        for (i, seed) in REPLICA_SEEDS.into_iter().enumerate() {
            let replica = &shared.replica_monitors()[i];
            assert_eq!(replica.elapsed_ms(), 200, "second run only");
            let (_, alone) = two_runs(seed, &[]);
            assert_eq!(runs[1].measured_by(replica), alone[1], "seed {seed}");
            assert_ne!(runs[1], alone[1], "seed {seed} draws its own noise");
        }
        shared.reset_stats();
        for replica in shared.replica_monitors() {
            assert_eq!(replica.energy_j(), 0.0);
            assert_eq!(replica.elapsed_ms(), 0);
        }
    }

    #[test]
    fn tool_overhead_adds_load_and_power() {
        let mut d = quiet_device();
        let p0 = d.tick(&cpu_demand(0.0)).power.total_w();
        d.set_tool_overhead(0.04, 0.015);
        let out = d.tick(&cpu_demand(0.0));
        assert!(out.power.total_w() > p0);
        assert!(out.executed.busy_frac >= 0.04);
    }
}
