//! Instrumentation the benchmark puts around the program's trait
//! objects. Every wrapper forwards every trait method, so a wrapped run
//! is bit-identical to an unwrapped one (the traced runs check this);
//! the wrappers only add `Instant` reads.
//!
//! A wrapper times only the calls that can do work: a workload's
//! `demand`, `deliver`, `deliver_span` and `reset`, and a policy's
//! `start`, `finish`, and each `tick` at or after the time the policy
//! last advertised through `next_event_ms` (earlier ticks are no-ops by
//! the `Policy` contract). The cheap queries (`name`, `finished`,
//! `next_event_ms`, `health`) and no-op ticks are forwarded untimed and
//! count as simulation-engine time. Each timed call's own timer cost is
//! subtracted afterwards with a [`TimerCost`] calibrated in-process.

use asgov_obs::{CycleRecord, TraceSink};
use asgov_soc::{Demand, Device, Executed, HealthReport, Policy, Workload};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// What one timed call costs beyond the call itself, ns: `inside` is
/// the part that lands inside the measured interval, `total` the whole
/// cost (two clock reads and the bookkeeping).
#[derive(Debug, Clone, Copy)]
pub struct TimerCost {
    /// Timer cost inside a measured interval, ns.
    pub inside_ns: f64,
    /// Whole timer cost of one timed call, ns.
    pub total_ns: f64,
}

impl TimerCost {
    /// Calibrate on empty timed calls: the median over five batches.
    pub fn measure() -> Self {
        const CALLS: u32 = 100_000;
        let (mut inside, mut total) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            let acc = Span::default();
            let t = Instant::now();
            for _ in 0..CALLS {
                acc.time(|| black_box(()));
            }
            total.push(ns_since(t) as f64 / f64::from(CALLS));
            inside.push(acc.ns.get() as f64 / f64::from(CALLS));
        }
        Self {
            inside_ns: crate::stats::median(&inside),
            total_ns: crate::stats::median(&total),
        }
    }
}

/// Accumulated time and count of timed calls.
#[derive(Debug, Default, Clone)]
pub struct Span {
    /// Σ measured time, ns.
    pub ns: Cell<u64>,
    /// Timed calls.
    pub calls: Cell<u64>,
}

impl Span {
    /// Run `f`, adding its measured duration.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns.set(self.ns.get() + ns_since(t));
        self.calls.set(self.calls.get() + 1);
        out
    }

    /// Measured time minus the timer's cost inside the intervals, ns.
    pub fn corrected_ns(&self, cost: TimerCost) -> f64 {
        (self.ns.get() as f64 - self.calls.get() as f64 * cost.inside_ns).max(0.0)
    }

    /// Add `other`'s time and calls.
    pub fn add(&self, other: &Span) {
        self.ns.set(self.ns.get() + other.ns.get());
        self.calls.set(self.calls.get() + other.calls.get());
    }
}

/// A [`Workload`] that times every call into the application model
/// that can do work.
pub struct TimedWorkload<'a> {
    inner: &'a mut dyn Workload,
    /// Time inside the wrapped workload.
    pub span: Span,
}

impl<'a> TimedWorkload<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut dyn Workload) -> Self {
        Self {
            inner,
            span: Span::default(),
        }
    }
}

impl Workload for TimedWorkload<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn demand(&mut self, now_ms: u64) -> Demand {
        self.span.time(|| self.inner.demand(now_ms))
    }
    fn deliver(&mut self, now_ms: u64, executed: Executed) {
        self.span.time(|| self.inner.deliver(now_ms, executed));
    }
    fn finished(&self) -> bool {
        self.inner.finished()
    }
    fn reset(&mut self) {
        self.span.time(|| self.inner.reset());
    }
    fn next_event_ms(&self, now_ms: u64) -> u64 {
        self.inner.next_event_ms(now_ms)
    }
    fn deliver_span(&mut self, now_ms: u64, executed: Executed, span_ms: u64) {
        self.span
            .time(|| self.inner.deliver_span(now_ms, executed, span_ms));
    }
}

/// A [`Policy`] that times `start`, `finish` and every tick that can do
/// work, and optionally splits its tick time into control cycles at
/// each [`CycleRecord`] the controller emits into a [`CycleSink`].
pub struct TimedPolicy<'a> {
    inner: &'a mut dyn Policy,
    /// Time inside the wrapped policy.
    pub span: Span,
    /// The part of `span` spent in `start`, which restores a migrated
    /// snapshot, ns.
    pub start_ns: u64,
    due_ms: u64,
    cycles: Option<CycleSplit>,
}

/// Tick time accumulated since the last emitted cycle record.
struct CycleSplit {
    sink: Rc<RefCell<CycleSink>>,
    closed: usize,
    acc_ns: u64,
    acc_ticks: u64,
}

impl<'a> TimedPolicy<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut dyn Policy) -> Self {
        Self {
            inner,
            span: Span::default(),
            start_ns: 0,
            due_ms: 0,
            cycles: None,
        }
    }

    /// Wrap a controller whose device emits cycle records into `sink`:
    /// each record also gets the host time of the ticks of its cycle.
    pub fn with_cycles(inner: &'a mut dyn Policy, sink: Rc<RefCell<CycleSink>>) -> Self {
        Self {
            cycles: Some(CycleSplit {
                sink,
                closed: 0,
                acc_ns: 0,
                acc_ticks: 0,
            }),
            ..Self::new(inner)
        }
    }
}

impl Policy for TimedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn start(&mut self, device: &mut Device) {
        let before = self.span.ns.get();
        self.span.time(|| self.inner.start(device));
        self.start_ns += self.span.ns.get() - before;
        self.due_ms = 0;
    }
    fn tick(&mut self, device: &mut Device) {
        if device.now_ms() < self.due_ms {
            self.inner.tick(device);
            return;
        }
        let before = self.span.ns.get();
        self.span.time(|| self.inner.tick(device));
        self.due_ms = self.inner.next_event_ms(device);
        if let Some(split) = &mut self.cycles {
            split.acc_ns += self.span.ns.get() - before;
            split.acc_ticks += 1;
            let mut sink = split.sink.borrow_mut();
            if sink.cycles.len() > split.closed {
                // This tick emitted a record: it ended the cycle.
                split.closed = sink.cycles.len();
                if let Some(last) = sink.cycles.last_mut() {
                    last.cycle_ns = std::mem::take(&mut split.acc_ns);
                    last.ticks = std::mem::take(&mut split.acc_ticks);
                }
            }
        }
    }
    fn finish(&mut self, device: &mut Device) {
        self.span.time(|| self.inner.finish(device));
    }
    fn health(&self) -> Option<HealthReport> {
        self.inner.health()
    }
    fn next_event_ms(&self, device: &Device) -> u64 {
        self.inner.next_event_ms(device)
    }
}

/// The wrapped trait objects' spans from one simulated run.
#[derive(Debug, Clone, Default)]
pub struct Calls {
    /// The application model.
    pub app: Span,
    /// The stock governors.
    pub gov: Span,
    /// The controller (under its supervisor, in fleets).
    pub ctrl: Span,
    /// The controller's `start` (which restores a migrated snapshot), ns.
    pub ctrl_start_ns: u64,
}

/// One simulated run as the layer split sees it.
#[derive(Debug, Clone, Copy)]
pub struct RunSample<'a> {
    /// Host time of the whole run, ns.
    pub run_ns: u64,
    /// Simulated ms the run covered.
    pub sim_ms: u64,
    /// Per-call spans, for wrapped runs.
    pub calls: Option<&'a Calls>,
}

/// Host µs per simulated second in each layer of a simulated run.
#[derive(Debug, Clone, Copy)]
pub struct LayerCosts {
    /// Device model and simulation engine: the cost of an unwrapped
    /// run minus the three layers below.
    pub soc: f64,
    /// Application model (`workloads`).
    pub app: f64,
    /// Stock governors.
    pub gov: f64,
    /// Controller, under its supervisor in fleets.
    pub ctrl: f64,
    /// Wrapped runs' cost over unwrapped runs' cost, per simulated
    /// second: how much the per-call timers slow a run down.
    pub wrapped_slowdown: f64,
}

impl LayerCosts {
    /// Split `runs`: the wrapped ones give each wrapped layer's cost
    /// (timer cost removed), the unwrapped ones the undisturbed cost of
    /// a whole run, and the remainder is the device model and engine.
    /// The per-call timers slow a wrapped run by more than their
    /// calibrated cost, so its own total is not used.
    pub fn split<'a>(runs: impl IntoIterator<Item = RunSample<'a>>, cost: TimerCost) -> Self {
        let (mut wrapped_ms, mut wrapped_ns, mut plain_ms, mut plain_ns) = (0, 0, 0, 0);
        let (app, gov, ctrl) = (Span::default(), Span::default(), Span::default());
        for r in runs {
            match r.calls {
                Some(c) => {
                    wrapped_ms += r.sim_ms;
                    wrapped_ns += r.run_ns;
                    app.add(&c.app);
                    gov.add(&c.gov);
                    ctrl.add(&c.ctrl);
                }
                None => {
                    plain_ms += r.sim_ms;
                    plain_ns += r.run_ns;
                }
            }
        }
        let per_sim_s = |ns: f64, ms: u64| ns * 1e-3 / (ms as f64 * 1e-3);
        let [app, gov, ctrl] =
            [app, gov, ctrl].map(|s| per_sim_s(s.corrected_ns(cost), wrapped_ms));
        let plain = per_sim_s(plain_ns as f64, plain_ms);
        Self {
            soc: plain - app - gov - ctrl,
            app,
            gov,
            ctrl,
            wrapped_slowdown: per_sim_s(wrapped_ns as f64, wrapped_ms) / plain,
        }
    }
}

/// One control cycle as the traced run sees it.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    /// Optimizer solve time the controller recorded, ns.
    pub solve_ns: u64,
    /// Actuation time the controller recorded, ns.
    pub actuation_ns: u64,
    /// Measured host time of the cycle's timed controller ticks, ns
    /// (set by the wrapping [`TimedPolicy`] when the emitting tick
    /// returns).
    pub cycle_ns: u64,
    /// Timed ticks in the cycle.
    pub ticks: u64,
}

impl Cycle {
    /// Cycle time outside solve and actuation — perf polling, the
    /// Kalman filter, the regulator, scheduler switches, checkpoints —
    /// with the timer's cost removed, ns.
    pub fn rest_ns(&self, cost: TimerCost) -> f64 {
        (self.cycle_ns as f64
            - self.ticks as f64 * cost.inside_ns
            - (self.solve_ns + self.actuation_ns) as f64)
            .max(0.0)
    }
}

/// A trace sink that keeps the timing fields of every cycle record.
#[derive(Debug, Default)]
pub struct CycleSink {
    /// Cycles in emission order.
    pub cycles: Vec<Cycle>,
}

impl TraceSink for CycleSink {
    fn record_cycle(&mut self, rec: &CycleRecord) {
        self.cycles.push(Cycle {
            solve_ns: rec.solve_ns,
            actuation_ns: rec.actuation_ns,
            cycle_ns: 0,
            ticks: 0,
        });
    }
}

/// The controller's control period (`ControllerBuilder`'s default).
const PERIOD_MS: u64 = 2_000;

/// Times a controller's control cycles in an untraced run: the host
/// time of the ticks within each complete control period. Ticks the
/// controller declared no-ops (before its `next_event_ms`) are
/// forwarded untimed, so a cycle costs a few `Instant` reads. The
/// trailing partial period of a run is dropped.
pub struct CycleTimer<P: Policy> {
    inner: P,
    due_ms: u64,
    period: Option<(u64, u64)>,
    cycles_ns: Rc<RefCell<Vec<u64>>>,
}

impl<P: Policy> CycleTimer<P> {
    /// Wrap `inner`, appending each cycle's host time to `cycles_ns`.
    pub fn new(inner: P, cycles_ns: Rc<RefCell<Vec<u64>>>) -> Self {
        Self {
            inner,
            due_ms: 0,
            period: None,
            cycles_ns,
        }
    }
}

impl<P: Policy> Policy for CycleTimer<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn start(&mut self, device: &mut Device) {
        self.inner.start(device);
        self.due_ms = 0;
    }
    fn tick(&mut self, device: &mut Device) {
        let now = device.now_ms();
        if now < self.due_ms {
            self.inner.tick(device);
            return;
        }
        // Ticks in (k·T, (k+1)·T] belong to control period k: the
        // controller closes period k on the tick at (k+1)·T.
        let period = now.saturating_sub(1) / PERIOD_MS;
        let t = Instant::now();
        self.inner.tick(device);
        let dt = ns_since(t);
        self.period = match self.period {
            Some((p, acc)) if p == period => Some((p, acc + dt)),
            Some((_, acc)) => {
                self.cycles_ns.borrow_mut().push(acc);
                Some((period, dt))
            }
            None => Some((period, dt)),
        };
        self.due_ms = self.inner.next_event_ms(device);
    }
    fn finish(&mut self, device: &mut Device) {
        self.inner.finish(device);
    }
    fn health(&self) -> Option<HealthReport> {
        self.inner.health()
    }
    fn next_event_ms(&self, device: &Device) -> u64 {
        self.inner.next_event_ms(device)
    }
}
