//! Supervised controller lifecycle: crash detection, bounded-backoff
//! restart, and warm recovery from checksummed checkpoints.
//!
//! On a real Android the controller is a user-space daemon: the OOM
//! killer, a watchdog, or a plain crash can take it out mid-run while
//! the device keeps executing under whatever configuration was last
//! written. [`Supervisor`] models the init/watchdog process that brings
//! it back:
//!
//! ```text
//!        kill latched                 backoff elapsed
//! Running ────────────► Down (backoff) ───────────────► restart
//!    ▲                                                    │
//!    │     warm: restore checkpoint, resume where it was  │
//!    └────────────────────────────────────────────────────┤
//!          cold: safe configuration + full probation      │
//!    ◄────────────────────────────────────────────────────┘
//! ```
//!
//! While `Running`, the supervisor periodically snapshots the inner
//! policy ([`Restartable::snapshot_bytes`]). At restart it prefers a
//! *warm* start — restore the snapshot and continue — and falls back to
//! a *cold* start (safe configuration, probation from scratch) whenever
//! the checkpoint is unusable: corrupt, truncated, version-mismatched,
//! or invalidated by a clock jump. Every fallback is counted, never
//! fatal.
//!
//! With no kills injected the supervisor is a transparent wrapper: it
//! consumes no randomness, performs no writes, and its health report
//! equals the inner policy's — the differential suite pins this.

use crate::persist::Restartable;
use asgov_soc::{DegradationLevel, Device, HealthReport, Policy};
use std::fmt;

/// Tuning for a [`Supervisor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Give up (stay down) after this many restarts. A runaway
    /// crash-loop must not restart forever.
    pub max_restarts: u32,
    /// Restart backoff base, ms (doubles per consecutive attempt while
    /// the controller has not yet climbed back to `Full`).
    pub backoff_base_ms: u64,
    /// Backoff ceiling, ms.
    pub backoff_max_ms: u64,
    /// Checkpoint period, ms (2000 aligns with the control cycle).
    pub checkpoint_period_ms: u64,
    /// Prefer warm restarts. `false` forces every restart cold (the
    /// chaos matrix uses this to quantify what checkpoints buy).
    pub warm: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_restarts: 32,
            backoff_base_ms: 100,
            backoff_max_ms: 5_000,
            checkpoint_period_ms: 2_000,
            warm: true,
        }
    }
}

/// Supervisor lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// The inner policy is alive and ticking.
    Running,
    /// The inner policy was killed at `kill_ms`; restart fires at
    /// `restart_at_ms` ([`u64::MAX`] once the restart budget is spent).
    Down { restart_at_ms: u64, kill_ms: u64 },
}

/// Wraps a [`Restartable`] policy with crash–restart supervision.
///
/// The factory recreates the policy from scratch on each restart (a
/// crashed process loses its heap; only the checkpoint survives).
pub struct Supervisor<P: Restartable> {
    inner: P,
    factory: Box<dyn FnMut() -> P + Send>,
    config: SupervisorConfig,
    state: State,
    attempt: u32,
    snapshot: Option<Vec<u8>>,
    /// Snapshot handed in from outside ([`Supervisor::migrate_in`]),
    /// restored at the next `start`.
    pending_migration: Option<Vec<u8>>,
    warm_migrations: u64,
    next_checkpoint_ms: u64,
    /// Health counters of dead incarnations, folded in at restart time
    /// (not at kill time, so the live inner is never double counted).
    carried: HealthReport,
    restarts: u64,
    warm_restarts: u64,
    snapshot_errors: u64,
    downtime_ms: u64,
    /// Set while climbing back to `Full` after a restart.
    recovering_since_ms: Option<u64>,
    /// Worst-case restart → `Full` climb, ms.
    restart_recovery_ms: Option<u64>,
}

impl<P: Restartable> fmt::Debug for Supervisor<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supervisor")
            .field("config", &self.config)
            .field("state", &self.state)
            .field("restarts", &self.restarts)
            .field("warm_restarts", &self.warm_restarts)
            .field("snapshot_errors", &self.snapshot_errors)
            .field("downtime_ms", &self.downtime_ms)
            .finish_non_exhaustive()
    }
}

impl<P: Restartable> Supervisor<P> {
    /// Supervise the policy produced by `factory` (called once now for
    /// the first incarnation, then once per restart).
    pub fn new(mut factory: impl FnMut() -> P + Send + 'static, config: SupervisorConfig) -> Self {
        let inner = factory();
        Self {
            inner,
            factory: Box::new(factory),
            config,
            state: State::Running,
            attempt: 0,
            snapshot: None,
            pending_migration: None,
            warm_migrations: 0,
            next_checkpoint_ms: 0,
            carried: HealthReport::default(),
            restarts: 0,
            warm_restarts: 0,
            snapshot_errors: 0,
            downtime_ms: 0,
            recovering_since_ms: None,
            restart_recovery_ms: None,
        }
    }

    /// The live inner policy (the current incarnation).
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Restarts performed so far.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Restarts that resumed from a checkpoint.
    pub fn warm_restarts(&self) -> u64 {
        self.warm_restarts
    }

    /// Checkpoints found unusable at restart (each one forced a cold
    /// start).
    pub fn snapshot_errors(&self) -> u64 {
        self.snapshot_errors
    }

    /// Total milliseconds spent dead (kill to restart).
    pub fn downtime_ms(&self) -> u64 {
        self.downtime_ms
    }

    /// `true` while the inner policy is dead awaiting restart.
    pub fn is_down(&self) -> bool {
        matches!(self.state, State::Down { .. })
    }

    /// Migrations that successfully warm-started the policy at `start`.
    pub fn warm_migrations(&self) -> u64 {
        self.warm_migrations
    }

    /// Stage a snapshot migrated in from elsewhere (a previous serving
    /// epoch, another host) to be restored at the next
    /// [`Policy::start`]. Fleet shards use this to warm-start a
    /// device's controller from the state it checkpointed when its last
    /// epoch ended.
    ///
    /// The restore runs after the fresh inner policy has taken the
    /// device over, so a corrupt, truncated or version-mismatched
    /// snapshot degrades to the regular cold path and is counted in
    /// [`Supervisor::snapshot_errors`] — never fatal. With
    /// `config.warm == false` the snapshot is discarded (a cold-only
    /// supervisor never restores).
    pub fn migrate_in(&mut self, snapshot: Vec<u8>) {
        self.pending_migration = Some(snapshot);
    }

    /// The freshest usable checkpoint of the supervised policy, for
    /// migration to the next epoch/host: a snapshot taken from the live
    /// inner policy now, or the last periodic checkpoint when the
    /// policy is down or its state cannot be encoded. `None` when
    /// nothing usable exists.
    pub fn migrate_out(&mut self, now_ms: u64) -> Option<Vec<u8>> {
        match self.state {
            State::Running => match self.inner.snapshot_bytes(now_ms) {
                Ok(snap) => Some(snap),
                Err(_) => {
                    self.snapshot_errors += 1;
                    self.snapshot.clone()
                }
            },
            State::Down { .. } => self.snapshot.clone(),
        }
    }

    fn inner_level(&self) -> DegradationLevel {
        self.inner.health().map(|h| h.level).unwrap_or_default()
    }

    fn backoff_ms(&self) -> u64 {
        // Saturate instead of shifting blindly: a long kill storm can
        // push `attempt` past 63, and a base near the top of the u64
        // range overflows far earlier — `base << shift` would panic in
        // debug builds and wrap to a near-zero backoff in release.
        // Overflow always means "longer than any ceiling".
        let base = self.config.backoff_base_ms;
        let shift = self.attempt.min(63);
        let raw = if shift > base.leading_zeros() {
            u64::MAX
        } else {
            base << shift
        };
        raw.min(self.config.backoff_max_ms)
    }

    /// Bring up a fresh incarnation at `now_ms` (device time).
    fn restart(&mut self, device: &mut Device, kill_ms: u64) {
        let now = device.now_ms();
        self.downtime_ms += now.saturating_sub(kill_ms);
        self.restarts += 1;
        // The dead incarnation's history must survive it: fold its
        // health into the carried report before dropping it.
        let dead = self.inner.health().unwrap_or_default();
        self.carried = self.carried.merge(&dead);

        let mut fresh = (self.factory)();
        let mut warm = false;
        if self.config.warm {
            // Taken, not cloned: a usable checkpoint is put back below,
            // an unusable one stays dropped.
            if let Some(snap) = self.snapshot.take() {
                if device.draw_clock_jump() {
                    // The wall clock jumped across the outage (NTP
                    // step, suspend): the snapshot's time anchors are
                    // meaningless, treat it as unusable.
                    self.snapshot_errors += 1;
                } else {
                    fresh.start(device);
                    match fresh.restore_bytes(&snap, now) {
                        Ok(()) => {
                            self.warm_restarts += 1;
                            warm = true;
                            self.snapshot = Some(snap);
                        }
                        Err(_) => {
                            // Corrupt/truncated/mismatched checkpoint:
                            // never fatal, always a counted cold start.
                            self.snapshot_errors += 1;
                        }
                    }
                }
            }
        }
        if !warm {
            fresh.restart_cold(device);
        }
        fresh.note_restart_telemetry(self.restarts, self.snapshot_errors);
        self.inner = fresh;
        self.state = State::Running;
        self.next_checkpoint_ms = now + self.config.checkpoint_period_ms;
        if self.inner_level() == DegradationLevel::Full {
            // Already fully operational (warm restore of a healthy
            // state): the climb took zero time.
            let worst = self.restart_recovery_ms.unwrap_or(0);
            self.restart_recovery_ms = Some(worst);
            self.recovering_since_ms = None;
            self.attempt = 0;
        } else {
            self.recovering_since_ms = Some(now);
        }
    }
}

impl<P: Restartable> Policy for Supervisor<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn start(&mut self, device: &mut Device) {
        self.inner.start(device);
        if let Some(snap) = self.pending_migration.take() {
            if self.config.warm {
                match self.inner.restore_bytes(&snap, device.now_ms()) {
                    Ok(()) => {
                        self.warm_migrations += 1;
                        self.snapshot = Some(snap);
                    }
                    Err(_) => {
                        // Unusable migrated state: stay on the fresh
                        // cold-started incarnation, count the loss.
                        self.snapshot_errors += 1;
                    }
                }
            }
        }
        self.next_checkpoint_ms = device.now_ms() + self.config.checkpoint_period_ms;
    }

    fn tick(&mut self, device: &mut Device) {
        let now = device.now_ms();
        if let State::Down {
            restart_at_ms,
            kill_ms,
        } = self.state
        {
            // Kills aimed at a dead controller are no-ops, but the
            // latch must still be consumed so it cannot fire at the
            // instant of restart.
            let _ = device.take_pending_kill();
            if now >= restart_at_ms {
                self.restart(device, kill_ms);
            }
            return;
        }
        if device.take_pending_kill() {
            let budget_left = self.restarts < u64::from(self.config.max_restarts);
            let restart_at_ms = if budget_left {
                now + self.backoff_ms()
            } else {
                u64::MAX
            };
            self.attempt = self.attempt.saturating_add(1);
            self.state = State::Down {
                restart_at_ms,
                kill_ms: now,
            };
            return;
        }
        self.inner.tick(device);
        if self.recovering_since_ms.is_some() && self.inner_level() == DegradationLevel::Full {
            if let Some(since) = self.recovering_since_ms.take() {
                let climb = now.saturating_sub(since);
                let worst = self.restart_recovery_ms.map_or(climb, |w| w.max(climb));
                self.restart_recovery_ms = Some(worst);
            }
            self.attempt = 0;
        }
        if now >= self.next_checkpoint_ms {
            match self.inner.snapshot_bytes(now) {
                Ok(mut snap) => {
                    if device.draw_checkpoint_corrupt() {
                        // Torn write / bit rot on the checkpoint
                        // medium: damage the stored copy so the next
                        // restore fails its CRC.
                        if let Some(b) = snap.last_mut() {
                            *b ^= 0xFF;
                        }
                    }
                    self.snapshot = Some(snap);
                }
                Err(_) => {
                    // A state too large for the wire format cannot be
                    // checkpointed; counted like a corrupt image. The
                    // previous checkpoint stays usable.
                    self.snapshot_errors += 1;
                }
            }
            self.next_checkpoint_ms = now + self.config.checkpoint_period_ms;
        }
    }

    fn finish(&mut self, device: &mut Device) {
        if !self.is_down() {
            self.inner.finish(device);
        }
    }

    fn health(&self) -> Option<HealthReport> {
        let live = self.inner.health().unwrap_or_default();
        let mut h = self.carried.merge(&live);
        // `merge` keeps the worst level ever seen; the report's level
        // field means "level now", which only the live incarnation has.
        h.level = live.level;
        h.restarts = self.restarts;
        h.warm_restarts = self.warm_restarts;
        h.snapshot_errors = self.snapshot_errors;
        h.downtime_ms = self.downtime_ms;
        h.restart_recovery_ms = self.restart_recovery_ms;
        Some(h)
    }

    fn next_event_ms(&self, device: &Device) -> u64 {
        let now = device.now_ms();
        match self.state {
            State::Down { restart_at_ms, .. } => restart_at_ms.max(now + 1),
            State::Running => self
                .inner
                .next_event_ms(device)
                .min(self.next_checkpoint_ms)
                .max(now + 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{SnapshotError, SnapshotReader, SnapshotWriter};
    use asgov_soc::faults::{FaultInjector, FaultKind, FaultPlan};
    use asgov_soc::{Demand, DeviceConfig};

    /// Minimal restartable policy: one `u64` of state, a degradation
    /// level that climbs back to `Full` three ticks after a cold start.
    struct FakePolicy {
        counter: u64,
        level: DegradationLevel,
        probation: u64,
        restarts_seen: u64,
    }

    impl FakePolicy {
        fn new() -> Self {
            Self {
                counter: 0,
                level: DegradationLevel::Full,
                probation: 0,
                restarts_seen: 0,
            }
        }
    }

    impl Policy for FakePolicy {
        fn name(&self) -> &str {
            "fake"
        }
        fn tick(&mut self, _device: &mut Device) {
            self.counter += 1;
            if self.probation > 0 {
                self.probation -= 1;
                if self.probation == 0 {
                    self.level = DegradationLevel::Full;
                }
            }
        }
        fn health(&self) -> Option<HealthReport> {
            Some(HealthReport {
                level: self.level,
                failed_cycles: self.counter,
                ..HealthReport::default()
            })
        }
    }

    impl Restartable for FakePolicy {
        fn snapshot_bytes(&self, _now_ms: u64) -> Result<Vec<u8>, SnapshotError> {
            let mut w = SnapshotWriter::new();
            w.put_uvar(self.counter);
            w.finish()
        }
        fn restore_bytes(&mut self, bytes: &[u8], _now_ms: u64) -> Result<(), SnapshotError> {
            let mut r = SnapshotReader::new(bytes)?;
            self.counter = r.take_uvar()?;
            r.finish()?;
            self.level = DegradationLevel::Full;
            self.probation = 0;
            Ok(())
        }
        fn restart_cold(&mut self, _device: &mut Device) {
            self.level = DegradationLevel::SafeConfig;
            self.probation = 3;
        }
        fn note_restart_telemetry(&mut self, restarts: u64, _snapshot_errors: u64) {
            self.restarts_seen = restarts;
        }
    }

    fn device() -> Device {
        Device::new(DeviceConfig::nexus6())
    }

    fn device_with(plan: FaultPlan, seed: u64) -> Device {
        let mut d = device();
        d.install_faults(FaultInjector::new(plan, seed));
        d
    }

    fn step(sup: &mut Supervisor<FakePolicy>, d: &mut Device, ticks: u64) {
        for _ in 0..ticks {
            d.tick(&Demand::idle());
            sup.tick(d);
        }
    }

    fn config() -> SupervisorConfig {
        SupervisorConfig {
            backoff_base_ms: 4,
            backoff_max_ms: 64,
            checkpoint_period_ms: 10,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn without_kills_the_supervisor_is_transparent() {
        let mut d = device();
        let mut sup = Supervisor::new(FakePolicy::new, config());
        sup.start(&mut d);
        step(&mut sup, &mut d, 50);
        let h = sup.health().expect("supervisor always reports");
        let inner = sup.inner().health().expect("fake reports");
        assert_eq!(h, inner, "no kills: merged health equals the inner's");
        assert_eq!(sup.restarts(), 0);
        assert_eq!(sup.downtime_ms(), 0);
    }

    #[test]
    fn kill_restarts_warm_within_backoff_and_preserves_state() {
        // Checkpoint every 10 ms; kill inside [20, 21).
        let plan = FaultPlan::new()
            .window(20, 21, FaultKind::ControllerKill)
            .expect("valid window");
        let mut d = device_with(plan, 7);
        let mut sup = Supervisor::new(FakePolicy::new, config());
        sup.start(&mut d);
        step(&mut sup, &mut d, 21);
        assert!(sup.is_down(), "kill at t=20 must take the controller down");
        let counter_at_checkpoint = 20; // last checkpoint at t=20 saw 20 ticks
        step(&mut sup, &mut d, 4);
        assert!(!sup.is_down(), "restart within backoff_base_ms");
        assert_eq!(sup.restarts(), 1);
        assert_eq!(sup.warm_restarts(), 1);
        assert_eq!(sup.snapshot_errors(), 0);
        assert!(sup.downtime_ms() >= 4);
        assert_eq!(
            sup.inner().counter,
            counter_at_checkpoint,
            "warm restore resumes from the checkpointed state"
        );
        assert_eq!(sup.inner().restarts_seen, 1, "telemetry forwarded");
        // Warm restore lands at Full: recovery took zero extra time.
        let h = sup.health().expect("report");
        assert_eq!(h.level, DegradationLevel::Full);
        assert_eq!(h.restart_recovery_ms, Some(0));
        assert_eq!(h.restarts, 1);
        assert_eq!(h.warm_restarts, 1);
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_cold_without_panicking() {
        // The corrupt window covers every checkpoint before the kill.
        let plan = FaultPlan::new()
            .window(0, 30, FaultKind::CheckpointCorrupt)
            .and_then(|p| p.window(25, 26, FaultKind::ControllerKill))
            .expect("valid windows");
        let mut d = device_with(plan, 7);
        let mut sup = Supervisor::new(FakePolicy::new, config());
        sup.start(&mut d);
        step(&mut sup, &mut d, 40);
        assert_eq!(sup.restarts(), 1);
        assert_eq!(sup.warm_restarts(), 0, "corrupt snapshot must not load");
        assert_eq!(sup.snapshot_errors(), 1);
        // Cold start: probation ran, level climbed back to Full, and the
        // counter restarted from zero instead of the checkpointed value.
        let h = sup.health().expect("report");
        assert_eq!(h.level, DegradationLevel::Full);
        assert!(h.restart_recovery_ms.expect("recovered") > 0);
        assert!(sup.inner().counter < 20, "cold restart lost the state");
    }

    #[test]
    fn cold_mode_never_restores_even_with_a_good_checkpoint() {
        let plan = FaultPlan::new()
            .window(25, 26, FaultKind::ControllerKill)
            .expect("valid window");
        let mut d = device_with(plan, 7);
        let cfg = SupervisorConfig {
            warm: false,
            ..config()
        };
        let mut sup = Supervisor::new(FakePolicy::new, cfg);
        sup.start(&mut d);
        step(&mut sup, &mut d, 40);
        assert_eq!(sup.restarts(), 1);
        assert_eq!(sup.warm_restarts(), 0);
        assert_eq!(sup.snapshot_errors(), 0, "cold by choice is not an error");
    }

    #[test]
    fn restart_budget_exhaustion_keeps_the_policy_down() {
        let plan = FaultPlan::new()
            .window(15, 16, FaultKind::ControllerKill)
            .and_then(|p| p.window(40, 41, FaultKind::ControllerKill))
            .expect("valid windows");
        let mut d = device_with(plan, 7);
        let cfg = SupervisorConfig {
            max_restarts: 1,
            ..config()
        };
        let mut sup = Supervisor::new(FakePolicy::new, cfg);
        sup.start(&mut d);
        step(&mut sup, &mut d, 200);
        assert_eq!(sup.restarts(), 1, "budget spent on the first kill");
        assert!(sup.is_down(), "second kill exceeds the budget: stay down");
        let h = sup.health().expect("report");
        assert_eq!(h.restarts, 1);
    }

    #[test]
    fn backoff_doubles_while_recovery_is_incomplete() {
        let cfg = config();
        let mut sup = Supervisor::new(FakePolicy::new, cfg);
        assert_eq!(sup.backoff_ms(), 4);
        sup.attempt = 3;
        assert_eq!(sup.backoff_ms(), 32);
        sup.attempt = 30; // shift clamp + ceiling
        assert_eq!(sup.backoff_ms(), 64);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        // Regression: `base << shift` used to be computed with only the
        // shift *count* clamped, so a base near the top of the u64
        // range overflowed (debug panic / release wrap-to-tiny).
        let cfg = SupervisorConfig {
            backoff_base_ms: 1 << 62,
            backoff_max_ms: u64::MAX,
            ..config()
        };
        let mut sup = Supervisor::new(FakePolicy::new, cfg);
        sup.attempt = 1; // still in range: exactly 2^63
        assert_eq!(sup.backoff_ms(), 1 << 63);
        sup.attempt = 2; // one doubling past u64::MAX: saturate
        assert_eq!(sup.backoff_ms(), u64::MAX);
        sup.attempt = 200; // attempt counts past 64 must not panic either
        assert_eq!(sup.backoff_ms(), u64::MAX);
        // And the ceiling still applies to the saturated value.
        sup.config.backoff_max_ms = 5_000;
        assert_eq!(sup.backoff_ms(), 5_000);
    }

    #[test]
    fn kill_storm_past_the_overflow_point_never_panics_or_zeroes_backoff() {
        // A storm of kills, each landing before the cold probation
        // completes, drives `attempt` monotonically upward while the
        // backoff base is already too large to shift. Before the clamp
        // this panicked in debug builds; in release it wrapped the
        // backoff to ~0 so restarts fired with no delay at all.
        let max = 64;
        let mut plan = FaultPlan::new();
        for i in 1..=70u64 {
            // Restart fires `max` ms after each kill; the next window
            // opens one tick later, well inside the 3-tick probation.
            let t = i * (max + 2);
            plan = plan
                .window(t, t + 1, FaultKind::ControllerKill)
                .expect("valid window");
        }
        let mut d = device_with(plan, 11);
        let cfg = SupervisorConfig {
            backoff_base_ms: 1 << 62,
            backoff_max_ms: max,
            max_restarts: 200,
            ..config()
        };
        let mut sup = Supervisor::new(FakePolicy::new, cfg);
        sup.start(&mut d);
        step(&mut sup, &mut d, 71 * (max + 2));
        assert!(
            sup.restarts() >= 60,
            "the storm kept killing: {}",
            sup.restarts()
        );
        // Every restart waited out the full (saturated, then ceilinged)
        // backoff — the release-mode wrap would have made this 0.
        assert!(
            sup.downtime_ms() >= max * sup.restarts(),
            "downtime {} must cover {} restarts at the {} ms ceiling",
            sup.downtime_ms(),
            sup.restarts(),
            max
        );
    }

    #[test]
    fn migrate_out_then_in_warm_starts_the_next_incarnation() {
        let mut d = device();
        let mut sup = Supervisor::new(FakePolicy::new, config());
        sup.start(&mut d);
        step(&mut sup, &mut d, 25);
        let snap = sup.migrate_out(d.now_ms()).expect("live policy encodes");

        // A brand-new supervisor (next epoch: fresh device, fresh
        // incarnation) resumes from the migrated state at start.
        let mut d2 = device();
        let mut sup2 = Supervisor::new(FakePolicy::new, config());
        sup2.migrate_in(snap);
        sup2.start(&mut d2);
        assert_eq!(sup2.warm_migrations(), 1);
        assert_eq!(sup2.snapshot_errors(), 0);
        assert_eq!(sup2.inner().counter, 25, "state carried across epochs");
    }

    #[test]
    fn corrupt_migration_falls_back_cold_and_is_counted() {
        let mut d = device();
        let mut sup = Supervisor::new(FakePolicy::new, config());
        sup.migrate_in(vec![0xBA; 7]);
        sup.start(&mut d);
        assert_eq!(sup.warm_migrations(), 0);
        assert_eq!(sup.snapshot_errors(), 1);
        assert_eq!(sup.inner().counter, 0, "fresh incarnation kept");
        // Cold-only supervisors discard migrations without counting.
        let cfg = SupervisorConfig {
            warm: false,
            ..config()
        };
        let mut cold = Supervisor::new(FakePolicy::new, cfg);
        cold.migrate_in(vec![0xBA; 7]);
        let mut d2 = device();
        cold.start(&mut d2);
        assert_eq!(cold.warm_migrations(), 0);
        assert_eq!(cold.snapshot_errors(), 0);
    }

    #[test]
    fn version_one_migration_is_a_counted_cold_start() {
        let mut d = device();
        let mut sup = Supervisor::new(FakePolicy::new, config());
        sup.start(&mut d);
        step(&mut sup, &mut d, 25);
        let mut snap = sup.migrate_out(d.now_ms()).expect("live policy encodes");
        // The same intact frame, stamped with the retired version 1.
        snap.splice(4..8, 1u32.to_le_bytes());
        let mut d2 = device();
        let mut sup2 = Supervisor::new(FakePolicy::new, config());
        sup2.migrate_in(snap);
        sup2.start(&mut d2);
        assert_eq!(sup2.warm_migrations(), 0);
        assert_eq!(sup2.snapshot_errors(), 1);
        assert_eq!(sup2.inner().counter, 0, "fresh incarnation kept");
    }

    #[test]
    fn next_event_advertises_checkpoints_and_restarts() {
        let mut d = device();
        let mut sup = Supervisor::new(FakePolicy::new, config());
        sup.start(&mut d);
        // Inner's conservative next event is now+1, which is sooner than
        // the checkpoint at t=10.
        assert_eq!(sup.next_event_ms(&d), 1);
        sup.state = State::Down {
            restart_at_ms: 42,
            kill_ms: 20,
        };
        assert_eq!(sup.next_event_ms(&d), 42, "down: wake exactly at restart");
    }
}
