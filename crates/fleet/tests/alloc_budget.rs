//! Allocation budget of the fleet's device-epoch.
//!
//! This file is its own test binary so its counting `#[global_allocator]`
//! sees nothing but this crate's work. The counter is per thread and
//! only runs while a measurement is open; the fleets measured here run
//! with `threads: 1`, which executes every shard job on the calling
//! thread (the pool spawns no workers), so every allocator call of the
//! epoch engine lands in the count.

use asgov_core::{ConfigScheduler, EnergyOptimizer};
use asgov_fleet::{Fleet, FleetConfig, PolicyStore};
use asgov_soc::{sysfs, Device, DeviceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls made on the
/// current thread while counting is switched on; `dealloc` is free.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note_call() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when counting is over anyway.
    let on = COUNTING.try_with(Cell::get).unwrap_or(false);
    if on {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_call();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_call();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_call();
        // SAFETY: forwarded with the caller's pointer, layout and size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's pointer and layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls `f` makes on this thread, with its result.
fn count_calls<T>(f: impl FnOnce() -> T) -> (u64, T) {
    CALLS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (CALLS.with(Cell::get), out)
}

/// Ceiling on allocator calls per online device-epoch of a q20 fleet,
/// with warm snapshots migrated between the two epochs. The fleet below
/// makes 15.05 (7 373 calls over 490 device-epochs); before sysfs
/// actuation, governor names, controller construction and snapshot
/// framing stopped allocating it made 101.84. What is left is mostly
/// owned data: the run report's strings and histograms, the device's
/// residency counters, the app, the fault plan, one frame per snapshot.
const MAX_CALLS_PER_DEVICE_EPOCH: f64 = 16.0;

fn q20_cfg() -> FleetConfig {
    FleetConfig {
        devices: 256,
        shards: 2,
        epochs: 2,
        epoch_ms: 4_000,
        threads: 1,
        demand_quantum_ms: 20,
        ..FleetConfig::smoke()
    }
}

#[test]
fn q20_device_epoch_stays_within_the_allocation_budget() {
    let cfg = q20_cfg();
    let store = PolicyStore::resolve(&cfg, &DeviceConfig::nexus6());
    let mut fleet = Fleet::new(cfg).expect("valid config");
    let (calls, online) = count_calls(|| {
        let report = fleet.run(&store).expect("run completes");
        report.totals.online
    });
    assert!(online > 0, "devices simulated");
    assert!(
        fleet.report().totals.warm_migrations > 0,
        "the second epoch warm-starts from migrated snapshots"
    );
    let per_device_epoch = calls as f64 / online as f64;
    println!(
        "{calls} allocator calls over {online} online device-epochs = {per_device_epoch:.2} each"
    );
    assert!(
        per_device_epoch <= MAX_CALLS_PER_DEVICE_EPOCH,
        "{per_device_epoch:.2} allocator calls per device-epoch, budget {MAX_CALLS_PER_DEVICE_EPOCH}"
    );
}

#[test]
fn steady_state_actuation_does_not_allocate() {
    let cfg = q20_cfg();
    let store = PolicyStore::resolve(&cfg, &DeviceConfig::nexus6());
    let policy = store.get("WeChat/BL").expect("roster signature");
    let optimizer = EnergyOptimizer::new(&policy.profile);
    let plans: Vec<_> = [1.2, 2.0, 2.7]
        .iter()
        .map(|&s| optimizer.solve(s, 2.0).expect("finite target"))
        .collect();

    let mut device = Device::new(DeviceConfig::nexus6());
    device
        .sysfs_write(sysfs::CPU_GOVERNOR, "userspace")
        .expect("cpufreq governor");
    device
        .sysfs_write(sysfs::BW_GOVERNOR, "userspace")
        .expect("devfreq governor");
    let mut scheduler = ConfigScheduler::new(200, false);
    let demand = asgov_soc::Demand::idle();
    let (calls, ()) = count_calls(|| {
        for plan in plans.iter().cycle().take(12) {
            scheduler.install(&mut device, plan, 2_000);
            // Run the cycle out so the armed intra-period switch fires.
            for _ in 0..20 {
                device.tick_span(&demand, 100, None);
                scheduler.tick(&mut device);
            }
        }
    });
    assert_eq!(scheduler.writes_failed(), 0, "every write landed");
    assert_eq!(
        calls, 0,
        "steady-state actuation made {calls} allocator calls"
    );
}
