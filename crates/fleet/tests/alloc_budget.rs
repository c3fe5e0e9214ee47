//! Allocation budget of the fleet's device-epoch.
//!
//! This file is its own test binary so its counting `#[global_allocator]`
//! sees nothing but this crate's work. The counter is per thread and
//! only runs while a measurement is open; the fleets measured here run
//! with `threads: 1`, which executes every shard job on the calling
//! thread (the pool spawns no workers), so every allocator call of the
//! epoch engine, and every byte it holds, lands in the count.

use asgov_core::{ConfigScheduler, EnergyOptimizer};
use asgov_fleet::{Fleet, FleetConfig, PolicyStore};
use asgov_soc::{sysfs, Device, DeviceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls, and tracks live
/// heap bytes and their high-water mark, on the current thread while
/// counting is switched on; `dealloc` is not a call but frees bytes.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Book one allocator event: `bytes` more (or, negative, fewer) live
/// bytes, and a call unless it is a `dealloc`.
fn note(bytes: i64, call: bool) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when counting is over anyway.
    let on = COUNTING.try_with(Cell::get).unwrap_or(false);
    if !on {
        return;
    }
    if call {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    }
    let live = LIVE.try_with(|l| {
        l.set(l.get() + bytes);
        l.get()
    });
    if let Ok(live) = live {
        let _ = PEAK.try_with(|p| p.set(p.get().max(live)));
    }
}

fn size(bytes: usize) -> i64 {
    i64::try_from(bytes).unwrap_or(i64::MAX)
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(size(layout.size()), true);
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(size(layout.size()), true);
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(size(new_size) - size(layout.size()), true);
        // SAFETY: forwarded with the caller's pointer, layout and size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-size(layout.size()), false);
        // SAFETY: forwarded with the caller's pointer and layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` asked of the allocator on this thread.
struct Usage {
    /// Allocator calls made.
    calls: u64,
    /// Peak live heap above the level at the start, bytes.
    peak_bytes: i64,
}

/// Run `f` with counting on; returns its allocator usage and result.
fn measure<T>(f: impl FnOnce() -> T) -> (Usage, T) {
    CALLS.with(|c| c.set(0));
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    let usage = Usage {
        calls: CALLS.with(Cell::get),
        peak_bytes: PEAK.with(Cell::get),
    };
    (usage, out)
}

/// Ceiling on allocator calls per online device-epoch of a q20 fleet,
/// with warm snapshots migrated between the two epochs. The fleet below
/// makes 11.02 (5 402 calls over 490 device-epochs); before sysfs
/// actuation, governor names, controller construction and snapshot
/// framing stopped allocating it made 101.84, and 15.05 before the
/// device-epoch stopped assembling a run report it did not read. What
/// is left is mostly owned data: the device's residency counters, the
/// app, the fault plan, one frame per snapshot.
const MAX_CALLS_PER_DEVICE_EPOCH: f64 = 12.0;

/// How much more peak live heap a 256-shard batch may need than an
/// 8-shard batch of the same devices. The per-shard bookkeeping left
/// (job slots, energy rows, results) is under 100 B a shard, 23.5 KB
/// over the 248 extra shards; statistics held per shard until the batch
/// ends (a 3.4 KB aggregator each) made it 0.99 MB.
const MAX_SHARD_HEAP_GROWTH_BYTES: i64 = 64 << 10;

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
    let (Usage { calls, .. }, online) = measure(|| {
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

/// Peak live heap a one-epoch run of 512 q20 devices in `shards`
/// shards raises above its pre-run level.
fn run_peak_bytes(shards: u64) -> i64 {
    let cfg = FleetConfig {
        devices: 512,
        shards,
        epochs: 1,
        ..q20_cfg()
    };
    let store = PolicyStore::resolve(&cfg, &DeviceConfig::nexus6());
    let mut fleet = Fleet::new(cfg).expect("valid config");
    let (usage, online) = measure(|| fleet.run(&store).expect("run completes").totals.online);
    assert!(online > 0, "devices simulated");
    usage.peak_bytes
}

#[test]
fn batch_heap_does_not_grow_with_the_shard_count() {
    let few = run_peak_bytes(8);
    let many = run_peak_bytes(256);
    println!("peak live heap above the pre-run level: {few} B at 8 shards, {many} B at 256");
    assert!(
        many - few <= MAX_SHARD_HEAP_GROWTH_BYTES,
        "256 shards peak {} B above 8 shards, budget {MAX_SHARD_HEAP_GROWTH_BYTES}",
        many - few
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
    let (Usage { calls, .. }, ()) = measure(|| {
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
