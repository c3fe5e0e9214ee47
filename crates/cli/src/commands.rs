//! Command implementations.

use crate::args::Command;
use asgov_core::{with_controller_stack, ControlMode, ControllerBuilder};
use asgov_experiments::harness::{compare, ExperimentOptions};
use asgov_experiments::render::{energy_cell, perf_cell};
use asgov_obs::{parse_jsonl, CycleRecord, RingSink, TraceSink as _};
use asgov_profiler::{
    measure_default, profile_app, profile_app_cpu_only, profile_app_with_gpu, ProfileOptions,
    ProfileTable,
};
use asgov_soc::{event, Device, DeviceConfig, Workload as _};
use asgov_workloads::{apps, BackgroundLoad};
use std::cell::RefCell;
use std::error::Error;
use std::io::Write;
use std::rc::Rc;

/// A command's outcome.
pub type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// Cycle records `asgov control` retains for its fault list and trace.
const MAX_CONTROL_RECORDS: u64 = 1 << 16;

fn unknown_app(name: &str) -> String {
    format!("unknown application {name:?}; see `asgov list-apps`")
}

/// Read the profile table at `path`, refusing one that cannot drive a
/// controller on `dev_cfg`'s device.
fn load_profile(path: &str, dev_cfg: &DeviceConfig) -> Result<ProfileTable> {
    let table = ProfileTable::from_tsv(&std::fs::read_to_string(path)?)?;
    let defects = table.defects(&dev_cfg.table);
    if defects.is_empty() {
        Ok(table)
    } else {
        Err(format!(
            "profile {path} cannot drive a controller: {}",
            defects.join("; ")
        )
        .into())
    }
}

/// Execute a parsed command, printing its report to `out`.
///
/// # Errors
///
/// I/O failures (writing to `out` too), unknown applications, or
/// malformed profile files.
pub fn run(cmd: Command, out: &mut impl Write) -> Result<()> {
    match cmd {
        Command::ListApps => {
            writeln!(out, "built-in application models (see asgov-workloads):")?;
            for (name, _) in apps::REGISTRY {
                writeln!(out, "  {name}")?;
            }
            Ok(())
        }
        Command::Profile {
            app,
            out: path,
            stride,
            runs,
            window_ms,
            load,
            cpu_only,
            gpu,
        } => {
            let dev_cfg = DeviceConfig::nexus6();
            let mut a = apps::by_name(&app, BackgroundLoad::with_level(load, 1))
                .ok_or_else(|| unknown_app(&app))?;
            let opts = ProfileOptions {
                runs_per_config: runs,
                run_ms: window_ms,
                freq_stride: stride,
                interpolate: true,
            };
            eprintln!("profiling {app} under {load} load...");
            let table = if cpu_only {
                profile_app_cpu_only(&dev_cfg, &mut a, &opts)
            } else if gpu {
                profile_app_with_gpu(&dev_cfg, &mut a, &opts)
            } else {
                profile_app(&dev_cfg, &mut a, &opts)
            };
            let path = path.unwrap_or_else(|| format!("{app}.profile.tsv"));
            std::fs::write(&path, table.to_tsv())?;
            writeln!(out, "{}", table.render(&dev_cfg.table))?;
            eprintln!("wrote {} configurations to {path}", table.len());
            Ok(())
        }
        Command::Baseline {
            app,
            duration_ms,
            load,
        } => {
            let dev_cfg = DeviceConfig::nexus6();
            let mut a = apps::by_name(&app, BackgroundLoad::with_level(load, 1))
                .ok_or_else(|| unknown_app(&app))?;
            let m = measure_default(&dev_cfg, &mut a, 3, duration_ms);
            writeln!(
                out,
                "{app} under interactive + cpubw_hwmon + msm-adreno-tz ({load}):"
            )?;
            writeln!(out, "  R_def = {:.4} GIPS", m.gips)?;
            writeln!(out, "  P_def = {:.3} W", m.power_w)?;
            writeln!(out, "  T_def = {:.1} s", m.duration_ms / 1000.0)?;
            writeln!(out, "  E_def = {:.1} J", m.energy_j)?;
            Ok(())
        }
        Command::Control {
            app,
            profile,
            target,
            duration_ms,
            load,
            cpu_only,
            out: trace_out,
        } => {
            let dev_cfg = DeviceConfig::nexus6();
            let mut a = apps::by_name(&app, BackgroundLoad::with_level(load, 1))
                .ok_or_else(|| unknown_app(&app))?;
            let table = match profile {
                Some(path) => load_profile(&path, &dev_cfg)?,
                None => {
                    eprintln!("no --profile; profiling {app}...");
                    let profile = if cpu_only {
                        profile_app_cpu_only
                    } else {
                        profile_app
                    };
                    profile(&dev_cfg, &mut a, &ProfileOptions::default())
                }
            };
            if table.app != app {
                eprintln!(
                    "warning: profile is for {:?}, controlling {app:?}",
                    table.app
                );
            }
            let target = match target {
                Some(t) => t,
                None => {
                    eprintln!("no --target; measuring the default-governor baseline...");
                    measure_default(&dev_cfg, &mut a, 1, duration_ms).gips
                }
            };

            let mode = if cpu_only {
                ControlMode::CpuOnly
            } else {
                ControlMode::Coordinated
            };
            let mut controller = ControllerBuilder::new(table)
                .target_gips(target)
                .mode(mode)
                .build();
            let mut device = Device::new(dev_cfg);
            // One record per 2 s control cycle; past the cap the fault
            // list and the trace cover the newest cycles.
            let retained = (duration_ms / 2_000 + 1).min(MAX_CONTROL_RECORDS);
            let sink = Rc::new(RefCell::new(RingSink::new(retained as usize)));
            device.install_obs_sink(sink.clone());
            a.reset();
            let report = with_controller_stack(mode, &mut controller, |policies| {
                event::run(&mut device, &mut a, policies, duration_ms)
            });

            let sink = sink.borrow();
            if let Some(path) = &trace_out {
                std::fs::write(path, sink.to_jsonl())?;
            }
            writeln!(
                out,
                "{app} under the asgov controller (target {target:.4} GIPS, {load}):"
            )?;
            writeln!(out, "  achieved = {:.4} GIPS", report.avg_gips)?;
            writeln!(out, "  power    = {:.3} W", report.avg_power_w)?;
            writeln!(
                out,
                "  energy   = {:.1} J over {:.1} s",
                report.energy_j,
                report.duration_s()
            )?;
            writeln!(
                out,
                "  base-speed estimate = {:.4} GIPS, {} control cycles, {} actuation failures",
                controller.base_estimate(),
                sink.metrics().cycles,
                controller.actuation_failures()
            )?;
            if let Some(health) = report.health {
                writeln!(out, "  health   = {}", health.summary())?;
            }
            let faults: Vec<_> = sink
                .records()
                .iter()
                .filter_map(|c| c.fault.map(|k| (c.t_ms, k)))
                .collect();
            if !faults.is_empty() {
                writeln!(out, "  actuation faults by cycle:")?;
                for (t_ms, kind) in faults {
                    writeln!(out, "    t={:.1} s: {kind}", t_ms as f64 * 1e-3)?;
                }
            }
            if let Some(path) = &trace_out {
                writeln!(
                    out,
                    "  wrote {} cycle records to {path} ({} dropped by the ring)",
                    sink.ring().len(),
                    sink.ring().dropped()
                )?;
            }
            Ok(())
        }
        Command::Compare {
            app,
            duration_ms,
            load,
        } => {
            let dev_cfg = DeviceConfig::nexus6();
            let mut a = apps::by_name(&app, BackgroundLoad::with_level(load, 1))
                .ok_or_else(|| unknown_app(&app))?;
            // Table III's procedure, over the app's test duration unless
            // `--duration-s` overrides it.
            let opts = ExperimentOptions {
                duration_ms,
                ..ExperimentOptions::default()
            };
            eprintln!("profiling {app}, measuring the default governors and the controller...");
            let c = compare(&dev_cfg, &mut a, &opts);
            writeln!(
                out,
                "{app} ({load}, {} s):",
                opts.duration_ms_for(&a) / 1000
            )?;
            for (leg, m) in [("default:   ", &c.default), ("controller:", &c.controller)] {
                writeln!(
                    out,
                    "  {leg} {:.4} GIPS  {:.3} W  {:.1} J",
                    m.gips, m.power_w, m.energy_j
                )?;
            }
            writeln!(
                out,
                "  => {} energy at {} performance",
                energy_cell(&c),
                perf_cell(&c)
            )?;
            if let Some(summary) = c.failure_summary() {
                writeln!(out, "  health:     {summary}")?;
            }
            Ok(())
        }
        Command::Stats { trace } => {
            let text = std::fs::read_to_string(&trace)?;
            let records = parse_jsonl(&text)?;
            if records.is_empty() {
                writeln!(out, "{trace}: no records")?;
                return Ok(());
            }
            // Replay the stream through a sink to rebuild the aggregates.
            let mut sink = RingSink::new(records.len());
            for rec in &records {
                sink.record_cycle(rec);
            }
            let span_ms = span_ms(&records);
            // Non-finite errors (serialized as JSON null, decoded as
            // NaN) would poison the aggregates; count them separately.
            let finite_errs: Vec<f64> = records
                .iter()
                .map(|r| r.error.abs())
                .filter(|e| e.is_finite())
                .collect();
            let non_finite = records.len() - finite_errs.len();
            let mean_abs_err = if finite_errs.is_empty() {
                0.0
            } else {
                finite_errs.iter().sum::<f64>() / finite_errs.len() as f64
            };
            let max_abs_err = finite_errs.iter().copied().fold(0.0, f64::max);
            let split_cycles = records.iter().filter(|r| r.tau_upper_ms > 0).count();
            writeln!(
                out,
                "{trace}: {} records spanning {:.1} s",
                records.len(),
                span_ms as f64 * 1e-3
            )?;
            writeln!(
                out,
                "  |error|: mean {mean_abs_err:.4} GIPS, max {max_abs_err:.4} GIPS"
            )?;
            if non_finite > 0 {
                writeln!(
                    out,
                    "  {non_finite} record(s) with non-finite error excluded"
                )?;
            }
            writeln!(
                out,
                "  dwell splits: {split_cycles}/{} cycles used two configurations",
                records.len()
            )?;
            writeln!(out, "{}", sink.metrics().to_json().to_pretty())?;
            Ok(())
        }
    }
}

/// The time the records cover, ms: from the earliest to the latest
/// `t_ms`. Valid traces need not be in time order (two runs'
/// traces concatenated restart the clock), so this is not
/// `last − first`, which underflows on them.
fn span_ms(records: &[CycleRecord]) -> u64 {
    let first = records.iter().map(|r| r.t_ms).min();
    let last = records.iter().map(|r| r.t_ms).max();
    last.zip(first).map_or(0, |(last, first)| last - first)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(t_ms: u64) -> CycleRecord {
        CycleRecord {
            t_ms,
            ..CycleRecord::default()
        }
    }

    #[test]
    fn span_covers_earliest_to_latest_in_any_order() {
        assert_eq!(span_ms(&[]), 0);
        assert_eq!(span_ms(&[at(4_000)]), 0);
        assert_eq!(span_ms(&[at(2_000), at(4_000), at(6_000)]), 4_000);
        // Two traces concatenated: the clock restarts mid-file.
        assert_eq!(
            span_ms(&[at(6_000), at(8_000), at(2_000), at(4_000)]),
            6_000
        );
    }
}
