//! Virtual sysfs tree.
//!
//! The paper's controller actuates the Nexus 6 exclusively by writing
//! sysfs files: it first sets the `cpufreq` and `devfreq` governors to
//! `userspace`, then writes the desired frequency and bandwidth. This
//! module reproduces that interface — including the kernel's semantics
//! that `scaling_setspeed` is rejected unless the `userspace` governor is
//! active.
//!
//! # Supported paths
//!
//! Every file has a full-path constant, so a caller names a file
//! without formatting its path; [`Device::sysfs_read_u64`] reads a
//! numeric file without building a `String`, and [`Decimal`] formats a
//! value to write on the stack. A control cycle's actuation allocates
//! nothing.
//!
//! | constant | path | r/w | meaning |
//! |----------|------|-----|---------|
//! | [`CPU_GOVERNOR`] | `/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor` | rw | cpufreq governor |
//! | [`CPU_SETSPEED`] | `/sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed` | rw | CPU frequency, kHz (userspace only); numeric |
//! | [`CPU_CUR_FREQ`] | `/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq` | r | current CPU frequency, kHz; numeric |
//! | [`CPU_AVAILABLE_FREQUENCIES`] | `/sys/devices/system/cpu/cpu0/cpufreq/scaling_available_frequencies` | r | ladder, kHz |
//! | [`CPU_AVAILABLE_GOVERNORS`] | `/sys/devices/system/cpu/cpu0/cpufreq/scaling_available_governors` | r | governor names |
//! | [`CPU_TIME_IN_STATE`] | `/sys/devices/system/cpu/cpu0/cpufreq/stats/time_in_state` | r | `khz ms` lines |
//! | [`BW_GOVERNOR`] | `/sys/class/devfreq/qcom,cpubw/governor` | rw | devfreq governor |
//! | [`BW_SET_FREQ`] | `/sys/class/devfreq/qcom,cpubw/userspace/set_freq` | rw | bandwidth, MBps (userspace only); numeric |
//! | [`BW_CUR_FREQ`] | `/sys/class/devfreq/qcom,cpubw/cur_freq` | r | current bandwidth, MBps; numeric |
//! | [`BW_AVAILABLE_FREQUENCIES`] | `/sys/class/devfreq/qcom,cpubw/available_frequencies` | r | ladder, MBps |
//! | [`GPU_GOVERNOR`] | `/sys/class/kgsl/kgsl-3d0/governor` | rw | GPU governor |
//! | [`GPU_CLK`] | `/sys/class/kgsl/kgsl-3d0/gpuclk` | rw | GPU clock, Hz (userspace only); numeric |
//! | [`GPU_AVAILABLE_FREQUENCIES`] | `/sys/class/kgsl/kgsl-3d0/available_frequencies` | r | ladder, Hz |
//!
//! [`Device::sysfs_read`] returns any file's text. The numeric read
//! [`Device::sysfs_read_u64`] resolves the path the same way and
//! returns the number a `trim().parse::<u64>()` of that text would: an
//! unknown path is [`SocError::NoSuchFile`] for both, and a file that
//! is not one number (a governor name, a ladder) is
//! [`SocError::InvalidValue`].

use crate::device::Device;
use crate::error::SocError;
use crate::gpu::GpuFreqIndex;
use std::borrow::Cow;

/// cpufreq directory prefix (all four cores share one policy).
pub const CPUFREQ: &str = "/sys/devices/system/cpu/cpu0/cpufreq";
/// devfreq directory prefix for the CPU-to-memory bus.
pub const DEVFREQ: &str = "/sys/class/devfreq/qcom,cpubw";
/// kgsl directory prefix for the GPU.
pub const KGSL: &str = "/sys/class/kgsl/kgsl-3d0";

/// `{CPUFREQ}/scaling_governor`.
pub const CPU_GOVERNOR: &str = "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor";
/// `{CPUFREQ}/scaling_setspeed`.
pub const CPU_SETSPEED: &str = "/sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed";
/// `{CPUFREQ}/scaling_cur_freq`.
pub const CPU_CUR_FREQ: &str = "/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq";
/// `{CPUFREQ}/scaling_available_frequencies`.
pub const CPU_AVAILABLE_FREQUENCIES: &str =
    "/sys/devices/system/cpu/cpu0/cpufreq/scaling_available_frequencies";
/// `{CPUFREQ}/scaling_available_governors`.
pub const CPU_AVAILABLE_GOVERNORS: &str =
    "/sys/devices/system/cpu/cpu0/cpufreq/scaling_available_governors";
/// `{CPUFREQ}/stats/time_in_state`.
pub const CPU_TIME_IN_STATE: &str = "/sys/devices/system/cpu/cpu0/cpufreq/stats/time_in_state";
/// `{DEVFREQ}/governor`.
pub const BW_GOVERNOR: &str = "/sys/class/devfreq/qcom,cpubw/governor";
/// `{DEVFREQ}/userspace/set_freq`.
pub const BW_SET_FREQ: &str = "/sys/class/devfreq/qcom,cpubw/userspace/set_freq";
/// `{DEVFREQ}/cur_freq`.
pub const BW_CUR_FREQ: &str = "/sys/class/devfreq/qcom,cpubw/cur_freq";
/// `{DEVFREQ}/available_frequencies`.
pub const BW_AVAILABLE_FREQUENCIES: &str = "/sys/class/devfreq/qcom,cpubw/available_frequencies";
/// `{KGSL}/governor`.
pub const GPU_GOVERNOR: &str = "/sys/class/kgsl/kgsl-3d0/governor";
/// `{KGSL}/gpuclk`.
pub const GPU_CLK: &str = "/sys/class/kgsl/kgsl-3d0/gpuclk";
/// `{KGSL}/available_frequencies`.
pub const GPU_AVAILABLE_FREQUENCIES: &str = "/sys/class/kgsl/kgsl-3d0/available_frequencies";

/// Governors selectable through the cpufreq `scaling_governor` file.
pub const CPU_GOVERNORS: [&str; 6] = [
    "interactive",
    "ondemand",
    "conservative",
    "userspace",
    "performance",
    "powersave",
];

/// Governors selectable through the devfreq `governor` file.
pub const BW_GOVERNORS: [&str; 4] = ["cpubw_hwmon", "userspace", "performance", "powersave"];

/// Governors selectable for the GPU.
pub const GPU_GOVERNORS: [&str; 4] = ["msm-adreno-tz", "userspace", "performance", "powersave"];

/// A governor name as a device stores it: borrowed from `known` (one
/// of the lists above) when it is there, so selecting a stock governor
/// allocates nothing; any other name is kept as an owned copy.
pub(crate) fn governor_name(known: &[&'static str], name: &str) -> Cow<'static, str> {
    match known.iter().find(|&&k| k == name) {
        Some(&k) => Cow::Borrowed(k),
        None => Cow::Owned(name.to_owned()),
    }
}

/// A `u64` in decimal, formatted into a stack buffer: the text
/// `v.to_string()` would give, without the heap. Values written to
/// numeric sysfs files go through it.
///
/// ```
/// use asgov_soc::sysfs::Decimal;
///
/// assert_eq!(Decimal::new(1_497_600).as_str(), "1497600");
/// assert_eq!(Decimal::new(0).as_str(), "0");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Decimal {
    /// Digits right-aligned in the buffer (`u64::MAX` has 20).
    buf: [u8; 20],
    /// Index of the first digit.
    start: usize,
}

impl Decimal {
    /// Format `v`.
    pub fn new(mut v: u64) -> Self {
        let mut buf = [0u8; 20];
        let mut start = buf.len();
        for slot in buf.iter_mut().rev() {
            *slot = b'0' + (v % 10) as u8;
            start -= 1;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        Self { buf, start }
    }

    /// The decimal text.
    pub fn as_str(&self) -> &str {
        // The buffer holds ASCII digits only, so the conversion cannot
        // fail; `unwrap_or_default` keeps the accessor panic-free.
        self.buf
            .get(self.start..)
            .and_then(|digits| std::str::from_utf8(digits).ok())
            .unwrap_or_default()
    }
}

/// One file of the tree: [`resolve`] maps a path to it once, and the
/// read, numeric-read and write paths all dispatch on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum File {
    CpuGovernor,
    CpuSetspeed,
    CpuCurFreq,
    CpuAvailableFrequencies,
    CpuAvailableGovernors,
    CpuTimeInState,
    BwGovernor,
    BwSetFreq,
    BwCurFreq,
    BwAvailableFrequencies,
    GpuGovernor,
    GpuClk,
    GpuAvailableFrequencies,
}

fn resolve(path: &str) -> Option<File> {
    Some(match path {
        CPU_GOVERNOR => File::CpuGovernor,
        CPU_SETSPEED => File::CpuSetspeed,
        CPU_CUR_FREQ => File::CpuCurFreq,
        CPU_AVAILABLE_FREQUENCIES => File::CpuAvailableFrequencies,
        CPU_AVAILABLE_GOVERNORS => File::CpuAvailableGovernors,
        CPU_TIME_IN_STATE => File::CpuTimeInState,
        BW_GOVERNOR => File::BwGovernor,
        BW_SET_FREQ => File::BwSetFreq,
        BW_CUR_FREQ => File::BwCurFreq,
        BW_AVAILABLE_FREQUENCIES => File::BwAvailableFrequencies,
        GPU_GOVERNOR => File::GpuGovernor,
        GPU_CLK => File::GpuClk,
        GPU_AVAILABLE_FREQUENCIES => File::GpuAvailableFrequencies,
        _ => return None,
    })
}

fn gpu_hz(dev: &Device, idx: GpuFreqIndex) -> u64 {
    (dev.gpu().freq_ghz(idx) * 1e9).round() as u64
}

fn join<I: Iterator<Item = String>>(items: I, sep: &str) -> String {
    items.collect::<Vec<_>>().join(sep)
}

/// The value of a numeric file (`None` for a file that holds text).
fn number(dev: &Device, file: File) -> Option<u64> {
    match file {
        File::CpuCurFreq | File::CpuSetspeed => Some(dev.table().freq(dev.freq()).khz()),
        File::BwCurFreq | File::BwSetFreq => Some(dev.table().bw(dev.bw()).0.round() as u64),
        File::GpuClk => Some(gpu_hz(dev, dev.gpu().freq())),
        _ => None,
    }
}

pub(crate) fn read(dev: &Device, path: &str) -> Result<String, SocError> {
    let file = resolve(path).ok_or_else(|| SocError::NoSuchFile(path.to_string()))?;
    if let Some(v) = number(dev, file) {
        return Ok(v.to_string());
    }
    let table = dev.table();
    Ok(match file {
        File::CpuGovernor => dev.cpu_governor().to_string(),
        File::CpuAvailableFrequencies => join(
            table
                .freq_indices()
                .map(|i| table.freq(i).khz().to_string()),
            " ",
        ),
        File::CpuAvailableGovernors => CPU_GOVERNORS.join(" "),
        File::CpuTimeInState => {
            let stats = dev.stats();
            join(
                table.freq_indices().map(|i| {
                    format!(
                        "{} {}",
                        table.freq(i).khz(),
                        stats.time_in_freq_ms.get(i.0).copied().unwrap_or(0)
                    )
                }),
                "\n",
            )
        }
        File::BwGovernor => dev.bw_governor().to_string(),
        File::BwAvailableFrequencies => join(
            table
                .bw_indices()
                .map(|i| (table.bw(i).0.round() as u64).to_string()),
            " ",
        ),
        File::GpuGovernor => dev.gpu().governor().to_string(),
        File::GpuAvailableFrequencies => join(
            (0..dev.gpu().num_freqs()).map(|i| gpu_hz(dev, GpuFreqIndex(i)).to_string()),
            " ",
        ),
        // Numeric files returned above.
        File::CpuSetspeed | File::CpuCurFreq | File::BwSetFreq | File::BwCurFreq | File::GpuClk => {
            String::new()
        }
    })
}

pub(crate) fn read_u64(dev: &Device, path: &str) -> Result<u64, SocError> {
    let file = resolve(path).ok_or_else(|| SocError::NoSuchFile(path.to_string()))?;
    number(dev, file).ok_or_else(|| SocError::InvalidValue {
        path: path.to_string(),
        value: read(dev, path).unwrap_or_default(),
    })
}

fn invalid(path: &str, value: &str) -> SocError {
    SocError::InvalidValue {
        path: path.to_string(),
        value: value.to_string(),
    }
}

fn wrong_governor(path: &str, active: &str) -> SocError {
    SocError::WrongGovernor {
        path: path.to_string(),
        active: active.to_string(),
    }
}

pub(crate) fn write(dev: &mut Device, path: &str, value: &str) -> Result<(), SocError> {
    let value = value.trim();
    let file = resolve(path).ok_or_else(|| SocError::NoSuchFile(path.to_string()))?;
    match file {
        File::CpuGovernor | File::BwGovernor | File::GpuGovernor => {
            let known: &[&str] = match file {
                File::CpuGovernor => &CPU_GOVERNORS,
                File::BwGovernor => &BW_GOVERNORS,
                _ => &GPU_GOVERNORS,
            };
            if !known.contains(&value) {
                return Err(invalid(path, value));
            }
            match file {
                File::CpuGovernor => dev.set_cpu_governor(value),
                File::BwGovernor => dev.set_bw_governor(value),
                _ => dev.set_gpu_governor(value),
            }
            Ok(())
        }
        File::CpuSetspeed => {
            if dev.cpu_governor() != "userspace" {
                return Err(wrong_governor(path, dev.cpu_governor()));
            }
            let khz: u64 = value.parse().map_err(|_| invalid(path, value))?;
            let idx = dev
                .table()
                .freq_from_khz(khz)
                .ok_or_else(|| invalid(path, value))?;
            dev.set_cpu_freq(idx);
            Ok(())
        }
        File::BwSetFreq => {
            if dev.bw_governor() != "userspace" {
                return Err(wrong_governor(path, dev.bw_governor()));
            }
            let mbps: u64 = value.parse().map_err(|_| invalid(path, value))?;
            let idx = dev
                .table()
                .bw_from_mbps(mbps)
                .ok_or_else(|| invalid(path, value))?;
            dev.set_mem_bw(idx);
            Ok(())
        }
        File::GpuClk => {
            if dev.gpu().governor() != "userspace" {
                return Err(wrong_governor(path, dev.gpu().governor()));
            }
            let hz: u64 = value.parse().map_err(|_| invalid(path, value))?;
            let idx = (0..dev.gpu().num_freqs())
                .map(GpuFreqIndex)
                .find(|&i| gpu_hz(dev, i) == hz)
                .ok_or_else(|| invalid(path, value))?;
            dev.set_gpu_freq(idx);
            Ok(())
        }
        File::CpuCurFreq
        | File::CpuAvailableFrequencies
        | File::CpuAvailableGovernors
        | File::CpuTimeInState
        | File::BwCurFreq
        | File::BwAvailableFrequencies
        | File::GpuAvailableFrequencies => Err(SocError::ReadOnly(path.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use crate::dvfs::{BwIndex, FreqIndex};

    fn dev() -> Device {
        Device::new(DeviceConfig::nexus6())
    }

    #[test]
    fn read_governor_and_frequency() {
        let d = dev();
        assert_eq!(d.sysfs_read(CPU_GOVERNOR).unwrap(), "interactive");
        assert_eq!(d.sysfs_read(CPU_CUR_FREQ).unwrap(), "300000");
        assert_eq!(d.sysfs_read(BW_CUR_FREQ).unwrap(), "762");
    }

    #[test]
    fn setspeed_rejected_under_interactive() {
        let mut d = dev();
        let err = d.sysfs_write(CPU_SETSPEED, "1497600").unwrap_err();
        assert!(matches!(err, SocError::WrongGovernor { .. }));
    }

    #[test]
    fn userspace_flow_sets_frequency_and_bandwidth() {
        let mut d = dev();
        d.sysfs_write(CPU_GOVERNOR, "userspace").unwrap();
        d.sysfs_write(CPU_SETSPEED, "1497600").unwrap();
        assert_eq!(d.freq(), FreqIndex(9));

        d.sysfs_write(BW_GOVERNOR, "userspace").unwrap();
        d.sysfs_write(BW_SET_FREQ, "8056").unwrap();
        assert_eq!(d.bw(), BwIndex(9));
    }

    #[test]
    fn invalid_frequency_rejected() {
        let mut d = dev();
        d.sysfs_write(CPU_GOVERNOR, "userspace").unwrap();
        let err = d.sysfs_write(CPU_SETSPEED, "123456").unwrap_err();
        assert!(matches!(err, SocError::InvalidValue { .. }));
        let err = d.sysfs_write(CPU_SETSPEED, "fast").unwrap_err();
        assert!(matches!(err, SocError::InvalidValue { .. }));
    }

    #[test]
    fn unknown_governor_rejected() {
        let mut d = dev();
        let err = d.sysfs_write(CPU_GOVERNOR, "warp-speed").unwrap_err();
        assert!(matches!(err, SocError::InvalidValue { .. }));
    }

    #[test]
    fn read_only_files_reject_writes() {
        let mut d = dev();
        let err = d.sysfs_write(CPU_CUR_FREQ, "300000").unwrap_err();
        assert!(matches!(err, SocError::ReadOnly(_)));
    }

    #[test]
    fn unknown_path_errors() {
        let d = dev();
        assert!(matches!(
            d.sysfs_read("/sys/nope").unwrap_err(),
            SocError::NoSuchFile(_)
        ));
    }

    #[test]
    fn available_frequencies_lists_whole_ladder() {
        let d = dev();
        let freqs = d.sysfs_read(CPU_AVAILABLE_FREQUENCIES).unwrap();
        assert_eq!(freqs.split_whitespace().count(), 18);
        assert!(freqs.starts_with("300000"));
        assert!(freqs.ends_with("2649600"));
        let bws = d.sysfs_read(BW_AVAILABLE_FREQUENCIES).unwrap();
        assert_eq!(bws.split_whitespace().count(), 13);
    }

    #[test]
    fn time_in_state_reflects_ticks() {
        let mut d = dev();
        let demand = crate::workload::Demand::idle();
        for _ in 0..5 {
            d.tick(&demand);
        }
        let tis = d.sysfs_read(CPU_TIME_IN_STATE).unwrap();
        let first = tis.lines().next().unwrap();
        assert_eq!(first, "300000 5");
    }

    #[test]
    fn gpu_sysfs_flow() {
        let mut d = dev();
        assert_eq!(d.sysfs_read(GPU_GOVERNOR).unwrap(), "msm-adreno-tz");
        let err = d.sysfs_write(GPU_CLK, "600000000").unwrap_err();
        assert!(matches!(err, SocError::WrongGovernor { .. }));
        d.sysfs_write(GPU_GOVERNOR, "userspace").unwrap();
        d.sysfs_write(GPU_CLK, "600000000").unwrap();
        assert_eq!(d.sysfs_read(GPU_CLK).unwrap(), "600000000");
        let freqs = d.sysfs_read(GPU_AVAILABLE_FREQUENCIES).unwrap();
        assert_eq!(freqs.split_whitespace().count(), 5);
    }

    #[test]
    fn governor_sysfs_write_performance_pins_max() {
        let mut d = dev();
        d.sysfs_write(CPU_GOVERNOR, "performance").unwrap();
        assert_eq!(d.freq(), FreqIndex(17));
    }

    #[test]
    fn path_constants_name_the_files_under_their_directories() {
        for (path, dir, file) in [
            (CPU_GOVERNOR, CPUFREQ, "scaling_governor"),
            (CPU_SETSPEED, CPUFREQ, "scaling_setspeed"),
            (CPU_CUR_FREQ, CPUFREQ, "scaling_cur_freq"),
            (
                CPU_AVAILABLE_FREQUENCIES,
                CPUFREQ,
                "scaling_available_frequencies",
            ),
            (
                CPU_AVAILABLE_GOVERNORS,
                CPUFREQ,
                "scaling_available_governors",
            ),
            (CPU_TIME_IN_STATE, CPUFREQ, "stats/time_in_state"),
            (BW_GOVERNOR, DEVFREQ, "governor"),
            (BW_SET_FREQ, DEVFREQ, "userspace/set_freq"),
            (BW_CUR_FREQ, DEVFREQ, "cur_freq"),
            (BW_AVAILABLE_FREQUENCIES, DEVFREQ, "available_frequencies"),
            (GPU_GOVERNOR, KGSL, "governor"),
            (GPU_CLK, KGSL, "gpuclk"),
            (GPU_AVAILABLE_FREQUENCIES, KGSL, "available_frequencies"),
        ] {
            assert_eq!(path, format!("{dir}/{file}"));
            assert!(resolve(path).is_some(), "{path} resolves");
        }
    }

    /// At every CPU frequency, bandwidth and GPU level, each numeric
    /// file's numeric read is the number its text parses to.
    #[test]
    fn numeric_read_matches_parsing_the_text() {
        let mut d = dev();
        for governor in [CPU_GOVERNOR, BW_GOVERNOR, GPU_GOVERNOR] {
            d.sysfs_write(governor, "userspace").unwrap();
        }
        let check = |d: &Device| {
            for path in [
                CPU_SETSPEED,
                CPU_CUR_FREQ,
                BW_SET_FREQ,
                BW_CUR_FREQ,
                GPU_CLK,
            ] {
                let parsed = d.sysfs_read(path).unwrap().trim().parse::<u64>();
                assert_eq!(d.sysfs_read_u64(path), Ok(parsed.unwrap()), "{path}");
            }
        };
        let freqs: Vec<_> = d.table().freq_indices().collect();
        for i in freqs {
            d.set_cpu_freq(i);
            check(&d);
        }
        let bws: Vec<_> = d.table().bw_indices().collect();
        for i in bws {
            d.set_mem_bw(i);
            check(&d);
        }
        for g in 0..d.gpu().num_freqs() {
            d.set_gpu_freq(GpuFreqIndex(g));
            check(&d);
        }
    }

    /// Where the text read fails, the numeric read fails with the same
    /// kind; a file that reads but is not one number is `InvalidValue`
    /// carrying its text.
    #[test]
    fn numeric_read_errors_match_the_text_read() {
        let d = dev();
        let near_misses = [
            "/sys/nope".to_string(),
            format!("{CPUFREQ}/nope"),
            format!("{DEVFREQ}/"),
            format!("{KGSL}//gpuclk"),
            format!("{CPU_SETSPEED} "),
        ];
        for path in &near_misses {
            let kind = d.sysfs_read(path).unwrap_err().kind();
            assert_eq!(kind, crate::SocErrorKind::NoSuchFile, "{path}");
            assert_eq!(d.sysfs_read_u64(path).unwrap_err().kind(), kind, "{path}");
        }
        for path in [
            CPU_GOVERNOR,
            CPU_AVAILABLE_FREQUENCIES,
            CPU_AVAILABLE_GOVERNORS,
            CPU_TIME_IN_STATE,
            BW_GOVERNOR,
            BW_AVAILABLE_FREQUENCIES,
            GPU_GOVERNOR,
            GPU_AVAILABLE_FREQUENCIES,
        ] {
            let text = d.sysfs_read(path).unwrap();
            assert!(text.trim().parse::<u64>().is_err(), "{path} is text");
            assert_eq!(
                d.sysfs_read_u64(path),
                Err(SocError::InvalidValue {
                    path: path.to_string(),
                    value: text,
                })
            );
        }
        // Read-only numeric files read like the writable ones.
        assert_eq!(d.sysfs_read_u64(CPU_CUR_FREQ), Ok(300_000));
        assert_eq!(d.sysfs_read_u64(BW_CUR_FREQ), Ok(762));
    }

    #[test]
    fn decimal_matches_to_string() {
        let mut values = vec![0, 9, 10, u64::MAX - 1, u64::MAX];
        let mut power = 1u64;
        loop {
            values.extend([power - 1, power, power + 1]);
            match power.checked_mul(10) {
                Some(next) => power = next,
                None => break,
            }
        }
        for v in values {
            assert_eq!(Decimal::new(v).as_str(), v.to_string());
        }
    }

    #[test]
    fn stock_governor_names_are_borrowed_others_owned() {
        assert!(matches!(
            governor_name(&CPU_GOVERNORS, "userspace"),
            Cow::Borrowed("userspace")
        ));
        assert!(matches!(
            governor_name(&GPU_GOVERNORS, "warp-speed"),
            Cow::Owned(ref name) if name == "warp-speed"
        ));
    }
}
