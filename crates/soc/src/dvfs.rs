//! DVFS operating-point tables.
//!
//! The frequency and bandwidth ladders reproduce Table II of the paper —
//! the 18 CPU clock frequencies and 13 memory-bus bandwidths supported by
//! the Snapdragon 805 in the Nexus 6.

use std::borrow::Cow;
use std::fmt;

/// The 18 CPU clock frequencies (GHz) of the Nexus 6 (paper Table II).
pub const NEXUS6_CPU_FREQS_GHZ: [f64; 18] = [
    0.3000, 0.4224, 0.6528, 0.7296, 0.8832, 0.9600, 1.0368, 1.1904, 1.2672, 1.4976, 1.5744, 1.7280,
    1.9584, 2.2656, 2.4576, 2.4960, 2.5728, 2.6496,
];

/// The 13 memory-bus bandwidths (MBps) of the Nexus 6 (paper Table II).
pub const NEXUS6_MEM_BWS_MBPS: [f64; 13] = [
    762.0, 1144.0, 1525.0, 2288.0, 3051.0, 3952.0, 4684.0, 5996.0, 7019.0, 8056.0, 10101.0,
    12145.0, 16250.0,
];

/// The Krait-like core voltage ladder `V(f) = 0.55 + 0.23·f` (V, f in
/// GHz): ≈ 0.62 V at 300 MHz to ≈ 1.16 V at 2.65 GHz, the 28 nm HPm
/// envelope.
const fn krait_volts(ghz: f64) -> f64 {
    0.55 + 0.23 * ghz
}

/// [`krait_volts`] over the Nexus 6 ladder, evaluated at compile time
/// (IEEE arithmetic, so the same bits as at run time), so
/// [`DvfsTable::nexus6`] borrows all three of its ladders.
static NEXUS6_VOLTS: [f64; NEXUS6_CPU_FREQS_GHZ.len()] = {
    let mut volts = [0.0; NEXUS6_CPU_FREQS_GHZ.len()];
    let mut i = 0;
    while i < volts.len() {
        // asgov-analyze: allow(hot-path-index): const-evaluated, `i` bounded by the loop
        volts[i] = krait_volts(NEXUS6_CPU_FREQS_GHZ[i]);
        i += 1;
    }
    volts
};

/// Index into the CPU frequency ladder (0-based; the paper numbers 1–18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FreqIndex(pub usize);

/// Index into the memory bandwidth ladder (0-based; the paper numbers 1–13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BwIndex(pub usize);

impl fmt::Display for FreqIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Display in the paper's 1-based numbering.
        write!(f, "f{}", self.0 + 1)
    }
}

impl fmt::Display for BwIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bw{}", self.0 + 1)
    }
}

/// A CPU clock frequency in GHz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct CpuFreq(pub f64);

impl CpuFreq {
    /// Frequency in Hz.
    pub fn hz(self) -> f64 {
        self.0 * 1e9
    }

    /// Frequency in kHz, as exposed through `cpufreq` sysfs files.
    pub fn khz(self) -> u64 {
        (self.0 * 1e6).round() as u64
    }
}

impl fmt::Display for CpuFreq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} GHz", self.0)
    }
}

/// A memory-bus bandwidth in MBps.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct MemBw(pub f64);

impl MemBw {
    /// Bandwidth in bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0 * 1e6
    }
}

impl fmt::Display for MemBw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0} MBps", self.0)
    }
}

/// The DVFS operating points of a device: CPU frequency ladder, memory
/// bandwidth ladder, and the voltage at each CPU operating point.
///
/// # Example
///
/// ```
/// use asgov_soc::{DvfsTable, FreqIndex};
///
/// let table = DvfsTable::nexus6();
/// assert_eq!(table.num_freqs(), 18);
/// // The paper's frequency No. 10 — where the interactive governor's
/// // hispeed jump lands.
/// assert_eq!(table.freq(FreqIndex(9)).0, 1.4976);
/// assert_eq!(table.freq_at_least(1.3), FreqIndex(9));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsTable {
    // Borrowed statics for the Nexus 6 table, so building (or cloning)
    // a device's table allocates nothing; owned for custom ladders.
    freqs_ghz: Cow<'static, [f64]>,
    bws_mbps: Cow<'static, [f64]>,
    volts: Cow<'static, [f64]>,
}

impl DvfsTable {
    /// Build a table from explicit frequency (GHz) and bandwidth (MBps)
    /// ladders. Voltages follow a Krait-like linear ladder
    /// `V(f) = 0.55 + 0.23·f` (≈ 0.62 V at 300 MHz to ≈ 1.16 V at
    /// 2.65 GHz, the 28 nm HPm envelope).
    ///
    /// The table owns copies of the ladders; [`DvfsTable::nexus6`]
    /// borrows static ones instead.
    ///
    /// # Panics
    ///
    /// Panics if either ladder is empty or not strictly increasing.
    pub fn new(freqs_ghz: &[f64], bws_mbps: &[f64]) -> Self {
        assert!(!freqs_ghz.is_empty(), "frequency ladder must be non-empty");
        assert!(!bws_mbps.is_empty(), "bandwidth ladder must be non-empty");
        assert!(
            // asgov-analyze: allow(hot-path-index): windows(2) yields exactly 2 elements
            freqs_ghz.windows(2).all(|w| w[0] < w[1]),
            "frequency ladder must be strictly increasing"
        );
        assert!(
            // asgov-analyze: allow(hot-path-index): windows(2) yields exactly 2 elements
            bws_mbps.windows(2).all(|w| w[0] < w[1]),
            "bandwidth ladder must be strictly increasing"
        );
        Self {
            freqs_ghz: Cow::Owned(freqs_ghz.to_vec()),
            bws_mbps: Cow::Owned(bws_mbps.to_vec()),
            volts: freqs_ghz.iter().map(|&f| krait_volts(f)).collect(),
        }
    }

    /// The Nexus 6 / Snapdragon 805 table (paper Table II). Borrows
    /// static ladders: it allocates nothing.
    pub fn nexus6() -> Self {
        Self {
            freqs_ghz: Cow::Borrowed(&NEXUS6_CPU_FREQS_GHZ),
            bws_mbps: Cow::Borrowed(&NEXUS6_MEM_BWS_MBPS),
            volts: Cow::Borrowed(&NEXUS6_VOLTS),
        }
    }

    /// Number of CPU frequency operating points.
    pub fn num_freqs(&self) -> usize {
        self.freqs_ghz.len()
    }

    /// Number of memory bandwidth operating points.
    pub fn num_bws(&self) -> usize {
        self.bws_mbps.len()
    }

    /// The frequency at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn freq(&self, idx: FreqIndex) -> CpuFreq {
        // asgov-analyze: allow(hot-path-index): documented panicking accessor; indices come from this table
        CpuFreq(self.freqs_ghz[idx.0])
    }

    /// The bandwidth at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn bw(&self, idx: BwIndex) -> MemBw {
        // asgov-analyze: allow(hot-path-index): documented panicking accessor; indices come from this table
        MemBw(self.bws_mbps[idx.0])
    }

    /// The CPU core voltage (V) at frequency index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn voltage(&self, idx: FreqIndex) -> f64 {
        // asgov-analyze: allow(hot-path-index): documented panicking accessor; indices come from this table
        self.volts[idx.0]
    }

    /// Lowest frequency index.
    pub fn min_freq(&self) -> FreqIndex {
        FreqIndex(0)
    }

    /// Highest frequency index.
    pub fn max_freq(&self) -> FreqIndex {
        FreqIndex(self.freqs_ghz.len() - 1)
    }

    /// Lowest bandwidth index.
    pub fn min_bw(&self) -> BwIndex {
        BwIndex(0)
    }

    /// Highest bandwidth index.
    pub fn max_bw(&self) -> BwIndex {
        BwIndex(self.bws_mbps.len() - 1)
    }

    /// Iterator over all frequency indices, lowest first.
    pub fn freq_indices(&self) -> impl Iterator<Item = FreqIndex> {
        (0..self.freqs_ghz.len()).map(FreqIndex)
    }

    /// Iterator over all bandwidth indices, lowest first.
    pub fn bw_indices(&self) -> impl Iterator<Item = BwIndex> {
        (0..self.bws_mbps.len()).map(BwIndex)
    }

    /// The smallest frequency index whose frequency is ≥ `ghz`, or the
    /// maximum index if `ghz` is above the ladder.
    pub fn freq_at_least(&self, ghz: f64) -> FreqIndex {
        match self.freqs_ghz.iter().position(|&f| f >= ghz) {
            Some(i) => FreqIndex(i),
            None => self.max_freq(),
        }
    }

    /// The smallest bandwidth index whose bandwidth is ≥ `mbps`, or the
    /// maximum index if `mbps` is above the ladder.
    pub fn bw_at_least(&self, mbps: f64) -> BwIndex {
        match self.bws_mbps.iter().position(|&b| b >= mbps) {
            Some(i) => BwIndex(i),
            None => self.max_bw(),
        }
    }

    /// Parse a frequency value in kHz (as written to `scaling_setspeed`)
    /// to the nearest exact ladder entry, if any.
    pub fn freq_from_khz(&self, khz: u64) -> Option<FreqIndex> {
        self.freqs_ghz
            .iter()
            .position(|&f| (f * 1e6).round() as u64 == khz)
            .map(FreqIndex)
    }

    /// Parse a bandwidth in MBps to the exact ladder entry, if any.
    pub fn bw_from_mbps(&self, mbps: u64) -> Option<BwIndex> {
        self.bws_mbps
            .iter()
            .position(|&b| b.round() as u64 == mbps)
            .map(BwIndex)
    }
}

impl Default for DvfsTable {
    fn default() -> Self {
        Self::nexus6()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_nexus6_table_equals_the_built_one() {
        let built = DvfsTable::new(&NEXUS6_CPU_FREQS_GHZ, &NEXUS6_MEM_BWS_MBPS);
        let table = DvfsTable::nexus6();
        assert_eq!(table, built);
        for i in table.freq_indices() {
            assert_eq!(table.voltage(i).to_bits(), built.voltage(i).to_bits());
        }
        assert!(matches!(table.volts, Cow::Borrowed(_)));
    }

    #[test]
    fn nexus6_ladder_sizes_match_paper() {
        let t = DvfsTable::nexus6();
        assert_eq!(t.num_freqs(), 18);
        assert_eq!(t.num_bws(), 13);
    }

    #[test]
    fn ladders_are_strictly_increasing() {
        let t = DvfsTable::nexus6();
        for w in NEXUS6_CPU_FREQS_GHZ.windows(2) {
            assert!(w[0] < w[1]);
        }
        for w in NEXUS6_MEM_BWS_MBPS.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(t.freq(t.min_freq()).0, 0.3);
        assert_eq!(t.freq(t.max_freq()).0, 2.6496);
        assert_eq!(t.bw(t.min_bw()).0, 762.0);
        assert_eq!(t.bw(t.max_bw()).0, 16250.0);
    }

    #[test]
    fn voltage_ladder_is_monotone() {
        let t = DvfsTable::nexus6();
        let v: Vec<f64> = t.freq_indices().map(|i| t.voltage(i)).collect();
        assert!(v.windows(2).all(|w| w[0] < w[1]));
        assert!(v[0] > 0.6 && v[v.len() - 1] < 1.2, "plausible Krait volts");
    }

    #[test]
    fn freq_at_least_finds_bracketing_point() {
        let t = DvfsTable::nexus6();
        assert_eq!(t.freq_at_least(0.0), FreqIndex(0));
        assert_eq!(t.freq_at_least(0.3), FreqIndex(0));
        assert_eq!(t.freq_at_least(0.31), FreqIndex(1));
        assert_eq!(t.freq_at_least(1.4976), FreqIndex(9));
        assert_eq!(t.freq_at_least(99.0), FreqIndex(17));
    }

    #[test]
    fn bw_at_least_finds_bracketing_point() {
        let t = DvfsTable::nexus6();
        assert_eq!(t.bw_at_least(0.0), BwIndex(0));
        assert_eq!(t.bw_at_least(763.0), BwIndex(1));
        assert_eq!(t.bw_at_least(1e9), BwIndex(12));
    }

    #[test]
    fn khz_round_trip() {
        let t = DvfsTable::nexus6();
        for i in t.freq_indices() {
            let khz = t.freq(i).khz();
            assert_eq!(t.freq_from_khz(khz), Some(i));
        }
        assert_eq!(t.freq_from_khz(123), None);
    }

    #[test]
    fn mbps_round_trip() {
        let t = DvfsTable::nexus6();
        for i in t.bw_indices() {
            let mbps = t.bw(i).0.round() as u64;
            assert_eq!(t.bw_from_mbps(mbps), Some(i));
        }
        assert_eq!(t.bw_from_mbps(1), None);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_ladder() {
        let _ = DvfsTable::new(&[1.0, 0.5], &[100.0]);
    }

    #[test]
    fn display_uses_paper_numbering() {
        assert_eq!(FreqIndex(9).to_string(), "f10");
        assert_eq!(BwIndex(0).to_string(), "bw1");
        assert_eq!(CpuFreq(1.4976).to_string(), "1.4976 GHz");
        assert_eq!(MemBw(762.0).to_string(), "762 MBps");
    }
}
