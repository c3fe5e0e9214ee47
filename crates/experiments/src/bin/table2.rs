//! Table II — the CPU frequency and memory bandwidth ladders.

use asgov_soc::DvfsTable;

fn main() {
    asgov_util::args::none();
    let t = DvfsTable::nexus6();
    println!("=== Table II: Nexus 6 operating points (paper §IV-A) ===\n");
    println!(
        "{:<4} {:>12}   {:<4} {:>12}",
        "#", "CPU (GHz)", "#", "Mem (MBps)"
    );
    for i in 0..t.num_freqs().max(t.num_bws()) {
        let f = if i < t.num_freqs() {
            format!("{:.4}", t.freq(asgov_soc::FreqIndex(i)).0)
        } else {
            String::new()
        };
        let b = if i < t.num_bws() {
            format!("{:.0}", t.bw(asgov_soc::BwIndex(i)).0)
        } else {
            String::new()
        };
        println!(
            "{:<4} {:>12}   {:<4} {:>12}",
            i + 1,
            f,
            if i < t.num_bws() {
                (i + 1).to_string()
            } else {
                String::new()
            },
            b
        );
    }
}
