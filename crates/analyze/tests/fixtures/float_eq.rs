// Seeded violations for the float-eq rule. Scanned as
// crates/linprog/src/float_eq.rs; NOT compiled.

fn exactly_half(x: f64) -> bool {
    x == 0.5 // line 5: float-eq
}

fn not_zero(x: f64) -> bool {
    0.0 != x // line 9: float-eq
}

fn tolerant(x: f64) -> bool {
    (x - 0.5).abs() < 1e-12
}

fn integers_are_fine(n: u64) -> bool {
    n == 5 && n != 7
}

fn ranges_are_fine(n: usize) -> usize {
    (0..10).chain(0..=n).sum()
}

fn same_value(a: f64, b: f64) -> bool {
    a == b // line 25: float-eq
}

fn counted_exactly(n: u64, v: f64) -> bool {
    n as f64 == v // line 29: float-eq
}

fn bit_identical(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}
