//! Seeded violations inside a nested cargo workspace (D2, P1). None
//! of them may be reported: the walk stops at `perfbench/Cargo.toml`.

use std::time::Instant;

fn main() {
    let t = Instant::now(); // seeded D2 (must not be reported)
    let v: Option<u64> = Some(t.elapsed().as_nanos() as u64);
    println!("{}", v.unwrap()); // seeded P1 (must not be reported)
}
