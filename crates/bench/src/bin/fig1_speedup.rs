//! Regenerates **Figure 1**: speedup gain for different operations when
//! running in isolation, as a function of SM count.
//!
//! Usage: `cargo run -p sgprs-bench --bin fig1_speedup [--csv]`

use sgprs_workload::{fig1, report};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = sgprs_bench::has_flag(&args, "--csv");
    let curves = fig1::generate();
    if csv {
        print!("{}", report::fig1_csv(&curves));
    } else {
        println!("== Figure 1: speedup gain in isolation (RTX 2080 Ti, 68 SMs) ==");
        print!("{}", report::fig1_table(&curves));
        println!();
        println!("paper endpoints: convolution 32x, max pooling 14x, others <= 7x, resnet18 ~23x");
    }
}
