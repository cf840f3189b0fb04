//! Per-layer metrics: every workload rerun with allocation counting and
//! timers around each layer's calls, plus the layer probes.
//! Usage: `perfbench_traced --workload <name> --seed <n> --seconds <s>`.

use sgprs_bench::report::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::traced_main()
}
