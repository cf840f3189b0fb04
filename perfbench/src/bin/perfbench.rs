//! End-to-end metrics of one workload, with the system allocator and
//! no tracing. Usage: `perfbench --workload <name> --seed <n> --seconds <s>`.

fn main() -> std::process::ExitCode {
    perfbench::e2e_main()
}
