//! Chaos sweep: throughput/latency under escalating injected faults.
//!
//! Run: `cargo run --release -p reflex-bench --bin chaos [-- --smoke]`
//!
//! `--smoke` runs the CI-sized plan and exits non-zero if any injected
//! fault went unrecovered (requests exhausted their retry budget or
//! tenants stranded without a server) — the regression gate for the
//! recovery machinery.

use reflex_bench::chaos;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut result = chaos::build_sweep(smoke).run();
    println!(
        "# Chaos: recovery under escalating faults{}",
        if smoke { " (smoke)" } else { "" }
    );
    println!("{}", chaos::TSV_HEADER);
    result.print_tsv();
    let summary = chaos::faults_summary(&result);
    result.set_faults(summary);
    result.write_json_or_warn();
    reflex_bench::telemetry::flush("chaos");
    eprintln!(
        "[chaos] injected={} recovered={} unrecovered={} downtime={:.1}ms",
        summary.injected,
        summary.recovered,
        summary.unrecovered,
        summary.downtime_secs * 1_000.0
    );
    if smoke && summary.unrecovered > 0 {
        eprintln!(
            "[chaos] smoke gate FAILED: {} unrecovered faults",
            summary.unrecovered
        );
        std::process::exit(1);
    }
}
