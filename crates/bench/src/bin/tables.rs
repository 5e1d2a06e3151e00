//! Regenerates the paper's evaluation tables.
//!
//! ```text
//! cargo run -p nrmi-bench --bin tables -- all        # tables 1-6 + checks
//! cargo run -p nrmi-bench --bin tables -- table4     # one table
//! cargo run -p nrmi-bench --bin tables -- loc        # §5.3.2 LoC accounting
//! cargo run -p nrmi-bench --bin tables -- checks     # §5.3.3 observations
//! cargo run -p nrmi-bench --bin tables -- check      # nrmi-check gate (exit 1 on errors)
//! ```

use nrmi_bench::report::report;

/// Counting allocator: makes `tables -- hotpath` report real alloc
/// traffic. Two relaxed atomic adds per allocation; negligible for every
/// other command.
#[global_allocator]
static ALLOC: nrmi_bench::alloc_count::CountingAlloc = nrmi_bench::alloc_count::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("all");
    let compare = !args.iter().any(|a| a == "--bare");
    if let Some(text) = report(command, compare) {
        print!("{text}");
        return;
    }
    match command {
        "warm" => {
            let rows = nrmi_bench::warm::run_warm_ablation(1024);
            println!("{}", nrmi_bench::warm::render_warm_ablation(1024, &rows));
        }
        "faults" => {
            use nrmi_bench::faults;
            let report = faults::run_faults();
            println!("{}", faults::render_faults(&report));
            let json = faults::to_json(&report);
            let path = args
                .iter()
                .position(|a| a == "--out")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str)
                .unwrap_or("BENCH_faults.json");
            match std::fs::write(path, &json) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
            if !faults::at_most_once_violations(&report).is_empty() {
                std::process::exit(1);
            }
        }
        "scaling" => {
            use nrmi_bench::scaling;
            let report = scaling::run_scaling();
            println!("{}", scaling::render_scaling(&report));
            let json = scaling::to_json(&report);
            let path = args
                .iter()
                .position(|a| a == "--out")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str)
                .unwrap_or("BENCH_scaling.json");
            match std::fs::write(path, &json) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
            if !scaling::scaling_violations(&report).is_empty() {
                std::process::exit(1);
            }
        }
        "hotpath" => {
            use nrmi_bench::hotpath;
            let after = hotpath::run_hotpath(hotpath::SIZE);
            println!("{}", hotpath::render_hotpath(&hotpath::BASELINE, &after));
            let wire = hotpath::run_wire(hotpath::SIZE);
            println!("{}", hotpath::render_wire(&wire));
            let json = hotpath::to_json(&hotpath::BASELINE, &after, &wire);
            let path = args
                .iter()
                .position(|a| a == "--out")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str)
                .unwrap_or("BENCH_hotpath.json");
            match std::fs::write(path, &json) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
            let violations = hotpath::hotpath_violations(&after, &wire);
            if !violations.is_empty() {
                println!("[FAIL] hot-path budget violations:");
                for v in &violations {
                    println!("  - {v}");
                }
                std::process::exit(1);
            }
            println!("[PASS] warm allocation budget and batched-wire copy ceiling hold");
        }
        "check" => {
            // The nrmi-check verification gate: schema analysis, registry
            // drift diff, and the exhaustive protocol model check. CI
            // fails the build on any error-severity diagnostic.
            let cfg = nrmi_check::ModelCheckConfig::default();
            let report = nrmi_check::self_check(&cfg);
            if args.iter().any(|a| a == "--json") {
                println!("{}", report.to_json());
            } else {
                println!("{}", report.render());
            }
            let (errors, warnings, infos) = report.counts();
            eprintln!("nrmi-check: {errors} error(s), {warnings} warning(s), {infos} info(s)");
            if report.has_errors() {
                std::process::exit(1);
            }
        }
        _ => {
            eprintln!("usage: tables [all|loc|check|checks|sweep|delta|warm|hotpath|faults|scaling|leak|semantics|table1..table7] [--bare]");
            std::process::exit(2);
        }
    }
}
