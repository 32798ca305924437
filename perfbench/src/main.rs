//! One measured simulation run, printed as one JSON line.
//!
//! ```text
//! perfbench --workload <near-capacity|overload|tenants> [--seed N]
//!           [--traced] [--audit]
//! ```
//!
//! `--traced` wraps the program's seams and records the per-layer spans;
//! `--audit` runs the trace auditor on every cluster after the timed
//! region. The process exits 1 if a correctness check fails and 2 on a
//! usage error.

use std::process::ExitCode;

use tetriserve_perfbench::{run, RunOptions, Workload};

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 1;

fn parse(args: &[String]) -> Result<RunOptions, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut traced = false;
    let mut audit = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--traced" => traced = true,
            "--audit" => audit = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunOptions {
        workload,
        seed,
        requests: workload.default_requests(),
        traced,
        audit,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <near-capacity|overload|tenants> [--seed N] \
                 [--traced] [--audit]"
            );
            return ExitCode::from(2);
        }
    };
    let result = run(options);
    println!("{}", result.to_json());
    for e in &result.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    if result.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
