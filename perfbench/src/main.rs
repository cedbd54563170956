//! End-to-end and per-layer benchmark of the replicated state machine.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --repeat <k> --workload <name>[,<name>...] --seconds <s> [--trace <0|1>]
//! perfbench --list
//! ```
//!
//! A run starts a 3-replica cluster several times (the median start +
//! election + replicated preload is `setup_s`), drives the workload for
//! `--seconds`, cuts the leader off to time the outage, reads every key
//! back, checks that all replicas hold the same state, and prints one JSON
//! object as its last line. `--trace 1` runs the same workload with the
//! decorators counting and prints the per-layer table instead. `--repeat`
//! re-runs this program over seeds and prints the steadiness report.
//!
//! No message delay is injected between nodes: every latency here is
//! processor and scheduler time on the host.

mod cluster;
mod gen;
mod layers;
mod repeat;
mod run;
mod stats;
mod sys;
mod trace;

use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    repeat: Option<usize>,
    list: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args::default();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                a.seconds = Some(
                    value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                a.repeat = Some(
                    value("--repeat")?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?,
                )
            }
            "--list" => a.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for w in run::WORKLOADS {
            println!("{:<20} {}", w.name, w.why);
        }
        return ExitCode::SUCCESS;
    }
    let Some(names) = args.workload else {
        eprintln!("perfbench: --workload is required (see --list)");
        return ExitCode::from(2);
    };
    let seconds = args.seconds.unwrap_or(10).max(1);
    if let Some(k) = args.repeat {
        return repeat::report(
            &names,
            k.max(1),
            args.seed.unwrap_or(1),
            seconds,
            args.trace,
        );
    }
    let Some(w) = run::WORKLOADS.iter().find(|w| w.name == names) else {
        eprintln!("perfbench: unknown workload {names} (see --list)");
        return ExitCode::from(2);
    };
    run::main(w, args.seed.unwrap_or(1), seconds, args.trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn command_line_is_checked() {
        let a = args("--workload open_kv_mem --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("open_kv_mem"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(3), Some(10), true));
        assert!(args("--trace 2").is_err());
        assert!(args("--seed x").is_err());
        assert!(args("--bogus").is_err());
        assert!(args("--seed").is_err());
    }
}
