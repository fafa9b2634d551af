//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, last on stdout, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits nonzero when any
//! frame failed or mismatched its reference, or the run could not finish.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::fingerprint::Fingerprint;
use perfbench::metrics::{result_line, table};
use perfbench::run::RunConfig;
use perfbench::run_workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds,
        traced: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        traced: args.traced,
    };
    let outcome = match run_workload(&args.workload, &cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let mut info = vec![
        ("workload", format!("\"{}\"", args.workload)),
        ("seed", args.seed.to_string()),
        ("traced", args.traced.to_string()),
    ];
    info.extend(outcome.info.iter().map(|(k, v)| (*k, v.clone())));
    println!(
        "fingerprint {}",
        Fingerprint::probe(Path::new(".")).to_json(&info)
    );
    let specs = table(args.traced);
    for spec in specs {
        if let Some((_, v)) = outcome.values.iter().find(|(n, _)| *n == spec.name) {
            println!("{} {} {v} {}", args.workload, spec.name, spec.unit);
        }
    }
    println!(
        "{} error_rate {} ratio",
        args.workload,
        outcome.error_rate()
    );

    let correct = outcome.failed == 0;
    match result_line(
        correct,
        outcome.attempted,
        outcome.failed,
        specs,
        &outcome.values,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {}: {} of {} frames failed or mismatched the reference",
            args.workload, outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}
