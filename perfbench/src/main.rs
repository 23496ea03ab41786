//! The serving benchmark of record.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pa_pooled|pa_fresh|analytics_stream> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Seeded query traffic goes through the public serving API
//! (`PaCluster::serve`, `StreamGateway::run_with`) on two shards, and
//! every answer is checked against the benchmark's own oracles. With
//! `--trace 0` the last stdout line is a JSON object with the
//! end-to-end metrics; with `--trace 1` the run also re-executes every
//! measured batch through the layers' public functions with spans
//! around each call (see `replay.rs`), prints a per-layer self-time
//! table, writes the spans to `.bench_out/`, and reports the per-layer
//! metrics instead. `perfbench/README.md` defines every metric.

mod check;
mod gen;
mod replay;
mod report;
mod trace;
mod workloads;

use std::process::ExitCode;

use report::Outcome;

const USAGE: &str =
    "usage: perfbench --workload <pa_pooled|pa_fresh|analytics_stream> --seed <n> --seconds <s> --trace <0|1>";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_: std::num::ParseIntError| format!("bad value for {flag}: {value}");
        let bad_f = |_: std::num::ParseFloatError| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(bad_f)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome: Outcome = match args.workload.as_str() {
        "pa_pooled" => workloads::pa(&args, false),
        "pa_fresh" => workloads::pa(&args, true),
        "analytics_stream" => workloads::stream(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    outcome.print();
    if outcome.wrong > 0 {
        eprintln!("{} wrong answers", outcome.wrong);
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
