//! The psta benchmark: three seeded workloads against the public APIs
//! of `pep-netlist`, `pep-celllib`, `pep-core`, `pep-dist` and
//! `pep-serve`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-iscas|whatif-sizing|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). The lines above
//! it repeat the numbers under workload-specific names. README.md maps
//! every metric to its workload and layer.

mod cold;
mod counter;
mod layers;
mod report;
mod serve;
mod whatif;

use std::process::ExitCode;

/// Whether another round as long as the average of the `rounds` so far
/// still ends within `seconds` of `started` (traced runs repeat long
/// rounds and must not overrun their budget by a whole round).
fn fits_another(started: std::time::Instant, rounds: usize, seconds: f64) -> bool {
    let spent = started.elapsed().as_secs_f64();
    spent + spent / rounds.max(1) as f64 <= seconds
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        traced: traced.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = counter::init() {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let outcome = match args.workload.as_str() {
        "cold-iscas" => cold::run(args.seed, args.seconds, args.traced),
        "whatif-sizing" => whatif::run(args.seed, args.seconds, args.traced),
        "serve-mixed" => match serve::run(args.seed, args.seconds, args.traced) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: serve-mixed: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} (cold-iscas, whatif-sizing, serve-mixed)"
            );
            return ExitCode::from(2);
        }
    };
    for (name, value, unit) in &outcome.named {
        println!("{}: {name} = {value} {unit}", args.workload);
    }
    match report::result_line(&outcome, args.traced) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
