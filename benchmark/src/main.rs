//! `neats-benchmark`: runs one workload (or all four) and prints every
//! declared metric as `name value unit`, then one JSON object per workload —
//! the last line of standard output is the driver's result object.
//!
//! ```text
//! neats-benchmark --neats PATH [--workload W] [--seed N] [--seconds S]
//!                 [--trace 0|1 | --traced] [--smoke] [--self-test] [--out DIR]
//! ```

use neats_benchmark::config::{Workload, FULL, SMOKE};
use neats_benchmark::metrics::{END_TO_END, PER_LAYER};
use neats_benchmark::pipeline::{self, Options, Report};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    self_test: bool,
    neats: PathBuf,
    out: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 0.0,
        traced: false,
        smoke: false,
        self_test: false,
        neats: PathBuf::new(),
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
                a.workloads = vec![w];
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => a.traced = value("0 or 1")? == "1",
            "--traced" => a.traced = true,
            "--smoke" => a.smoke = true,
            "--self-test" => a.self_test = true,
            "--neats" => a.neats = value("a path")?.into(),
            "--out" => a.out = value("a directory")?.into(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.neats.as_os_str().is_empty() {
        return Err(
            "--neats <path to the built `neats` binary> is required (run.sh passes it)".into(),
        );
    }
    if a.seconds <= 0.0 {
        a.seconds = if a.smoke { 3.0 } else { 23.0 };
    }
    Ok(a)
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Host fingerprint and run parameters; ends with the claim this PR makes
/// about performance, which is none.
fn summary(args: &Args, rep: &Report, workload: Workload) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"smoke\": {}, \
         \"cores\": {}, \"cpu\": {}, \"pinned\": {}, \"rustc\": {}, \"rustflags\": {}, \
         \"commit\": {}, \"server\": \"neats serve --threads 1\", \"connections\": 2, \
         \"claim\": null}}",
        json_str(workload.name()),
        args.seed,
        args.seconds,
        args.traced,
        args.smoke,
        rep.host.cores,
        json_str(&cpu),
        rep.host.pinned,
        json_str(&first_line("rustc", &["--version"])),
        json_str(&std::env::var("RUSTFLAGS").unwrap_or_default()),
        json_str(&first_line("git", &["rev-parse", "HEAD"])),
    )
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("neats-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let declared: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let mut all_correct = true;
    for &workload in &args.workloads {
        let opts = Options {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
            scale: if args.smoke { SMOKE } else { FULL },
            self_test: args.self_test,
            neats: args.neats.clone(),
            out_dir: args.out.clone(),
        };
        let mut rep = match pipeline::run(&opts) {
            Ok(rep) => rep,
            Err(e) => {
                // No result line: the run could not be carried out at all.
                eprintln!("neats-benchmark: {}: {e}", workload.name());
                return ExitCode::from(1);
            }
        };
        println!("workload {}", workload.name());
        let mut fields = Vec::new();
        for &(name, unit) in declared {
            match rep.values.get(name).copied().filter(|v| v.is_finite()) {
                Some(v) => {
                    println!("{name} {v} {unit}");
                    fields.push(format!(
                        "{}: {{\"value\": {v}, \"unit\": {}}}",
                        json_str(name),
                        json_str(unit)
                    ));
                }
                None => rep.faults.push(format!("metric {name} was not measured")),
            }
        }
        for note in &rep.notes {
            println!("note {note}");
        }
        for fault in &rep.faults {
            println!("fault {fault}");
        }
        println!("attempted {} failed {}", rep.attempted, rep.failed);
        println!("summary {}", summary(&args, &rep, workload));
        all_correct &= rep.correct();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            rep.correct(),
            rep.attempted.max(1),
            rep.failed,
            fields.join(", ")
        );
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
