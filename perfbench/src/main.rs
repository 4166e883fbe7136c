//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a fingerprint line, one line per metric, and as its last line the
//! JSON result. Exits 1 when any correctness check failed, 2 on bad
//! arguments.

use perfbench::report::{self, Values};
use perfbench::run::run;
use perfbench::workload::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; expected one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn print_metrics(values: &Values) {
    for (name, unit, v) in values {
        match v {
            Some(x) => println!("{name:<32} {x:>16.6} {unit}"),
            None => println!("{name:<32} {:>16} {unit}", "-"),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = args.workload.spec(args.seconds);
    let untraced = run(&spec, args.seed, false);
    let traced = args.trace.then(|| run(&spec, args.seed, true));
    let values = if let Some(traced) = &traced {
        let values = report::per_layer(traced, &untraced);
        let path = PathBuf::from(".bench_out").join(format!(
            "{}-seed{}.trace.json",
            spec.workload.name(),
            args.seed
        ));
        if let Err(e) = report::write_trace(&path, traced, &values) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("trace written to {}", path.display());
        values
    } else {
        report::end_to_end(&untraced)
    };
    println!("fingerprint {}", report::fingerprint(&untraced));
    print_metrics(&values);
    let missing = report::missing(&values);
    let mut failed = missing.len() as u64;
    let mut attempted = missing.len() as u64;
    for name in &missing {
        println!("FAILED: metric {name} has no sample");
    }
    for o in std::iter::once(&untraced).chain(&traced) {
        failed += o.failed();
        attempted += o.attempted;
        for f in &o.failures {
            println!("FAILED: {f}");
        }
        if o.reader.failed > 0 {
            println!("FAILED: {} reader calls returned a wrong or missing answer", o.reader.failed);
        }
        if o.saturated() {
            println!(
                "SATURATED: the driver was busy {:.1}% of the arrival window",
                100.0 * o.busy_frac()
            );
        }
    }
    println!("{}", report::result_line(attempted, failed, &values));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
