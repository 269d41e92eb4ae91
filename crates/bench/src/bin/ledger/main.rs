//! `ledger` — the repo's one benchmark.
//!
//! A simulated consensus cluster runs on two clocks. The *virtual* clock
//! (goodput, commit latency, stalls) and every counter are fixed by the
//! seed and must repeat exactly; the *host* clock (how long the simulator
//! takes) bounds every experiment anyone can afford and drifts with the
//! box. The ledger puts both next to each other for four workloads, each
//! run on several protocol/configuration *cells* with identical traffic,
//! attributes every number to a layer, and checks the cluster's outputs.
//! See `README.md` beside this file for every definition.
//!
//! ```text
//! ledger [--seed N] [--workload NAME]... [--quick] [--out FILE]
//! ledger --workload NAME --seed N --seconds S --trace 0|1   (benchmark driver)
//! ledger diff A.json B.json
//! ledger schema                                             (prints BENCHMARK.json)
//! ```

mod cell;
mod diff;
mod json;
mod linear;
mod measure;
mod openloop;
mod probes;
mod report;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use measure::{CountingAlloc, RefKernel};
use report::{Rep, WorkloadResult};
use trace::Tracer;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Seconds one driver run measures; also written to `BENCHMARK.json`.
const RUN_SECONDS: u64 = 10;
/// Repetitions of a full ledger run.
const DEFAULT_REPS: usize = 5;
/// A driver run repeats for `--seconds`, but never fewer times than this:
/// the exact-repeat check needs something to compare and a median needs
/// three values.
const MIN_REPS: usize = 3;
/// Where the harness's own spans are written.
const TRACE_FILE: &str = "target/ledger/trace.json";

#[derive(Debug, Default)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    /// `Some` selects the benchmark-driver protocol.
    trace: Option<bool>,
    quick: bool,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name}; choose from {:?}",
                        workloads::NAMES
                    ));
                }
                args.workloads.push(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value("a file")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.trace.is_some() && args.workloads.len() != 1 {
        return Err("--trace needs exactly one --workload".to_string());
    }
    if args.seconds.is_some() && args.trace.is_none() {
        return Err("--seconds belongs to the driver protocol: add --trace".to_string());
    }
    if args.workloads.is_empty() {
        args.workloads = workloads::NAMES.iter().map(|s| s.to_string()).collect();
    }
    Ok(args)
}

/// How much of the ledger one invocation runs.
struct Plan {
    /// Windows are divided by this (10 under `--quick`).
    div: u64,
    /// Untraced repetitions: at least this many…
    min_reps: usize,
    /// …and more until this many seconds have passed.
    seconds: f64,
    traced: bool,
    probes: bool,
}

fn one_rep(
    workload: &workloads::Workload,
    seed: u64,
    traced: bool,
    refk: &mut RefKernel,
    tracer: &mut Tracer,
) -> Rep {
    let mut refs = vec![refk.run()];
    let mut cells = Vec::new();
    for spec in &workload.cells {
        cells.push(cell::run_cell(spec, seed, traced, tracer));
        refs.push(refk.run());
    }
    Rep { cells, refs }
}

fn run_workload(
    name: &'static str,
    seed: u64,
    plan: &Plan,
    probes: &[(&'static str, f64)],
    tracer: &mut Tracer,
) -> WorkloadResult {
    let workload = workloads::workload(name, plan.div);
    let mut refk = RefKernel::default();
    tracer.enter(name);
    let t0 = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < plan.min_reps || t0.elapsed().as_secs_f64() < plan.seconds {
        tracer.enter("rep");
        reps.push(one_rep(&workload, seed, false, &mut refk, tracer));
        tracer.exit();
    }
    let traced = plan.traced.then(|| {
        tracer
            .span("traced rep", |t| {
                one_rep(&workload, seed, true, &mut refk, t)
            })
            .0
    });
    let (mut result, report_s) = tracer.span("report", |_| {
        report::summarise(&workload, &reps, traced.as_ref(), probes)
    });
    result
        .per_layer
        .insert("harness.report_ms".to_string(), report_s * 1e3);
    tracer.exit();
    result
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &Args) -> Result<bool, String> {
    let mut tracer = Tracer::default();
    tracer.enter("run");
    let driver = args.trace.is_some();
    let traced = args.trace.unwrap_or(!args.quick);
    let plan = match args.trace {
        // The driver's traced run needs one untraced repetition beside
        // the traced one, to price the tracing.
        Some(true) => Plan {
            div: 1,
            min_reps: 1,
            seconds: 0.0,
            traced: true,
            probes: true,
        },
        Some(false) => Plan {
            div: 1,
            min_reps: MIN_REPS,
            seconds: args.seconds.unwrap_or(RUN_SECONDS as f64),
            traced: false,
            probes: false,
        },
        None if args.quick => Plan {
            div: 10,
            min_reps: 1,
            seconds: 0.0,
            traced: false,
            probes: false,
        },
        None => Plan {
            div: 1,
            min_reps: DEFAULT_REPS,
            seconds: 0.0,
            traced: true,
            probes: true,
        },
    };
    // Probes do not depend on the workload: once per invocation.
    let probes = if plan.probes {
        probes::run_all(&mut tracer)
    } else {
        Vec::new()
    };
    let mut results = Vec::new();
    for name in workloads::NAMES {
        if !args.workloads.iter().any(|w| w == name) {
            continue;
        }
        let r = run_workload(name, args.seed, &plan, &probes, &mut tracer);
        print!("{}", report::render(&r, args.seed, !driver || traced));
        results.push(r);
    }
    tracer.exit();
    if let Some(out) = &args.out {
        write_file(out, &report::results_json(args.seed, &results))?;
        println!("\nwrote {out}");
    }
    if traced {
        write_file(TRACE_FILE, &tracer.to_json())?;
        println!("wrote {TRACE_FILE} ({} spans)", tracer.spans().len());
    }
    let correct = results.iter().all(WorkloadResult::correct);
    if driver {
        println!("{}", report::driver_line(&results[0], traced));
    } else {
        println!(
            "\n{}: {} workload(s), seed {}",
            if correct {
                "all checks passed"
            } else {
                "CHECKS FAILED"
            },
            results.len(),
            args.seed
        );
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("schema") => {
            print!("{}", report::benchmark_json(RUN_SECONDS));
            ExitCode::SUCCESS
        }
        Some("diff") => {
            let [_, a, b] = argv.as_slice() else {
                eprintln!("usage: ledger diff <a.json> <b.json>");
                return ExitCode::from(2);
            };
            let read = |p: &String| {
                std::fs::read_to_string(p)
                    .map_err(|e| format!("{p}: {e}"))
                    .and_then(|t| json::parse(&t).map_err(|e| format!("{p}: {e}")))
            };
            match read(a)
                .and_then(|a| Ok((a, read(b)?)))
                .and_then(|(a, b)| diff::diff(&a, &b))
            {
                Ok((text, worse)) => {
                    print!("{text}");
                    if worse {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("ledger diff: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => match parse_args(&argv).and_then(|args| run(&args)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("ledger: {e}");
                ExitCode::from(2)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keeps the benchmark compiling and its correctness gate green in
    /// tier-1 without paying for a full run: every workload, windows
    /// divided by ten, one repetition, no probes.
    #[test]
    fn quick_run_passes_every_check() {
        let argv: Vec<String> = ["--quick", "--seed", "7"].map(String::from).to_vec();
        let args = parse_args(&argv).expect("valid arguments");
        assert_eq!(args.workloads.len(), 4);
        assert_eq!(run(&args), Ok(true));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "1"]).is_err(), "needs a workload");
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seconds", "5"]).is_err(), "needs --trace");
        assert!(parse(&["--seed"]).is_err());
        let a = parse(&[
            "--workload",
            "wan-paper",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "0",
        ])
        .expect("driver arguments");
        assert_eq!((a.seed, a.seconds, a.trace), (9, Some(3.0), Some(false)));
    }
}
