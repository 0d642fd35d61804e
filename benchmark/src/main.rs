//! `pifo-benchmark`: the repository's one benchmark for the packet path.
//! See `README.md` in this directory and `BENCHMARK.json` at the root.

#![deny(unsafe_op_in_unsafe_fn)]

mod alloc;
mod compare;
mod json;
mod measure;
mod run;
mod stack;

use json::{obj, Json};
use run::{Budget, RunConfig};
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const DEFAULT_SEED: u64 = 0xC0FFEE;
const TRACE_DIR: &str = "target/pifo-benchmark";
/// Simulated-time scale of `--smoke` (about 20 K packets per workload).
const SMOKE_SCALE: f64 = 0.05;

const USAGE: &str = "usage:
  pifo-benchmark run [--workload W] [--seed N] [--seconds S | --passes N]
                     [--trace [0|1]] [--repeat K] [--smoke] [--out FILE]
  pifo-benchmark compare A.json B.json

run      without --workload runs all six workloads, one process each;
         --trace is a separate run that prints the per-layer metrics.
compare  judges set B against set A by the bounds in BENCHMARK.json and
         exits non-zero on a regression or an exact value that differs.";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    budget: Budget,
    trace: bool,
    repeat: u64,
    smoke: bool,
    out: Option<String>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        budget: Budget::Passes(run::PASSES_PER_STREAM),
        trace: false,
        repeat: 1,
        smoke: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !stack::WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload '{w}' (one of: {})",
                        stack::WORKLOADS.join(", ")
                    ));
                }
                out.workload = Some(w);
            }
            "--seed" => {
                out.seed = parse_u64(&value("a number")?).ok_or("--seed needs a number")?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                out.budget = Budget::Seconds(s);
            }
            "--passes" => {
                let n = parse_u64(&value("a count")?).ok_or("--passes needs a count")? as usize;
                if !(1..=100_000).contains(&n) {
                    return Err("--passes must be in 1..=100000".to_string());
                }
                out.budget = Budget::Passes(n);
            }
            "--repeat" => {
                out.repeat = parse_u64(&value("a count")?).ok_or("--repeat needs a count")?;
                if !(1..=1000).contains(&out.repeat) {
                    return Err("--repeat must be in 1..=1000".to_string());
                }
            }
            "--trace" => {
                // The driver passes `--trace 0|1`; by hand a bare flag.
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => out.smoke = true,
            "--out" => out.out = Some(value("a file name")?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(out)
}

fn budget_flags(b: Budget) -> [String; 2] {
    match b {
        Budget::Passes(n) => ["--passes".to_string(), n.to_string()],
        Budget::Seconds(s) => ["--seconds".to_string(), s.to_string()],
    }
}

/// All six workloads, each in a process of its own so that
/// `peak_rss_mib` is the workload's and not its predecessors'.
fn run_all(args: &RunArgs) -> Result<Vec<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut records = Vec::new();
    for rep in 0..args.repeat {
        for workload in stack::WORKLOADS {
            let seed = args.seed.wrapping_add(rep);
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", workload, "--seed", &seed.to_string()])
                .args(budget_flags(args.budget))
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdout(Stdio::piped());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let child = cmd
                .output()
                .map_err(|e| format!("cannot run {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let mut record = None;
            for line in stdout.lines() {
                match line.strip_prefix("record: ") {
                    Some(r) => record = json::parse(r).ok(),
                    None if line.starts_with('{') => {}
                    None => println!("{line}"),
                }
            }
            match record {
                Some(r) => records.push(r),
                None => return Err(format!("{workload} produced no record ({})", child.status)),
            }
        }
    }
    Ok(records)
}

fn write_out(path: &str, args: &RunArgs, records: Vec<Json>) -> Result<(), String> {
    let Json::Obj(mut envelope) = measure::envelope() else {
        unreachable!("the envelope is an object");
    };
    envelope.push(("seed".to_string(), Json::Num(args.seed as f64)));
    envelope.push(("repeat".to_string(), Json::Num(args.repeat as f64)));
    envelope.push((
        "budget".to_string(),
        Json::Str(run::describe_budget(args.budget)),
    ));
    let doc = obj([
        ("envelope", Json::Obj(envelope)),
        ("runs", Json::Arr(records)),
    ]);
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    if cfg!(debug_assertions) {
        return Err(
            "refusing to measure a debug build: run with `cargo run --release`".to_string(),
        );
    }
    if let Some(load) = measure::load_average_1m() {
        let quiet = measure::nproc().saturating_sub(1) as f64;
        if load > quiet {
            eprintln!(
                "warning: 1-minute load average {load:.2} exceeds nproc - 1 = {quiet}; \
                 timings will be noisy"
            );
        }
    }

    let (records, correct) = match &args.workload {
        Some(workload) => {
            let record = run::run_workload(&RunConfig {
                workload: workload.clone(),
                seed: args.seed,
                budget: args.budget,
                trace: args.trace,
                streams: run::STREAMS,
                scale: if args.smoke { SMOKE_SCALE } else { 1.0 },
                trace_dir: Some(TRACE_DIR.into()),
            })?;
            println!("record: {}", record.to_json().render());
            (vec![record.to_json()], Some(record))
        }
        None => (run_all(&args)?, None),
    };
    if let Some(path) = &args.out {
        write_out(path, &args, records.clone())?;
    }
    // The last line of standard output is the result the driver reads.
    let ok = match correct {
        Some(record) => {
            println!("{}", record.result_line().render());
            record.correct
        }
        None => {
            let sum = |key: &str| -> f64 {
                records
                    .iter()
                    .filter_map(|r| r.get(key).and_then(Json::as_f64))
                    .sum()
            };
            let ok = records
                .iter()
                .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
            let summary = obj([
                ("correct", Json::Bool(ok)),
                ("attempted", Json::Num(sum("attempted"))),
                ("failed", Json::Num(sum("failed"))),
                ("runs", Json::Num(records.len() as f64)),
            ]);
            println!("{}", summary.render());
            ok
        }
    };
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pifo-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use run::RunRecord;
    use std::collections::BTreeSet;

    fn smoke(workload: &str, seed: u64, trace: bool) -> RunRecord {
        run::run_workload(&RunConfig {
            workload: workload.to_string(),
            seed,
            budget: Budget::Passes(3),
            trace,
            streams: 2,
            scale: SMOKE_SCALE,
            trace_dir: None,
        })
        .expect("smoke run")
    }

    fn names(record: &RunRecord) -> Vec<String> {
        record.metrics.iter().map(|m| m.name.clone()).collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// All six workloads at smoke scale, untraced and traced: no check
    /// fails, the printed names are BENCHMARK.json's, same seed repeats
    /// exactly, another seed does not.
    #[test]
    fn smoke_runs_match_the_contract_and_repeat_exactly() {
        let spec = compare::spec();
        assert_eq!(spec.workloads, stack::WORKLOADS.map(str::to_string));
        let e2e: Vec<String> = spec.end_to_end.iter().map(|m| m.name.clone()).collect();
        let layers: Vec<String> = spec.per_layer.iter().map(|m| m.name.clone()).collect();
        for name in e2e.iter().chain(&layers).chain(&spec.workloads) {
            assert!(well_formed(name), "bad name {name:?}");
        }
        let all: BTreeSet<&String> = e2e.iter().chain(&layers).collect();
        assert_eq!(all.len(), e2e.len() + layers.len(), "names are used once");
        assert!(e2e.contains(&"setup_s".to_string()));
        for exact in compare::EXACT_COUNTS {
            assert!(layers.iter().any(|n| n == exact), "{exact} is not a metric");
        }

        for workload in stack::WORKLOADS {
            let a = smoke(workload, DEFAULT_SEED, false);
            let other = smoke(workload, DEFAULT_SEED + 1, false);
            for r in [&a, &other] {
                assert!(r.correct && r.failed == 0, "{workload}: failed checks");
                assert!(r.attempted > 0);
                assert_eq!(names(r), e2e, "{workload}: end-to-end names");
                for (m, s) in r.metrics.iter().zip(&spec.end_to_end) {
                    assert_eq!(m.unit, s.unit, "{workload}: unit of {}", m.name);
                    assert!(m.value.is_finite() && m.value > 0.0, "{workload}: {m:?}");
                }
            }
            assert_ne!(a.digest, other.digest, "{workload}: the seed must matter");

            let ta = smoke(workload, DEFAULT_SEED, true);
            let tb = smoke(workload, DEFAULT_SEED, true);
            assert!(ta.correct && tb.correct, "{workload}: traced checks");
            assert_eq!(ta.digest, tb.digest, "{workload}: same seed, same digest");
            assert_eq!(names(&ta), layers, "{workload}: per-layer names");
            for (m, s) in ta.metrics.iter().zip(&spec.per_layer) {
                assert_eq!(m.unit, s.unit, "{workload}: unit of {}", m.name);
                assert!(m.value.is_finite(), "{workload}: {m:?}");
            }
            let value = |r: &RunRecord, name: &str| {
                r.metrics.iter().find(|m| m.name == name).map(|m| m.value)
            };
            for exact in compare::EXACT_COUNTS {
                assert_eq!(value(&ta, exact), value(&tb, exact), "{workload}: {exact}");
            }
            // The ladder is monotone where one rung contains another.
            let ns = |rung: &str| value(&ta, &format!("ladder.{rung}_ns_per_pkt")).unwrap();
            assert!(ns("tree1") >= ns("pifo_sorted"), "{workload}: tree1 < pifo");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let record = RunRecord {
            workload: "w".to_string(),
            seed: 1,
            trace: false,
            digest: 0xabc,
            streams: 1,
            passes: 3,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![run::Metric {
                name: "setup_s".to_string(),
                value: 0.8127,
                unit: "s",
            }],
        };
        assert_eq!(
            record.result_line().render(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn driver_and_hand_spellings_of_the_flags_parse() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let a = parse_run_args(&args(&[
            "--workload",
            "port1_hier5",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("port1_hier5"));
        assert_eq!((a.seed, a.trace), (7, false));
        assert_eq!(a.budget, Budget::Seconds(10.0));
        let b =
            parse_run_args(&args(&["--trace", "--seed", "0xC0FFEE", "--passes", "21"])).unwrap();
        assert!(b.trace && b.workload.is_none());
        assert_eq!((b.seed, b.budget), (DEFAULT_SEED, Budget::Passes(21)));
        assert_eq!(
            parse_run_args(&[]).unwrap().budget,
            Budget::Passes(run::PASSES_PER_STREAM)
        );
        assert!(parse_run_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_run_args(&args(&["--seconds", "0"])).is_err());
        assert!(parse_run_args(&args(&["--bogus"])).is_err());
    }
}
