//! The repository's benchmark: five workloads, six end-to-end metrics and
//! an outside-in layer trace, all through public API. See `README.md`.
//!
//! ```text
//! sc-benchmark --seed 42                       every workload, both passes
//! sc-benchmark --seed 42 --aa                  two interleaved sets; fails when they disagree
//! sc-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                              one run, one JSON result line
//! ```

mod ballast;
mod bench;
mod catalog;
mod probes;
mod report;
mod run;
mod serve;
mod spans;
mod stats;
mod workloads;

use run::Opts;
use sc_obs::json::Json;
use std::process::ExitCode;

const USAGE: &str =
    "usage: sc-benchmark [--seed N] [--seconds S] [--quick] [--traced] [--aa] [--self-test]
       sc-benchmark --workload NAME --seed N --seconds S --trace 0|1";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    traced_only: bool,
    aa: bool,
    self_test: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { seed: 42, ..Args::default() };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds: {s} is not a duration"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                };
            }
            "--quick" => args.quick = true,
            "--traced" => args.traced_only = true,
            "--aa" => args.aa = true,
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The one JSON line a `--workload` run ends with: every metric of `defs`,
/// a layer metric the workload's path does not cross reading 0.
fn result_line(o: &bench::Outcome, defs: &[catalog::MetricDef]) -> String {
    let metrics = defs
        .iter()
        .map(|d| {
            let value = o.get(d.name).unwrap_or(0.0);
            let entry = Json::Obj(vec![
                ("value".into(), Json::num(value)),
                ("unit".into(), Json::str(d.unit)),
            ]);
            (d.name.to_string(), entry)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(o.ops.failed() == 0)),
        ("attempted".into(), Json::num(o.ops.attempted as f64)),
        ("failed".into(), Json::num(o.ops.failed() as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_string()
}

fn one_workload(name: &str, args: &Args, opts: Opts) -> Result<u64, String> {
    let w = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let oracle = bench::oracle(w, args.seed, opts);
    let mut o = bench::run_workload(w, args.seed, args.seconds.unwrap_or(10.0), args.trace, opts)?;
    o.ops.one(oracle);
    for why in &o.ops.failures {
        eprintln!("failed: {why}");
    }
    if o.metrics.is_empty() {
        return Err(format!("{name}: operations failed before every metric was measured"));
    }
    if args.trace {
        let dir = bench::out_dir();
        let events = spans::chrome_events(&o.spans, 0, o.workload);
        std::fs::create_dir_all(&dir)
            .and_then(|()| {
                let path = dir.join(format!("trace-{name}.json"));
                std::fs::write(path, spans::chrome_document(events).to_string())
            })
            .map_err(|e| format!("writing the trace under {}: {e}", dir.display()))?;
    }
    let defs = if args.trace { catalog::PER_LAYER } else { catalog::END_TO_END };
    println!("{}", result_line(&o, defs));
    // A failed operation is the result line's to report; `--self-test`
    // exists to show that one also fails the command.
    Ok(if args.self_test { o.ops.failed() } else { 0 })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("sc-benchmark: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = Opts { quick: args.quick || args.self_test, self_test: args.self_test };
    let _ballast = ballast::Ballast::start();
    let outcome = match &args.workload {
        Some(name) => one_workload(name, &args, opts),
        None => {
            let mut suite = report::SuiteOpts::new(args.seed, opts);
            if let Some(s) = args.seconds {
                suite.seconds = s;
            }
            if args.aa {
                report::aa(&suite)
            } else {
                report::suite(&suite, args.traced_only)
            }
        }
    };
    match outcome {
        Ok(0) => ExitCode::SUCCESS,
        Ok(failed) => {
            eprintln!("sc-benchmark: {failed} failed operations or disagreements");
            ExitCode::FAILURE
        }
        Err(why) => {
            eprintln!("sc-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse("--workload lj_bsp_fine --seed 7 --seconds 10 --trace 1").expect("parses");
        assert_eq!(a.workload.as_deref(), Some("lj_bsp_fine"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), true));
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds").is_err());
        assert!(parse("--frobnicate").is_err());
        assert_eq!(parse("").expect("defaults").seed, 42);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let o = bench::Outcome {
            workload: "w",
            ops: run::Ops { attempted: 5, failures: vec![] },
            metrics: vec![("setup_s", 0.125), ("steps_per_s", 20.5)],
            samples: 0,
            spans: vec![],
        };
        let doc = Json::parse(&result_line(&o, catalog::END_TO_END)).expect("one JSON object");
        let keys: Vec<&str> =
            doc.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).expect("setup_s");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.125));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        let listed = doc.get("metrics").and_then(Json::as_object).expect("metrics").len();
        assert_eq!(listed, catalog::END_TO_END.len(), "every listed metric is printed");
    }
}
