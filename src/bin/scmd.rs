//! `scmd` — command-line driver for the shift-collapse MD library.
//!
//! ```text
//! scmd run      --spec PATH [--steps N]
//!               [--xyz PATH] [--metrics-json PATH] [--trace PATH] [--results PATH]
//! scmd bench    [--spec PATH] [--out PATH]
//! scmd serve    [--socket PATH] [--lanes N] [--queue N] [--slice N] [--state DIR]
//!               [--resume true] [--metrics-addr HOST:PORT]
//! scmd submit   --spec PATH [--socket PATH]      # returns the job id
//! scmd status   [--id job-N] [--socket PATH]     # one job, or the whole table
//! scmd watch    job-N [--every STEPS] [--count N] [--json true] [--socket PATH]
//! scmd dump     job-N [--out PATH] [--socket PATH]   # flight-recorder snapshot
//! scmd metrics  [--out PATH] [--socket PATH]     # Prometheus text exposition
//! scmd cancel   --id job-N [--socket PATH]
//! scmd results  --id job-N [--socket PATH] [--out PATH]
//! scmd shutdown [--socket PATH]                  # checkpoint jobs, stop the daemon
//! scmd patterns [--n N]           # pattern algebra summary
//! scmd model    --machine xeon|bgq [--grain N]   # cost-model report
//! ```
//!
//! Every workload-running verb is spec-driven: `--spec PATH` loads an
//! `sc-scenario/1` JSON document (see `scenarios/`), which is the only way
//! to describe a run — `scmd run` takes no scenario-defining flag besides
//! it (`--steps` shortens or lengthens the spec's run; the output flags
//! switch on the sinks they need).
//!
//! `--metrics-json PATH` streams one `Telemetry` JSON line per report block
//! (plus a final snapshot) to PATH; the layout is pinned by
//! `schema/metrics.schema.json` and validated in CI.
//!
//! `--trace PATH` records event-level traces and writes a Chrome Trace
//! Format file loadable in `chrome://tracing` or Perfetto. It arms a
//! default-capacity ring when the spec sets no `observability.ring`; a
//! spec's own `ring` (`0` included) wins.
//!
//! `--results PATH` writes the run's `sc-observables/1` document — the
//! same byte-stable layout `scmd serve` persists per finished job, so a
//! standalone run and a served job of the same spec can be diffed with
//! `cmp`.
//!
//! `scmd serve` is the multi-tenant job service: a Unix-socket daemon with
//! fair round-robin scheduling across worker lanes, a bounded queue with
//! typed backpressure, per-job supervision (rollback recovery under fault
//! storms), and checkpoint persistence so `--resume true` continues
//! interrupted jobs bitwise-exactly after a restart.
//!
//! The live telemetry plane watches jobs without perturbing them:
//! `scmd watch job-N` streams a running job's telemetry snapshots (same
//! documents as `--metrics-json`, bounded queues that drop-oldest under
//! backpressure), `scmd dump job-N` snapshots its flight-recorder trace
//! ring into a Chrome Trace file mid-run, and `scmd metrics` (or the
//! daemon's `--metrics-addr` HTTP listener) exports daemon- plus
//! per-job Prometheus series.
//!
//! Malformed command lines exit with status 2 and an error naming the
//! offending flag; runtime failures exit with status 1.

use shift_collapse_md::md::{write_xyz, CliError, Error, Method};
use shift_collapse_md::obs::trace::DEFAULT_CAPACITY;
use shift_collapse_md::pattern::{generate_fs, import_volume_cubic, shift_collapse, theory};
use shift_collapse_md::prelude::*;
use shift_collapse_md::serve::{Daemon, DaemonConfig, Request, Response, SchedulerConfig};
use shift_collapse_md::spec::{observables_doc, ScenarioSpec, SpecError};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};

type Flags = HashMap<String, String>;

fn main() {
    let mut args = std::env::args().skip(1);
    match dispatch(&mut args) {
        Ok(()) => {}
        Err(Error::Cli(e)) => {
            // A malformed command line names the offending flag and exits 2
            // (distinct from runtime failures, which exit 1).
            eprintln!("error: {e}");
            eprintln!("run `scmd help` for usage");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn dispatch(args: &mut impl Iterator<Item = String>) -> Result<(), Error> {
    let cmd = args.next().ok_or(CliError::MissingSubcommand)?;
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        print_usage();
        return Ok(());
    }
    // `watch`/`dump` take their job id positionally (`scmd watch job-3`)
    // as well as via `--id`.
    let mut rest: Vec<String> = args.collect();
    if matches!(cmd.as_str(), "watch" | "dump")
        && rest.first().is_some_and(|a| !a.starts_with("--"))
    {
        rest.insert(0, "--id".to_string());
    }
    let flags = parse_flags(&mut rest.into_iter())?;
    match cmd.as_str() {
        "run" => run(&flags),
        "bench" => bench(&flags),
        "serve" => serve(&flags),
        "submit" => submit(&flags),
        "status" => status(&flags),
        "watch" => watch(&flags),
        "dump" => dump(&flags),
        "metrics" => metrics(&flags),
        "cancel" => cancel(&flags),
        "results" => results(&flags),
        "shutdown" => shutdown(&flags),
        "patterns" => patterns(&flags),
        "model" => model(&flags),
        other => Err(CliError::UnknownSubcommand(other.into()).into()),
    }
}

fn print_usage() {
    println!(
        "scmd — shift-collapse molecular dynamics\n\n\
         USAGE:\n  scmd run      --spec PATH [--steps N] [--xyz PATH] [--metrics-json PATH]\n\
         \x20               [--trace PATH] [--results PATH]\n\
         \x20 scmd bench    [--spec PATH] [--out PATH]\n\
         \x20 scmd serve    [--socket PATH] [--lanes N] [--queue N] [--slice N]\n\
         \x20               [--state DIR] [--resume true] [--metrics-addr HOST:PORT]\n\
         \x20 scmd submit   --spec PATH [--socket PATH]\n\
         \x20 scmd status   [--id job-N] [--socket PATH]\n\
         \x20 scmd watch    job-N [--every STEPS] [--count N] [--json true]\n\
         \x20               [--socket PATH]\n\
         \x20 scmd dump     job-N [--out PATH] [--socket PATH]\n\
         \x20 scmd metrics  [--out PATH] [--socket PATH]\n\
         \x20 scmd cancel   --id job-N [--socket PATH]\n\
         \x20 scmd results  --id job-N [--socket PATH] [--out PATH]\n\
         \x20 scmd shutdown [--socket PATH]\n\
         \x20 scmd patterns [--n N]\n\
         \x20 scmd model    [--machine xeon|bgq] [--grain N]"
    );
}

fn parse_flags(args: &mut impl Iterator<Item = String>) -> Result<Flags, Error> {
    let mut out = HashMap::new();
    while let Some(a) = args.next() {
        let key = a
            .strip_prefix("--")
            .filter(|k| !k.is_empty())
            .ok_or_else(|| CliError::UnexpectedArg(a.clone()))?;
        let val = args.next().ok_or_else(|| CliError::MissingValue(key.to_string()))?;
        out.insert(key.to_string(), val);
    }
    Ok(out)
}

/// Rejects flags the subcommand does not know — a typo fails loudly
/// instead of being silently ignored.
fn check_flags(flags: &Flags, allowed: &[&str]) -> Result<(), Error> {
    for key in flags.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(CliError::UnexpectedArg(format!("--{key}")).into());
        }
    }
    Ok(())
}

fn get<T: std::str::FromStr>(
    flags: &Flags,
    key: &str,
    default: T,
    expected: &str,
) -> Result<T, Error> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| {
            CliError::BadFlagValue { flag: key.into(), value: v.clone(), expected: expected.into() }
                .into()
        }),
    }
}

/// Like [`get`], but a value that parses and fails `valid` is refused with
/// the same typed error as a value that does not parse.
fn get_valid<T: std::str::FromStr>(
    flags: &Flags,
    key: &str,
    default: T,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, Error> {
    let value = get(flags, key, default, expected)?;
    if valid(&value) {
        return Ok(value);
    }
    let typed = flags.get(key).cloned().unwrap_or_default();
    Err(CliError::BadFlagValue { flag: key.into(), value: typed, expected: expected.into() }.into())
}

/// Like [`get`] for a count that must be at least 1.
fn positive(flags: &Flags, key: &str, default: usize) -> Result<usize, Error> {
    get_valid(flags, key, default, "a positive integer", |&n| n > 0)
}

fn required<'a>(flags: &'a Flags, key: &str) -> Result<&'a String, Error> {
    flags.get(key).ok_or_else(|| CliError::MissingFlag(key.to_string()).into())
}

/// Spec-layer failures ride the unified error as setup failures.
fn spec_err(e: SpecError) -> Error {
    Error::Setup(Box::new(e))
}

// ---------------------------------------------------------------------------
// scmd run
// ---------------------------------------------------------------------------

/// The scenario a `run` invocation describes: the `--spec PATH` document,
/// with `--steps` overriding its step count and the output flags enabling
/// the sinks they need.
fn run_scenario(flags: &Flags) -> Result<ScenarioSpec, Error> {
    let mut spec =
        ScenarioSpec::from_path(Path::new(required(flags, "spec")?)).map_err(spec_err)?;
    spec.steps = get(flags, "steps", spec.steps, "a positive integer")?;
    // Output flags enable the matching sinks even if the spec left them
    // off — asking for a file implies wanting its contents — but an
    // explicit `ring: 0` keeps the tracer dark.
    spec.observability.metrics |= flags.contains_key("metrics-json");
    if flags.contains_key("trace") {
        spec.observability.ring.get_or_insert(DEFAULT_CAPACITY as u64);
    }
    spec.validate().map_err(spec_err)?;
    Ok(spec)
}

/// Steps the scenario under its spec's recovery policy
/// ([`ScenarioSpec::supervisor`], the job service's too), so a fault plan
/// runs the same rollback / re-decomposition ladder as a served job and a
/// fault that escapes it exits 1 with the supervisor's error.
fn run(flags: &Flags) -> Result<(), Error> {
    check_flags(flags, &["spec", "steps", "xyz", "metrics-json", "trace", "results"])?;
    let spec = run_scenario(flags)?;
    let mut handle = spec.instantiate().map_err(spec_err)?;
    let mut sup = spec.supervisor(&handle);
    let steps = spec.steps as usize;
    let mut metrics_out = match flags.get("metrics-json") {
        Some(path) => Some(std::io::BufWriter::new(std::fs::File::create(path)?)),
        None => None,
    };
    println!(
        "# {} | {} atoms | {} | {} | dt = {} | {steps} steps",
        spec.name,
        handle.gather().len(),
        spec.method.name(),
        spec.executor.kind(),
        spec.dt,
    );
    // Drift is measured from the first reported step: an energy read
    // before it would run an exchange, which a fault plan could fault,
    // outside the supervisor.
    let mut first = None;
    let t0 = std::time::Instant::now();
    let report_every = (steps / 10).max(1);
    for block in 0..steps.div_ceil(report_every) {
        let todo = report_every.min(steps - block * report_every);
        sup.run(&mut handle, todo as u64)?;
        let t = handle.telemetry();
        let store = handle.gather();
        let e = t.energy.total() + store.kinetic_energy();
        first.get_or_insert((handle.steps_done(), e));
        println!(
            "step {:>6}  E = {:>12.4}  T = {:>8.4}  tuples/step = {}",
            handle.steps_done(),
            e,
            store.temperature(),
            t.tuples.total_accepted(),
        );
        if let Some(out) = &mut metrics_out {
            writeln!(out, "{}", t.to_json())?;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let e1 = handle.total_energy();
    let (step0, e0) = first.expect("a spec runs at least one step");
    println!(
        "# {:.2} ms/step | NVE drift {:.2e} since step {step0} | candidates/step: {}",
        wall / steps as f64 * 1e3,
        ((e1 - e0) / e0.abs()).abs(),
        handle.telemetry().tuples.total_candidates(),
    );
    if let Some(mut out) = metrics_out {
        writeln!(out, "{}", handle.telemetry().to_json())?;
        out.flush()?;
        println!("# telemetry JSON written to {}", flags["metrics-json"]);
    }
    if let Some(path) = flags.get("xyz") {
        // The box is static under NVE, so the workload builder's box is
        // the run's box.
        let (_, bbox) = spec.build_workload();
        let store = handle.gather();
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        write_xyz(&mut f, &store, &bbox, &format!("step={}", handle.steps_done()))?;
        println!("# final snapshot written to {path}");
    }
    if let Some(path) = flags.get("trace") {
        let events = handle.tracer().events();
        let dropped = handle.tracer().dropped();
        std::fs::write(path, shift_collapse_md::obs::chrome_trace(&events).to_string())?;
        println!("# chrome trace written to {path} ({} events, {dropped} dropped)", events.len());
    }
    if let Some(path) = flags.get("results") {
        write_results(path, &spec.name, handle.steps_done(), &handle.gather(), e1)?;
    }
    Ok(())
}

/// Writes the `sc-observables/1` document — byte-identical to the
/// `results.json` the job service persists for the same scenario.
fn write_results(
    path: &str,
    scenario: &str,
    steps: u64,
    store: &shift_collapse_md::cell::AtomStore,
    energy_total: f64,
) -> Result<(), Error> {
    std::fs::write(path, observables_doc(scenario, steps, store, energy_total).to_string())?;
    println!("# observables document written to {path}");
    Ok(())
}

// ---------------------------------------------------------------------------
// scmd bench
// ---------------------------------------------------------------------------

/// Records the pinned matrix (or one `--spec` case) as a bench document.
/// It gates nothing: `cargo test -q` compares the matrix with
/// `BENCH_baseline.json`, and `scmd bench --out BENCH_baseline.json`
/// re-records it, the `git diff` showing every counter that moved.
fn bench(flags: &Flags) -> Result<(), Error> {
    use shift_collapse_md::bench::{run_matrix, run_spec_case, to_document};

    check_flags(flags, &["spec", "out"])?;
    let cases = match flags.get("spec") {
        // A single spec-defined case instead of the pinned matrix.
        Some(path) => {
            let spec = ScenarioSpec::from_path(Path::new(path)).map_err(spec_err)?;
            vec![run_spec_case(&spec).map_err(|e| Error::Setup(e.into()))?]
        }
        None => run_matrix(),
    };
    for c in &cases {
        println!(
            "{:<28} {:>6} atoms  {:>3} steps  {:>10} tuples  {:>6} messages",
            c.name, c.atoms, c.steps, c.tuples_accepted, c.comm_messages
        );
    }
    let out = flags.get("out").map_or("BENCH_current.json", |s| s.as_str());
    std::fs::write(out, to_document(&cases).to_string())?;
    println!("# bench document written to {out}");
    Ok(())
}

// ---------------------------------------------------------------------------
// scmd serve + client verbs
// ---------------------------------------------------------------------------

fn socket_of(flags: &Flags) -> PathBuf {
    flags.get("socket").map(PathBuf::from).unwrap_or_else(|| PathBuf::from("scmd.sock"))
}

fn serve(flags: &Flags) -> Result<(), Error> {
    check_flags(flags, &["socket", "lanes", "queue", "slice", "state", "resume", "metrics-addr"])?;
    let config = DaemonConfig {
        socket: socket_of(flags),
        scheduler: SchedulerConfig {
            lanes: positive(flags, "lanes", 2)?,
            queue_capacity: positive(flags, "queue", 8)?,
            slice_steps: positive(flags, "slice", 4)? as u64,
            state_dir: Some(
                flags.get("state").map(PathBuf::from).unwrap_or_else(|| "scmd-state".into()),
            ),
            ..SchedulerConfig::default()
        },
        resume: get(flags, "resume", false, "true|false")?,
        metrics_addr: flags.get("metrics-addr").cloned(),
    };
    let socket = config.socket.clone();
    let daemon = Daemon::bind(config)?;
    println!(
        "# scmd serve | socket {} | {} resumed jobs | submit with `scmd submit --spec PATH`",
        socket.display(),
        daemon.job_count(),
    );
    if let Some(addr) = daemon.metrics_local_addr() {
        // Printed before `run` so scrapers (and tests binding port 0) can
        // discover the resolved address.
        println!("# metrics exposition on http://{addr}/metrics");
    }
    daemon.run()?;
    println!("# daemon stopped");
    Ok(())
}

/// One request/response round trip; daemon-side rejections surface as
/// runtime errors with the daemon's code and message.
fn call(flags: &Flags, req: &Request) -> Result<Response, Error> {
    let socket = socket_of(flags);
    let resp = shift_collapse_md::serve::client::request(&socket, req).map_err(|e| {
        Error::Io(std::io::Error::new(
            e.kind(),
            format!("{} (is a daemon serving on {}?)", e, socket.display()),
        ))
    })?;
    match resp {
        Response::Error { code, message } => {
            Err(Error::Runtime(format!("daemon rejected the request [{code}]: {message}").into()))
        }
        ok => Ok(ok),
    }
}

fn submit(flags: &Flags) -> Result<(), Error> {
    check_flags(flags, &["spec", "socket"])?;
    let path = required(flags, "spec")?;
    // Parse client-side first: a bad spec fails here with the full typed
    // error instead of a wire round trip, and the daemon receives the
    // canonical form.
    let spec = ScenarioSpec::from_path(Path::new(path)).map_err(spec_err)?;
    match call(flags, &Request::Submit { spec: spec.to_json() })? {
        Response::Submitted { id } => {
            println!("{id}");
            Ok(())
        }
        other => Err(unexpected(other)),
    }
}

fn status(flags: &Flags) -> Result<(), Error> {
    check_flags(flags, &["id", "socket"])?;
    match call(flags, &Request::Status { id: flags.get("id").cloned() })? {
        Response::Status { jobs } => {
            println!(
                "{:<8} {:<10} {:>8} {:>8} {:>6} {:<24} ERROR",
                "ID", "STATE", "STEPS", "WALL", "LANE", "SPEC"
            );
            for j in &jobs {
                let s = |k: &str| j.get(k).and_then(|v| v.as_str()).unwrap_or("?").to_string();
                let n = |k: &str| j.get(k).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
                println!(
                    "{:<8} {:<10} {:>3}/{:<4} {:>7.1}s {:>6} {:<24} {}",
                    s("id"),
                    s("state"),
                    n("steps_done"),
                    n("total_steps"),
                    n("wall_ms") / 1e3,
                    n("lane"),
                    s("spec_name"),
                    j.get("error").and_then(|v| v.as_str()).unwrap_or(""),
                );
            }
            Ok(())
        }
        other => Err(unexpected(other)),
    }
}

/// Streams a running job's telemetry to stdout. Human mode prints one
/// line per snapshot; `--json true` prints the raw response lines
/// (`watching`, `telemetry`, `watch-end`) for scripting. `--count N`
/// disconnects after N snapshots; otherwise the stream runs until the
/// job goes terminal.
fn watch(flags: &Flags) -> Result<(), Error> {
    check_flags(flags, &["id", "every", "count", "json", "socket"])?;
    let id = required(flags, "id")?.clone();
    let every = flags.get("every").map(|_| get(flags, "every", 0, "a step count")).transpose()?;
    let count: Option<u64> =
        flags.get("count").map(|_| get(flags, "count", 0, "a positive integer")).transpose()?;
    let json = get(flags, "json", false, "true|false")?;
    let socket = socket_of(flags);
    let mut seen = 0u64;
    let mut rejection: Option<Error> = None;
    shift_collapse_md::serve::client::watch(&socket, &id, every, |resp| {
        if json {
            println!("{}", resp.to_json());
        }
        match resp {
            Response::Watching { id, every } => {
                if !json {
                    match every {
                        0 => println!("# watching {id} (snapshot every slice)"),
                        n => println!("# watching {id} (snapshot every {n} steps)"),
                    }
                }
                true
            }
            Response::Telemetry { seq, dropped, doc, .. } => {
                if !json {
                    let n = |k: &str| doc.get(k).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
                    let energy = doc
                        .get("energy")
                        .and_then(|e| e.get("total"))
                        .and_then(|v| v.as_f64())
                        .unwrap_or(f64::NAN);
                    println!(
                        "seq {seq:>4}  step {:>6}  E = {energy:>12.4}  dropped {dropped}",
                        n("step"),
                    );
                }
                seen += 1;
                count.is_none_or(|c| seen < c)
            }
            Response::WatchEnd { id, state, dropped } => {
                if !json {
                    println!("# {id} is {state} ({dropped} snapshots dropped)");
                }
                false
            }
            Response::Error { code, message } => {
                rejection = Some(Error::Runtime(
                    format!("daemon rejected the request [{code}]: {message}").into(),
                ));
                false
            }
            _ => true,
        }
    })
    .map_err(|e| {
        Error::Io(std::io::Error::new(
            e.kind(),
            format!("{} (is a daemon serving on {}?)", e, socket.display()),
        ))
    })?;
    match rejection {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Snapshots a running job's flight-recorder ring into a Chrome Trace
/// file (default `job-N-trace.json`).
fn dump(flags: &Flags) -> Result<(), Error> {
    check_flags(flags, &["id", "out", "socket"])?;
    let id = required(flags, "id")?;
    match call(flags, &Request::Dump { id: id.clone() })? {
        Response::Dump { id, step, events, dropped, trace } => {
            let path = flags.get("out").cloned().unwrap_or_else(|| format!("{id}-trace.json"));
            std::fs::write(&path, trace.to_string())?;
            println!(
                "# {id} flight recorder at step {step}: {events} events \
                 ({dropped} overwritten) written to {path}"
            );
            Ok(())
        }
        other => Err(unexpected(other)),
    }
}

/// Fetches the daemon's merged Prometheus text exposition over the
/// socket (no TCP listener required).
fn metrics(flags: &Flags) -> Result<(), Error> {
    check_flags(flags, &["out", "socket"])?;
    match call(flags, &Request::Metrics)? {
        Response::Metrics { text } => {
            match flags.get("out") {
                Some(path) => {
                    std::fs::write(path, &text)?;
                    println!("# metrics exposition written to {path}");
                }
                None => print!("{text}"),
            }
            Ok(())
        }
        other => Err(unexpected(other)),
    }
}

fn cancel(flags: &Flags) -> Result<(), Error> {
    check_flags(flags, &["id", "socket"])?;
    let id = required(flags, "id")?;
    match call(flags, &Request::Cancel { id: id.clone() })? {
        Response::Cancelled { id } => {
            println!("{id} cancelled");
            Ok(())
        }
        other => Err(unexpected(other)),
    }
}

fn results(flags: &Flags) -> Result<(), Error> {
    check_flags(flags, &["id", "socket", "out"])?;
    let id = required(flags, "id")?;
    match call(flags, &Request::Results { id: id.clone() })? {
        Response::Results { doc, .. } => {
            match flags.get("out") {
                // No trailing newline: the file must byte-match the
                // daemon's persisted results.json.
                Some(path) => {
                    std::fs::write(path, doc.to_string())?;
                    println!("# results written to {path}");
                }
                None => println!("{doc}"),
            }
            Ok(())
        }
        other => Err(unexpected(other)),
    }
}

fn shutdown(flags: &Flags) -> Result<(), Error> {
    check_flags(flags, &["socket"])?;
    match call(flags, &Request::Shutdown)? {
        Response::ShuttingDown => {
            println!("# daemon shutting down");
            Ok(())
        }
        other => Err(unexpected(other)),
    }
}

fn unexpected(resp: Response) -> Error {
    Error::Runtime(format!("unexpected daemon response: {}", resp.to_json()).into())
}

// ---------------------------------------------------------------------------
// scmd patterns / model
// ---------------------------------------------------------------------------

fn patterns(flags: &Flags) -> Result<(), Error> {
    check_flags(flags, &["n"])?;
    // n = 6 would build 27⁵ ≈ 1.4·10⁷ full-shell walks.
    let n: usize = get_valid(flags, "n", 3, "a tuple order from 2 to 5", |n| (2..=5).contains(n))?;
    let fs = generate_fs(n);
    let sc = shift_collapse(n);
    println!("n = {n}");
    println!("  |Ψ_FS| = {} (27^{} = {})", fs.len(), n - 1, theory::fs_path_count(n));
    println!("  |Ψ_SC| = {} (Eq. 29: {})", sc.len(), theory::sc_path_count(n));
    println!("  search ratio FS/SC = {:.3}", theory::fs_over_sc_ratio(n));
    println!("  SC footprint = {} cells (first octant [0,{}]³)", sc.footprint(), n - 1);
    for l in [1u32, 2, 4] {
        println!(
            "  imports, l = {l}: SC {} | FS {} | midpoint {}",
            import_volume_cubic(l, &sc),
            import_volume_cubic(l, &fs),
            theory::midpoint_import_volume(l as u64, n),
        );
    }
    Ok(())
}

fn model(flags: &Flags) -> Result<(), Error> {
    check_flags(flags, &["machine", "grain"])?;
    let machine = match flags.get("machine").map(String::as_str) {
        None | Some("xeon") => MachineProfile::xeon(),
        Some("bgq") => MachineProfile::bgq(),
        Some(m) => {
            return Err(CliError::UnknownValue {
                flag: "machine".into(),
                value: m.into(),
                allowed: "xeon|bgq",
            }
            .into());
        }
    };
    let model = MdCostModel::new(shift_collapse_md::netmodel::SilicaWorkload::silica(), machine);
    // Below ρ·r_cut2³ atoms a rank sub-box no longer fits the cutoff, the
    // domain the model's step time is written for.
    let min = model.min_granularity();
    let expected = format!("a finite number ≥ {min:.2}, the model's minimum grain");
    let grain: f64 =
        get_valid(flags, "grain", 425.0, &expected, |g: &f64| g.is_finite() && *g >= min)?;
    println!("machine: {} | granularity N/P = {grain}", model.machine.name);
    for m in Method::ALL {
        let c = model.step_time(m, grain);
        println!(
            "  {:<10} total {:>10.3} ms (compute {:>9.3} ms, comm {:>9.3} ms, {} ghosts)",
            m.name(),
            c.total_s() * 1e3,
            c.compute_s * 1e3,
            c.comm_s * 1e3,
            c.ghosts as u64,
        );
    }
    match model.crossover(Method::ShiftCollapse, Method::Hybrid, 24.0, 1e6) {
        Some(x) => println!("  SC → Hybrid crossover: N/P ≈ {x:.0}"),
        None => println!("  no SC → Hybrid crossover found"),
    }
    Ok(())
}
