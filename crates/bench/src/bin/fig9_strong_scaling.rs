//! **Fig. 9** — strong-scaling speedup of SC-MD, FS-MD, and Hybrid-MD on
//! (a) the Intel-Xeon profile (0.88M atoms, 12–768 cores) and (b) the
//! BlueGene/Q profile (0.79M atoms, 16–8192 cores), from the calibrated
//! machine model.
//!
//! Paper reference points: SC-MD 59.3× (92.6% efficiency) at 768 Xeon
//! cores vs FS 24.5× and Hybrid 17.1×; SC-MD 465.6× (90.9%) at 8192 BG/Q
//! cores vs FS 55.1× and Hybrid 95.2×.
//!
//! Run: `cargo run -p sc-bench --release --bin fig9_strong_scaling -- xeon`
//!      `cargo run -p sc-bench --release --bin fig9_strong_scaling -- bgq`
//!      `... -- --measured` (in-process distributed runs with phase timers)
//!      `... -- --measured --faults 4` (additionally script 4 transport faults)
//!      `... -- --measured --trace DIR` (write Chrome Trace timelines)
//!
//! `--measured` also emits one telemetry JSON line per method (the
//! `sc_md::Telemetry` layout pinned by `schema/metrics.schema.json`),
//! including the per-rank phase breakdowns and the load-imbalance report.
//! With `--trace DIR` each method's run additionally records event-level
//! traces and writes `DIR/fig9_<method>_rank<r>.json` (one timeline per
//! rank) plus the merged `DIR/fig9_<method>.json`.

use sc_md::Method;
use sc_netmodel::{MachineProfile, MdCostModel, SilicaWorkload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = args.first().cloned().unwrap_or_else(|| "xeon".into());
    if arg == "--measured" {
        let n_faults = args
            .iter()
            .position(|a| a == "--faults")
            .and_then(|i| args.get(i + 1))
            .map(|v| v.parse::<usize>().expect("--faults takes a count"))
            .unwrap_or(0);
        let trace_dir = args
            .iter()
            .position(|a| a == "--trace")
            .map(|i| args.get(i + 1).expect("--trace takes a directory").clone());
        measured(n_faults, trace_dir.as_deref());
        return;
    }
    let (profile, n_total, cores, ref_cores): (MachineProfile, f64, Vec<usize>, usize) = if arg
        == "bgq"
    {
        (MachineProfile::bgq(), 0.79e6, vec![16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192], 16)
    } else {
        (MachineProfile::xeon(), 0.88e6, vec![12, 24, 48, 96, 192, 384, 768], 12)
    };
    let model = MdCostModel::new(SilicaWorkload::silica(), profile);
    println!(
        "Fig. 9 — strong scaling on {} ({:.2}M atoms, reference = {} cores; modeled)",
        model.machine.name,
        n_total / 1e6,
        ref_cores
    );
    println!(
        "{:>8} {:>8} | {:>9} {:>6} | {:>9} {:>6} | {:>9} {:>6}",
        "cores", "N/P", "SC spd", "eff", "FS spd", "eff", "Hyb spd", "eff"
    );
    let curves: Vec<_> =
        Method::ALL.iter().map(|&m| model.strong_scaling(m, n_total, &cores, ref_cores)).collect();
    for (i, &p) in cores.iter().enumerate() {
        let grain = n_total / p as f64;
        let sc = curves[0][i];
        let fs = curves[1][i];
        let hy = curves[2][i];
        println!(
            "{:>8} {:>8.0} | {:>9.1} {:>5.1}% | {:>9.1} {:>5.1}% | {:>9.1} {:>5.1}%",
            p,
            grain,
            sc.speedup,
            sc.efficiency * 100.0,
            fs.speedup,
            fs.efficiency * 100.0,
            hy.speedup,
            hy.efficiency * 100.0
        );
    }
    println!();
    if arg == "bgq" {
        println!("paper at 8192 cores: SC 465.6× (90.9%), FS 55.1× (10.8%), Hybrid 95.2× (18.6%)");
    } else {
        println!("paper at 768 cores: SC 59.3× (92.6%), FS 24.5× (38.3%), Hybrid 17.1× (26.8%)");
    }
}

/// Real in-process distributed runs grounding the model's executor side:
/// the BSP executor over a 2×2×2 rank grid on a small silica box, with the
/// wall-clock phase decomposition (Eq. 30's `T_compute + T_comm`, measured)
/// and the per-rank compute breakdown underneath it. With `n_faults > 0`,
/// an extra SC-MD run scripts that many transport faults and reports the
/// retry/fault counters; without it those sections are omitted entirely.
fn measured(n_faults: usize, trace_dir: Option<&str>) {
    use sc_bench::fmt_time;
    use sc_geom::IVec3;
    use sc_md::build_silica_like;
    use sc_obs::{chrome_trace, Tracer};
    use sc_parallel::rank::ForceField;
    use sc_parallel::{DistributedSim, EngineConfig};
    use sc_potential::Vashishta;

    if let Some(dir) = trace_dir {
        std::fs::create_dir_all(dir).expect("trace directory is creatable");
    }

    let v = Vashishta::silica();
    let masses = v.params().masses;
    let steps = 3;
    println!("Measured distributed phase breakdown, silica 4³ cells, 2×2×2 ranks, {steps} steps");
    println!("(executor wall clock; reduce = the ranks' summed scratch merge)");
    println!(
        "{:>6} {:>8}  {:>11}  {:>11}  {:>11}  {:>11}  {:>11}  {:>6}",
        "method", "atoms", "migrate", "exchange", "compute", "reduce", "integrate", "comm%"
    );
    let mut breakdowns = vec![];
    let mut telemetry_lines = vec![];
    let mut imbalance_tables = vec![];
    for method in Method::ALL {
        let (store, bbox) = build_silica_like(4, 7.16, masses, 0.01, 7);
        let atoms = store.len();
        let ff = ForceField {
            pair: Some(Box::new(v.pair.clone())),
            triplet: Some(Box::new(v.triplet.clone())),
            quadruplet: None,
            method,
        };
        let tracer = if trace_dir.is_some() { Tracer::new() } else { Tracer::disabled() };
        let cfg = EngineConfig { tracer: tracer.clone(), ..Default::default() };
        let mut d = DistributedSim::build(store, bbox, IVec3::splat(2), ff, 0.001, cfg)
            .expect("valid distributed setup");
        d.run(steps);
        if let Some(dir) = trace_dir {
            let events = tracer.events();
            // One timeline per rank, plus the merged cross-rank view.
            let mut ranks: Vec<u32> = events.iter().map(|e| e.rank).collect();
            ranks.sort_unstable();
            ranks.dedup();
            for r in ranks {
                let per_rank: Vec<_> = events.iter().filter(|e| e.rank == r).copied().collect();
                let path = format!("{dir}/fig9_{}_rank{r}.json", method.name());
                std::fs::write(&path, chrome_trace(&per_rank).to_string())
                    .expect("trace file is writable");
            }
            let merged = format!("{dir}/fig9_{}.json", method.name());
            std::fs::write(&merged, chrome_trace(&events).to_string())
                .expect("trace file is writable");
            println!("# traces for {} written under {dir}/", method.name());
        }
        let telemetry = d.telemetry();
        let t = telemetry.total_phases;
        println!(
            "{:>6} {:>8}  {}  {}  {}  {}  {}  {:>5.1}%",
            method.name(),
            atoms,
            fmt_time(t.migrate_s()),
            fmt_time(t.exchange_s()),
            fmt_time(t.compute_s()),
            fmt_time(t.reduce_s()),
            fmt_time(t.integrate_s()),
            t.comm_fraction() * 100.0
        );
        breakdowns.push((method, t));
        telemetry_lines.push(telemetry.to_json());
        if let Some(report) = telemetry.imbalance() {
            imbalance_tables.push((method, report));
        }
    }
    println!();
    println!("Inside compute (summed per-rank seconds): bin / enumerate / scratch-reduce");
    for (method, p) in breakdowns {
        println!(
            "{:>6}  bin {}  enumerate {}  reduce {}",
            method.name(),
            fmt_time(p.bin_s()),
            fmt_time(p.enumerate_s()),
            fmt_time(p.reduce_s()),
        );
    }
    println!();
    println!("Load imbalance (per-rank compute seconds vs comm wait):");
    for (method, report) in &imbalance_tables {
        println!("{}:", method.name());
        print!("{}", report.render_table());
    }
    println!();
    println!("Telemetry JSON (one line per method):");
    for line in &telemetry_lines {
        println!("{line}");
    }

    if n_faults == 0 {
        return;
    }

    // Fault overhead: the same SC-MD run with scripted transport faults,
    // recovered in-step by the validated exchange's retry protocol. Each
    // fault has its own (step, rank), so no delivery sees two, and the
    // kinds cycle through those the retry budget absorbs; faults scripted
    // past the last step never fire.
    use sc_parallel::{Fault, FaultKind, FaultPlan};
    let kinds = [
        FaultKind::Drop,
        FaultKind::Delay,
        FaultKind::Corrupt { header: false },
        FaultKind::Corrupt { header: true },
        FaultKind::Stall { attempts: 1 },
        FaultKind::Stall { attempts: 2 },
    ];
    let faults = (0..n_faults).fold(FaultPlan::none(), |plan, i| {
        let kind = kinds[i % kinds.len()];
        plan.with(Fault { step: (i / 8) as u64, rank: i % 8, channel: None, kind })
    });
    let (store, bbox) = build_silica_like(4, 7.16, masses, 0.01, 7);
    let ff = ForceField {
        pair: Some(Box::new(v.pair.clone())),
        triplet: Some(Box::new(v.triplet.clone())),
        quadruplet: None,
        method: Method::ShiftCollapse,
    };
    let cfg = EngineConfig { faults, ..Default::default() };
    let mut d = DistributedSim::build(store, bbox, IVec3::splat(2), ff, 0.001, cfg)
        .expect("valid distributed setup");
    let t0 = std::time::Instant::now();
    for _ in 0..steps {
        d.try_step().expect("single transport faults are absorbed by retry");
    }
    let wall = t0.elapsed().as_secs_f64();
    let cs = d.comm_stats();
    println!();
    println!("Fault overhead (SC-MD, {n_faults} scripted transport faults, validated exchange):");
    println!(
        "  fired {} fault events; detected {} delivery failures; {} retries; wall {}",
        d.fault_plan().events().len(),
        cs.faults_detected,
        cs.retries,
        fmt_time(wall)
    );
    println!("{}", d.telemetry().to_json());
}
