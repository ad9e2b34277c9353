//! Layer probes: each layer's public entry points replayed, from outside,
//! on a snapshot (`RunHandle::gather`) of a workload's warmed-up state.
//!
//! A workload probes only the layers its own path crosses: cell search by
//! the cell-based methods, the Verlet list by Hybrid, the triplet term where
//! the force field has one, framing where ranks exchange messages,
//! observability where a step is cheap enough for it to show, checkpoints
//! and the supervisor where the job service drives them.

use crate::catalog::Metrics;
use crate::run::{set_up, Opts};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{Kind, Scale, Variant, Workload};
use sc_cell::{AtomStore, Species};
use sc_geom::Vec3;
use sc_md::methods::{lattice_for_cutoff, NeighborList};
use sc_md::supervisor::{Supervisor, SupervisorConfig};
use sc_md::{engine, Checkpoint, Method};
use sc_obs::json::Json;
use sc_obs::{EventKind, Registry, Tracer};
use sc_parallel::transport::frame_sections;
use sc_parallel::{Channel, GhostMsg, Message, Payload};
use sc_spec::{RunHandle, ScenarioSpec};
use std::hint::black_box;
use std::time::Instant;

/// Accepted tuples captured per order for the evaluation probes.
const BATCH: usize = 4096;
/// Steps per variant of the interleaved on/off comparison.
const PAIR_STEPS: usize = 12;

/// Repeats a probe until `min_s` has passed (three times at least, once
/// with `min_s == 0`) and returns the median seconds of one call. Every
/// call is a `probe.<name>` span.
struct Prober<'a> {
    rec: &'a mut Recorder,
    min_s: f64,
}

impl Prober<'_> {
    /// `f` returns the interval it wants counted.
    fn sample(&mut self, name: &str, mut f: impl FnMut() -> (Instant, Instant)) -> f64 {
        let span_name = format!("probe.{name}");
        let begun = Instant::now();
        let mut samples = Vec::new();
        loop {
            let (t, end) = f();
            self.rec.record(&span_name, t, end);
            samples.push((end - t).as_secs_f64());
            let enough = self.min_s == 0.0 || samples.len() >= 3;
            if enough && begun.elapsed().as_secs_f64() >= self.min_s || samples.len() >= 2000 {
                return median(&samples);
            }
        }
    }

    fn time(&mut self, name: &str, mut f: impl FnMut()) -> f64 {
        self.sample(name, || {
            let t = Instant::now();
            f();
            (t, Instant::now())
        })
    }
}

pub struct Probed {
    pub metrics: Metrics,
    /// Probe time that stands for one step of this workload's method, ms.
    pub step_probe_ms: f64,
}

/// Median per-step milliseconds of each handle, stepped in turn so slow
/// machine drift hits every variant alike.
fn interleaved_step_ms(handles: &mut [RunHandle], steps: usize) -> Result<Vec<f64>, String> {
    let mut times = vec![Vec::with_capacity(steps); handles.len()];
    for _ in 0..steps {
        for (h, t) in handles.iter_mut().zip(&mut times) {
            let t0 = Instant::now();
            h.try_step().map_err(|e| format!("variant step failed: {e}"))?;
            t.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(times.iter().map(|t| median(t)).collect())
}

pub fn layer_probes(
    w: &Workload,
    seed: u64,
    scale: Scale,
    handle: &mut RunHandle,
    spec: &ScenarioSpec,
    opts: Opts,
    rec: &mut Recorder,
) -> Result<Probed, String> {
    let outer = rec.begin("probe");
    let mut p = Prober { rec, min_s: if opts.quick { 0.0 } else { 0.1 } };
    let mut m: Metrics = Vec::new();

    let telemetry = handle.telemetry();
    let store: AtomStore = handle.gather();
    let bbox = handle.checkpoint().bbox();
    let ff = spec.force_field();
    let method = spec.method;
    let pair = ff.pair.as_deref().ok_or("workload has no pair term")?;
    let rc2 = pair.cutoff();
    let triplet = ff.triplet.as_deref();
    let by_cells = method != Method::Hybrid;

    // core: the patterns the method searches cells with.
    let orders: &[usize] = if by_cells && triplet.is_some() { &[2, 3] } else { &[2] };
    let paths: usize = orders.iter().map(|&n| method.plan_for(n).len()).sum();
    m.push(("core.pattern_paths", paths as f64));
    let gen_s = p.time("core.pattern_gen", || {
        for &n in orders {
            black_box(match method {
                Method::ShiftCollapse => sc_core::shift_collapse(n),
                Method::FullShell | Method::Hybrid => sc_core::generate_fs(n),
            });
        }
    });
    m.push(("core.pattern_gen_us", gen_s * 1e6));

    // cell: bin and re-sort the warmed-up store.
    let mut lat2 = lattice_for_cutoff(&bbox, rc2, 2);
    let rebuild_s = p.time("cell.rebuild", || lat2.rebuild(&store));
    let sort_s = p.sample("cell.sort", || {
        let mut copy = store.clone();
        let t = Instant::now();
        black_box(copy.sort_by_cell(&lat2));
        (t, Instant::now())
    });
    m.push(("cell.rebuild_us", rebuild_s * 1e6));
    m.push(("cell.sort_us", sort_s * 1e6));
    m.push(("cell.atoms_per_cell", lat2.mean_cell_density()));

    // md: what finding the tuples costs, without evaluating them. The
    // cell-based methods sweep cells with their own plans; Hybrid builds a
    // Verlet list and prunes triplets out of it.
    let plan2 = method.plan_for(2);
    let mut search_s = 0.0;
    if by_cells {
        let s = p.time("md.search_pair", || {
            let mut n = 0u64;
            black_box(engine::visit_pairs(&lat2, &store, &plan2, rc2, |_, _, _, _| n += 1));
            black_box(n);
        });
        m.push(("md.search_pair_ms", s * 1e3));
        search_s += s;
    } else {
        let mut list = NeighborList::default();
        let build_s = p.time("md.list_build", || {
            list = NeighborList::build(&lat2, &store, &plan2, rc2).0;
        });
        m.push(("md.list_build_ms", build_s * 1e3));
        m.push(("md.list_entries", list.entry_count() as f64));
        search_s += build_s;
        if let Some(t) = triplet {
            let prune_s = p.time("md.list_prune", || {
                let mut n = 0u64;
                black_box(list.visit_triplets(t.cutoff(), |_, _, _, _, _| n += 1));
                black_box(n);
            });
            m.push(("md.list_prune_ms", prune_s * 1e3));
            search_s += prune_s;
        }
    }
    let candidates = telemetry.tuples.total_candidates() as f64;
    let accepted = telemetry.tuples.total_accepted() as f64;
    m.push(("md.hit_rate", accepted / candidates));

    // potential: evaluate a fixed batch of accepted tuples.
    let species = store.species();
    let mut pairs: Vec<(Species, Species, f64)> = Vec::with_capacity(BATCH);
    engine::visit_pairs(&lat2, &store, &plan2, rc2, |i, j, _, r| {
        let (si, sj) = (species[i as usize], species[j as usize]);
        if pairs.len() < BATCH && pair.applies(si, sj) {
            pairs.push((si, sj, r));
        }
    });
    if pairs.is_empty() {
        return Err("the search probe captured no accepted pair".into());
    }
    let pair_eval_s = p.time("potential.pair_eval", || {
        let mut u = 0.0;
        for &(si, sj, r) in &pairs {
            u += pair.eval(si, sj, r).0;
        }
        black_box(u);
    }) / pairs.len() as f64;
    m.push(("potential.pair_eval_ns", pair_eval_s * 1e9));
    let mut eval_s = telemetry.tuples.pair.accepted as f64 * pair_eval_s;

    if let Some(t) = triplet {
        let (rc3, plan3) = (t.cutoff(), method.plan_for(3));
        let mut lat3 = lattice_for_cutoff(&bbox, rc3, 3);
        lat3.rebuild(&store);
        if by_cells {
            let s = p.time("md.search_triplet", || {
                let mut n = 0u64;
                let visited =
                    engine::visit_triplets(&lat3, &store, &plan3, rc3, |_, _, _, _, _| n += 1);
                black_box((visited, n));
            });
            m.push(("md.search_triplet_ms", s * 1e3));
            search_s += s;
        }
        let mut batch: Vec<([Species; 3], Vec3, Vec3)> = Vec::with_capacity(BATCH);
        let mut acting = 0u64;
        engine::visit_triplets(&lat3, &store, &plan3, rc3, |i0, i1, i2, d01, d12| {
            let s = [species[i0 as usize], species[i1 as usize], species[i2 as usize]];
            if t.applies(s[0], s[1], s[2]) {
                acting += 1;
                if batch.len() < BATCH {
                    batch.push((s, -d01, d12));
                }
            }
        });
        if batch.is_empty() {
            return Err("the search probe captured no accepted triplet".into());
        }
        let triplet_eval_s = p.time("potential.triplet_eval", || {
            let mut u = 0.0;
            for &(s, d10, d12) in &batch {
                u += t.eval(s[0], s[1], s[2], d10, d12).0;
            }
            black_box(u);
        }) / batch.len() as f64;
        m.push(("potential.triplet_eval_ns", triplet_eval_s * 1e9));
        eval_s += acting as f64 * triplet_eval_s;
    }

    // What one force computation of this method costs, by the probes.
    let step_probe_ms = (rebuild_s + search_s + eval_s) * 1e3;

    // parallel: framing and checksums on sections of this workload's size.
    if let Some(per_message) = telemetry.comm.bytes.checked_div(telemetry.comm.messages) {
        let ghosts_per_section = (per_message / GhostMsg::WIRE_BYTES).max(1) as usize / 3 + 1;
        let ghost = |k: usize| GhostMsg {
            id: k as u64,
            species: Species(0),
            position: Vec3::new(k as f64, 0.5, 0.25),
        };
        let section: Vec<GhostMsg> = (0..ghosts_per_section).map(ghost).collect();
        let frame_s = p.time("parallel.frame", || {
            let sections = (0..3)
                .map(|hop| {
                    let channel = Channel::Ghosts { hop };
                    (1usize, Message::stamped(7, 11, channel, Payload::Ghosts(section.clone())))
                })
                .collect();
            for (_, frame) in frame_sections(true, 7, 11, sections) {
                frame.verify(1, 11, Channel::Ghosts { hop: 0 }).expect("a fresh frame verifies");
                if let Payload::Batch(inner) = &frame.payload {
                    for msg in inner {
                        msg.verify(1, 11, msg.channel).expect("a fresh section verifies");
                    }
                }
                black_box(&frame);
            }
        });
        m.push(("parallel.frame_us", frame_s * 1e6));
        let big = Payload::Ghosts((0..32 * 1024).map(ghost).collect());
        let checksum_s = p.time("parallel.checksum", || {
            black_box(big.checksum());
        });
        m.push(("parallel.checksum_mb_per_s", big.wire_bytes() as f64 / 1e6 / checksum_s));
    }
    if let Some(report) = telemetry.imbalance() {
        m.push(("parallel.compute_imbalance", report.compute_imbalance()));
    }

    // Whole-run pairs on this workload's own spec, stepped in turn: metrics
    // registry on and flight ring armed against dark, and the rank grid
    // against one serial thread.
    let variant =
        |rec: &mut Recorder, suffix: &str, observability: &str, executor: Option<&str>| {
            let v = Variant {
                suffix,
                observability: Some(observability),
                executor,
                cells: Some(scale.cells),
                ..Variant::default()
            };
            set_up(&w.spec_doc(seed, &v), rec).map(|s| s.handle)
        };
    let dark = r#"{"metrics":false,"ring":0}"#;
    let steps =
        if opts.quick { 2 } else { PAIR_STEPS.max((0.2 / (search_s + eval_s)) as usize).min(400) };
    let mut variants = vec![variant(p.rec, "-dark", dark, None)?];
    let serial = (spec.executor.kind() != "serial").then_some(variants.len());
    if serial.is_some() {
        variants.push(variant(p.rec, "-serial", dark, Some(r#"{"kind":"serial","threads":1}"#))?);
    }
    let observed = w.cheap_steps.then_some(variants.len());
    if observed.is_some() {
        variants.push(variant(p.rec, "-metrics", r#"{"metrics":true,"ring":0}"#, None)?);
        variants.push(variant(p.rec, "-ring", r#"{"metrics":false,"ring":16384}"#, None)?);
    }
    if variants.len() > 1 {
        let span = p.rec.begin("probe.step_pairs");
        let ms = interleaved_step_ms(&mut variants, steps)?;
        p.rec.end(span);
        if let Some(i) = serial {
            m.push(("parallel.speedup_vs_serial", ms[i] / ms[0]));
        }
        if let Some(i) = observed {
            m.push(("obs.metrics_on_over_off", ms[i] / ms[0]));
            m.push(("obs.ring_on_over_off", ms[i + 1] / ms[0]));
        }
    }

    // obs: what one counter increment, one trace event and one export cost.
    if let Some(i) = observed {
        const OPS: usize = 100_000;
        let counter = Registry::new().counter("bench.probe");
        let inc_s = p.time("obs.counter_inc", || {
            for _ in 0..OPS {
                black_box(&counter).inc();
            }
        });
        let tracer = Tracer::new();
        let sink = tracer.sink(0, 0);
        let emit_s = p.time("obs.trace_emit", || {
            for step in 0..OPS as u64 {
                black_box(&sink).instant(step, EventKind::Checkpoint);
            }
        });
        m.push(("obs.counter_inc_ns", inc_s / OPS as f64 * 1e9));
        m.push(("obs.trace_emit_ns", emit_s / OPS as f64 * 1e9));
        let mut line = String::new();
        let json_s = p.time("obs.telemetry_json", || line = telemetry.to_json());
        let parse_s = p.time("obs.json_parse", || {
            black_box(Json::parse(&line).expect("telemetry is JSON"));
        });
        m.push(("obs.telemetry_json_us", json_s * 1e6));
        m.push(("obs.json_parse_us", parse_s * 1e6));
        let snapshot = variants[i].metrics().snapshot();
        let prometheus_s = p.time("obs.prometheus", || {
            black_box(sc_obs::prometheus(&snapshot));
        });
        m.push(("obs.prometheus_us", prometheus_s * 1e6));
    }

    // md: what the job service adds around a step. Checkpoints as it takes
    // them, and the supervisor's per-step invariant checks, slice by slice
    // as the scheduler drives it, against bare stepping of the same spec.
    if w.kind == Kind::Serve {
        let mut bytes = Vec::new();
        let encode_s = p.time("md.checkpoint_encode", || bytes = handle.checkpoint().to_bytes());
        let decode_s = p.time("md.checkpoint_decode", || {
            black_box(Checkpoint::from_bytes(&bytes).expect("a fresh checkpoint decodes"));
        });
        m.push(("md.checkpoint_encode_us", encode_s * 1e6));
        m.push(("md.checkpoint_decode_us", decode_s * 1e6));
        m.push(("md.checkpoint_bytes", bytes.len() as f64));

        let mut bare = variants.swap_remove(0);
        let mut supervised = variant(p.rec, "-dark", dark, None)?;
        let mut sup = Supervisor::new(SupervisorConfig {
            checkpoint_every: spec.checkpoint.as_ref().map_or(u64::MAX, |c| c.every),
            max_rollbacks: 64,
            ..SupervisorConfig::default()
        });
        let span = p.rec.begin("probe.md.supervised_pair");
        let (mut bare_s, mut sup_s) = (Vec::new(), Vec::new());
        for _ in 0..(steps / 4).max(1) {
            let t = Instant::now();
            for _ in 0..crate::serve::SLICE_STEPS {
                bare.try_step().map_err(|e| format!("bare step failed: {e}"))?;
            }
            bare_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            sup.run(&mut supervised, crate::serve::SLICE_STEPS)
                .map_err(|e| format!("supervised slice failed: {e}"))?;
            sup_s.push(t.elapsed().as_secs_f64());
        }
        p.rec.end(span);
        m.push(("md.supervised_over_bare", median(&sup_s) / median(&bare_s)));
    }

    p.rec.end(outer);
    Ok(Probed { metrics: m, step_probe_ms })
}
