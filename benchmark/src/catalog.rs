//! Every metric the benchmark reports, by name: unit, direction, regression
//! bounds (end-to-end only), whether the value is an exact count, and the
//! end-to-end metric a change to it should move. `BENCHMARK.json` at the
//! repository root lists the same names; a unit test keeps the two equal.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Measured values by metric name.
pub type Metrics = Vec<(&'static str, f64)>;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the one bound per metric `BENCHMARK.json`
    /// carries, which the driver applies to every workload.
    pub bound: Option<f64>,
    /// End-to-end metrics only: the workloads the metric describes, each
    /// with the share of the other set's median by which it may differ in
    /// `--aa`. The suite prints and gates these pairs and no others.
    pub gated: &'static [(&'static str, f64)],
    /// Repeats bit-for-bit per seed; A/A compares it with `==`.
    pub exact: bool,
    /// Which end-to-end metric the layer metric should move, and where.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    gated: &'static [(&'static str, f64)],
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound), gated, exact: false, moves: "" }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound: None, gated: &[], exact: false, moves }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound: None, gated: &[], exact: true, moves }
}

use Better::{Higher, Lower};

/// The serial workloads repeat within a twentieth, the two-thread ones
/// within a tenth (ISSUE 11's table).
const RUN_WORKLOADS: &[(&str, f64)] = &[
    ("silica_sc_serial", 0.05),
    ("silica_hybrid_serial", 0.05),
    ("lj_bsp_fine", 0.10),
    ("silica_sc_threaded", 0.10),
];
const EVERY_WORKLOAD: &[(&str, f64)] = &[
    ("silica_sc_serial", 0.10),
    ("silica_hybrid_serial", 0.10),
    ("lj_bsp_fine", 0.10),
    ("silica_sc_threaded", 0.10),
    ("serve_short_jobs", 0.10),
];

/// What a user of the system sees. Someone running a trajectory wants steps
/// per second at a stated size; someone using `scmd serve` wants jobs back
/// quickly and no tax for going through the service. The `--aa` bounds are
/// the issue's. The driver's bounds are wider: it compares single runs made
/// minutes apart, and on the shared two-core hosts this runs on the same
/// binary steps at speeds a tenth to a fifth apart from one quarter of an
/// hour to the next (README, "Baseline and A/A").
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, EVERY_WORKLOAD),
    e2e("steps_per_s", "steps/s", Higher, 0.25, RUN_WORKLOADS),
    e2e("step_ms_p50", "ms", Lower, 0.25, RUN_WORKLOADS),
    e2e("jobs_per_s", "jobs/s", Higher, 0.25, &[("serve_short_jobs", 0.10)]),
    e2e("job_latency_ms_p50", "ms", Lower, 0.25, &[("serve_short_jobs", 0.10)]),
    e2e("served_over_standalone", "ratio", Lower, 0.25, &[("serve_short_jobs", 0.05)]),
];

const SETUP: &str = "setup_s everywhere";
const STEP_SILICA: &str = "step_ms_p50 on the silica workloads; no change on lj_bsp_fine";
const STEP_HYBRID: &str = "step_ms_p50 on silica_hybrid_serial only";
const SERVED: &str = "served_over_standalone, job_latency_ms_p50 on serve_short_jobs";
const STEP_BSP: &str = "step_ms_p50 on lj_bsp_fine; steps_per_s on silica_sc_threaded";
const OBS: &str =
    "step_ms_p50 on lj_bsp_fine, job_latency_ms_p50 on serve_short_jobs; invisible on silica";
const JOBS: &str = "jobs_per_s, job_latency_ms_p50, served_over_standalone on serve_short_jobs";
const OWN_CLOCK: &str = "the program's own clock: a baseline, never the basis of a claim";
const TAIL: &str = "reported, not gated";

/// One layer = one crate. Measured in the traced run only.
pub const PER_LAYER: &[MetricDef] = &[
    exact("core.pattern_paths", "count", Lower, SETUP),
    layer("core.pattern_gen_us", "us", Lower, SETUP),
    layer("cell.rebuild_us", "us", Lower, "step_ms_p50 on both serial silica workloads"),
    layer(
        "cell.sort_us",
        "us",
        Lower,
        "steps_per_s (every 8th step) on both serial silica workloads",
    ),
    layer("cell.atoms_per_cell", "count", Lower, "md.candidates_per_step"),
    layer("md.search_pair_ms", "ms", Lower, STEP_SILICA),
    layer("md.search_triplet_ms", "ms", Lower, STEP_SILICA),
    exact("md.candidates_per_step", "count", Lower, STEP_SILICA),
    exact("md.accepted_per_step", "count", Higher, "fixed by the physics: must not move"),
    layer("md.hit_rate", "ratio", Higher, STEP_SILICA),
    layer("md.list_build_ms", "ms", Lower, STEP_HYBRID),
    layer("md.list_prune_ms", "ms", Lower, STEP_HYBRID),
    exact("md.list_entries", "count", Lower, STEP_HYBRID),
    layer("md.checkpoint_encode_us", "us", Lower, SERVED),
    layer("md.checkpoint_decode_us", "us", Lower, SERVED),
    exact("md.checkpoint_bytes", "bytes", Lower, SERVED),
    layer("md.supervised_over_bare", "ratio", Lower, SERVED),
    layer("md.energy_drift_rel", "ratio", Lower, "diagnostic behind the NVE-drift check"),
    layer("potential.pair_eval_ns", "ns", Lower, STEP_SILICA),
    layer("potential.triplet_eval_ns", "ns", Lower, STEP_SILICA),
    exact("parallel.messages_per_step", "count", Lower, STEP_BSP),
    exact("parallel.bytes_per_step", "bytes", Lower, STEP_BSP),
    exact("parallel.ghosts_per_step", "count", Lower, STEP_BSP),
    exact("parallel.migrated_per_step", "count", Lower, STEP_BSP),
    exact("parallel.retries", "count", Lower, STEP_BSP),
    exact("parallel.faults_detected", "count", Lower, STEP_BSP),
    layer("parallel.frame_us", "us", Lower, STEP_BSP),
    layer("parallel.checksum_mb_per_s", "MB/s", Higher, STEP_BSP),
    layer("parallel.compute_imbalance", "ratio", Lower, "steps_per_s on silica_sc_threaded"),
    layer("parallel.speedup_vs_serial", "ratio", Higher, "steps_per_s on silica_sc_threaded"),
    layer("obs.counter_inc_ns", "ns", Lower, OBS),
    layer("obs.trace_emit_ns", "ns", Lower, OBS),
    layer("obs.telemetry_json_us", "us", Lower, OBS),
    layer("obs.json_parse_us", "us", Lower, OBS),
    layer("obs.prometheus_us", "us", Lower, OBS),
    layer("obs.metrics_on_over_off", "ratio", Lower, OBS),
    layer("obs.ring_on_over_off", "ratio", Lower, OBS),
    layer("spec.parse_us", "us", Lower, SETUP),
    layer("spec.instantiate_ms", "ms", Lower, SETUP),
    layer("spec.first_step_ms", "ms", Lower, SETUP),
    layer("spec.results_doc_us", "us", Lower, "job_latency_ms_p50 on serve_short_jobs"),
    layer("serve.ping_rtt_us_p50", "us", Lower, JOBS),
    layer("serve.submit_rtt_us_p50", "us", Lower, JOBS),
    layer("serve.status_rtt_us_p50", "us", Lower, JOBS),
    layer("serve.first_progress_ms_p50", "ms", Lower, JOBS),
    layer("serve.queue_wait_ms_p50", "ms", Lower, JOBS),
    layer("serve.job_latency_ms_p90", "ms", Lower, JOBS),
    layer("serve.lane_busy_frac", "ratio", Higher, JOBS),
    exact("serve.slices_per_job", "count", Lower, JOBS),
    exact("serve.checkpoints_per_job", "count", Lower, JOBS),
    exact("serve.manifests_per_job", "count", Lower, JOBS),
    exact("serve.rejected", "count", Lower, JOBS),
    layer("serve.slice_ms_mean", "ms", Lower, JOBS),
    layer("serve.state_bytes_per_job", "bytes", Lower, JOBS),
    layer("reported.bin_ms", "ms/step", Lower, OWN_CLOCK),
    layer("reported.exchange_ms", "ms/step", Lower, OWN_CLOCK),
    layer("reported.enumerate_ms", "ms/step", Lower, OWN_CLOCK),
    layer("reported.eval_ms", "ms/step", Lower, OWN_CLOCK),
    layer("reported.reduce_ms", "ms/step", Lower, OWN_CLOCK),
    layer("reported.migrate_ms", "ms/step", Lower, OWN_CLOCK),
    layer("reported.integrate_ms", "ms/step", Lower, OWN_CLOCK),
    layer("reported.compute_ms", "ms/step", Lower, OWN_CLOCK),
    layer("run.samples", "count", Higher, "sample count behind step_ms_p50"),
    layer("run.step_ms_p95", "ms", Lower, TAIL),
    layer("run.step_ms_max", "ms", Lower, TAIL),
    layer("run.step_ms_iqr", "ms", Lower, TAIL),
    layer("run.tail_pct", "%", Higher, "highest percentile with ten samples beyond it"),
    layer("run.step_ms_tail", "ms", Lower, TAIL),
    layer("trace.spans", "count", Higher, "spans the traced run recorded"),
    layer("trace.overhead_frac", "ratio", Lower, "traced over untraced step time, minus one"),
    layer("trace.probe_coverage", "ratio", Higher, "share of step_ms_p50 the layer probes explain"),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

impl MetricDef {
    /// The `--aa` bound of this metric on `workload`, when it describes it.
    pub fn gate_on(&self, workload: &str) -> Option<f64> {
        self.gated.iter().find(|(w, _)| *w == workload).map(|&(_, bound)| bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_obs::json::Json;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
        assert!(widest <= 0.25);
        for m in END_TO_END {
            assert!(!m.gated.is_empty(), "{} describes no workload", m.name);
            for &(w, bound) in m.gated {
                assert!(crate::workloads::by_name(w).is_some(), "{}: no workload {w}", m.name);
                assert!(bound <= 0.10, "{} on {w}: an --aa bound above a tenth", m.name);
            }
        }
    }

    /// `BENCHMARK.json` must list exactly the catalog, in the catalog's
    /// order, and exactly the workloads the harness runs.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> =
            doc.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_array).expect("metric list");
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(field(j, "name").as_deref(), Some(d.name));
                assert_eq!(field(j, "unit").as_deref(), Some(d.unit), "{}", d.name);
                assert_eq!(field(j, "better").as_deref(), Some(d.better.as_str()), "{}", d.name);
                assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
                let want = if d.bound.is_some() { 4 } else { 3 };
                assert_eq!(j.as_object().map(<[_]>::len), Some(want), "{} keys", d.name);
            }
        }
        let listed = doc.get("workloads").and_then(Json::as_array).expect("workloads");
        let names: Vec<String> = listed.iter().filter_map(|w| field(w, "name")).collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        for (j, w) in listed.iter().zip(crate::workloads::ALL) {
            assert_eq!(field(j, "why").as_deref(), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let secs = doc.get("run_seconds").and_then(Json::as_f64).expect("run_seconds");
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    }
}
