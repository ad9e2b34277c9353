//! The five workloads and the scenario documents generated for them.
//!
//! The program under test only ever sees the generated document: the
//! harness builds the `sc-scenario/1` JSON text from `--seed` and hands it
//! to `ScenarioSpec::from_json_str`, exactly what `scmd run --spec` does.

/// How a workload drives the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Repeats of `instantiate` + `try_step` through `RunHandle`.
    Run,
    /// Closed-loop clients submitting jobs to an in-process `Daemon`.
    Serve,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    system: &'static str,
    cells: u32,
    potential: &'static str,
    method: &'static str,
    executor: &'static str,
    dt: f64,
    /// Steps before the timed window, the first (set-up) step included. A
    /// multiple of the re-sort cadence, so every timed block of
    /// `block_steps` holds the same number of re-sort steps.
    pub warmup: u32,
    /// Timed steps per block; `steps_per_s` is the median block rate.
    pub block_steps: u32,
    /// Timed blocks per repeat.
    pub blocks: u32,
    /// Set-ups measured per run (repeats count towards it).
    pub setup_samples: u32,
    /// Largest relative NVE drift over one repeat that passes.
    pub drift_tol: f64,
    /// A step costs so little that per-step observability could show in it:
    /// the traced run probes the `obs` layer here.
    pub cheap_steps: bool,
}

/// Unit cells per axis of the silica system `--quick` builds.
const QUICK_SILICA_CELLS: u32 = 4;

/// Every run workload re-sorts on this cadence (the spec default).
pub const RESORT_EVERY: u32 = 8;

/// Closed-loop clients of `serve_short_jobs` (one per core).
pub const SERVE_CLIENTS: usize = 2;
/// Checkpoint cadence of a served job, so periodic checkpoints are written.
const JOB_CHECKPOINT_EVERY: u32 = 50;

pub const ALL: &[Workload] = &[
    Workload {
        name: "silica_sc_serial",
        why: "5184-atom silica, SC-MD, one thread: the paper's app on the paper's algorithm; tuple search and potential evaluation do all the work",
        kind: Kind::Run,
        system: "silica",
        cells: 6,
        potential: r#"{"kind":"vashishta"}"#,
        method: "sc",
        executor: r#"{"kind":"serial","threads":1}"#,
        dt: 0.0005,
        warmup: 8,
        block_steps: 8,
        blocks: 5,
        setup_samples: 9,
        drift_tol: 1e-6,
        cheap_steps: false,
    },
    Workload {
        name: "silica_hybrid_serial",
        why: "same atoms, Hybrid-MD: Verlet list build and triplet pruning instead of the cell sweep, so a change that helps SC but costs the list path shows",
        kind: Kind::Run,
        system: "silica",
        cells: 6,
        potential: r#"{"kind":"vashishta"}"#,
        method: "hybrid",
        executor: r#"{"kind":"serial","threads":1}"#,
        dt: 0.0005,
        warmup: 8,
        block_steps: 8,
        blocks: 7,
        setup_samples: 9,
        drift_tol: 1e-6,
        cheap_steps: false,
    },
    Workload {
        name: "lj_bsp_fine",
        why: "256-atom LJ on a 2x2x2 BSP grid, N/P = 32: the fine-grain regime, where per-message fixed cost dominates and a kernel optimisation should not show",
        kind: Kind::Run,
        system: "lj",
        cells: 4,
        potential: r#"{"kind":"lj","cutoff":1.5}"#,
        method: "sc",
        executor: r#"{"kind":"bsp","grid":[2,2,2]}"#,
        dt: 0.002,
        warmup: 200,
        block_steps: 8,
        blocks: 250,
        setup_samples: 41,
        drift_tol: 5e-3,
        cheap_steps: true,
    },
    Workload {
        name: "silica_sc_threaded",
        why: "the silica system on two rank threads with a real halo: compute-bound but waits for the slower rank, so kernel gains and imbalance both show",
        kind: Kind::Run,
        system: "silica",
        cells: 6,
        potential: r#"{"kind":"vashishta"}"#,
        method: "sc",
        executor: r#"{"kind":"threaded","grid":[2,1,1]}"#,
        dt: 0.0005,
        warmup: 8,
        block_steps: 8,
        blocks: 10,
        setup_samples: 9,
        drift_tol: 1e-6,
        cheap_steps: false,
    },
    Workload {
        name: "serve_short_jobs",
        why: "two closed-loop clients submit 500-atom 200-step LJ jobs to an in-process daemon: scheduling, slicing, journaling and socket round-trips carry the result",
        kind: Kind::Serve,
        system: "lj",
        cells: 5,
        potential: r#"{"kind":"lj","cutoff":2.5}"#,
        method: "sc",
        executor: r#"{"kind":"serial","threads":1}"#,
        dt: 0.002,
        warmup: 8,
        block_steps: 8,
        blocks: 24,
        setup_samples: 61,
        drift_tol: 1e-3,
        cheap_steps: true,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Fields of a scenario document the harness varies between variants of
/// one workload.
#[derive(Debug, Clone, Default)]
pub struct Variant<'a> {
    /// Appended to the scenario name.
    pub suffix: &'a str,
    /// Added to the system seed (serve clients get distinct inputs).
    pub seed_offset: u64,
    pub steps: Option<u32>,
    /// Unit cells per axis (`--quick` builds a smaller system).
    pub cells: Option<u32>,
    /// Replaces the workload's executor object.
    pub executor: Option<&'a str>,
    /// The `observability` object.
    pub observability: Option<&'a str>,
    pub checkpoint_every: Option<u32>,
}

impl Workload {
    /// The `sc-scenario/1` document for this workload. The same seed gives
    /// the same bytes.
    pub fn spec_doc(&self, seed: u64, v: &Variant) -> String {
        // The spec layer reads seeds as JSON numbers: keep them exact in f64.
        let system_seed = (seed % (1 << 40)) + v.seed_offset;
        let steps = v.steps.unwrap_or(self.step_scale(false).job_steps());
        let mut doc = format!(
            "{{\n  \"schema\": \"sc-scenario/1\",\n  \"name\": \"{}{}\",\n  \"system\": {{\"kind\":\"{}\",\"cells\":{},\"seed\":{}}},\n  \"potential\": {},\n  \"method\": \"{}\",\n  \"executor\": {},\n  \"dt\": {},\n  \"steps\": {},\n  \"resort_every\": {}",
            self.name,
            v.suffix,
            self.system,
            v.cells.unwrap_or(self.cells),
            system_seed,
            self.potential,
            self.method,
            v.executor.unwrap_or(self.executor),
            self.dt,
            steps,
            RESORT_EVERY,
        );
        if let Some(obs) = v.observability {
            doc.push_str(&format!(",\n  \"observability\": {obs}"));
        }
        if let Some(every) = v.checkpoint_every {
            doc.push_str(&format!(",\n  \"checkpoint\": {{\"every\":{every}}}"));
        }
        doc.push_str("\n}\n");
        doc
    }

    /// The document of the workload's own run (what `out/specs/` holds).
    /// Served jobs carry a checkpoint cadence; `client` tells them apart.
    pub fn main_doc(&self, seed: u64, client: usize, scale: Scale) -> String {
        let (steps, cells) = (Some(scale.job_steps()), Some(scale.cells));
        match self.kind {
            Kind::Run => self.spec_doc(seed, &Variant { steps, cells, ..Variant::default() }),
            Kind::Serve => self.spec_doc(
                seed,
                &Variant {
                    suffix: &format!("-c{client}"),
                    seed_offset: client as u64,
                    steps,
                    cells,
                    checkpoint_every: Some(JOB_CHECKPOINT_EVERY),
                    ..Variant::default()
                },
            ),
        }
    }

    /// Atoms of the generated system.
    pub fn atoms(&self) -> u64 {
        let per_cell = if self.system == "silica" { 24 } else { 4 };
        per_cell * u64::from(self.cells).pow(3)
    }

    /// The workload's own size, or `--quick`'s: two blocks of eight steps
    /// on a silica system of 4³ cells (1536 atoms; the LJ systems are small
    /// already). Quick numbers check the plumbing, nothing else.
    pub fn step_scale(&self, quick: bool) -> Scale {
        if quick {
            Scale {
                warmup: RESORT_EVERY,
                block_steps: RESORT_EVERY,
                blocks: 2,
                setup_samples: 2,
                cells: if self.system == "silica" { QUICK_SILICA_CELLS } else { self.cells },
            }
        } else {
            Scale {
                warmup: self.warmup,
                block_steps: self.block_steps,
                blocks: self.blocks,
                setup_samples: self.setup_samples,
                cells: self.cells,
            }
        }
    }
}

/// The step counts of one run: the workload's own, or `--quick`'s.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub warmup: u32,
    pub block_steps: u32,
    pub blocks: u32,
    pub setup_samples: u32,
    /// Unit cells per axis of the generated system.
    pub cells: u32,
}

impl Scale {
    /// Steps one repeat (one job) integrates.
    pub fn job_steps(self) -> u32 {
        self.warmup + self.block_steps * self.blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_spec::ScenarioSpec;

    #[test]
    fn the_same_seed_gives_the_same_document_and_another_seed_another() {
        for w in ALL {
            let a = w.main_doc(42, 0, w.step_scale(false));
            assert_eq!(a, w.main_doc(42, 0, w.step_scale(false)), "{}", w.name);
            assert_ne!(a, w.main_doc(43, 0, w.step_scale(false)), "{}", w.name);
        }
        let serve = by_name("serve_short_jobs").expect("listed");
        assert_ne!(
            serve.main_doc(42, 0, serve.step_scale(true)),
            serve.main_doc(42, 1, serve.step_scale(true))
        );
    }

    #[test]
    fn every_generated_document_is_a_valid_scenario() {
        for w in ALL {
            let spec =
                ScenarioSpec::from_json_str(&w.main_doc(7, 1, w.step_scale(false))).expect(w.name);
            assert_eq!(spec.build_workload().0.len() as u64, w.atoms(), "{}", w.name);
            assert_eq!(spec.resort_every, u64::from(RESORT_EVERY));
            assert_eq!(w.warmup % RESORT_EVERY, 0, "{} warm-up off cadence", w.name);
            assert_eq!(w.block_steps % RESORT_EVERY, 0, "{} block off cadence", w.name);
            // Canonical round trip: the spec layer would store the same job.
            let again =
                ScenarioSpec::from_json_str(&spec.to_json().to_string()).expect("round trip");
            assert_eq!(again, spec);
        }
        let v = Variant {
            suffix: "-ring",
            observability: Some(r#"{"metrics":true,"ring":0}"#),
            executor: Some(r#"{"kind":"serial","threads":1}"#),
            steps: Some(8),
            ..Variant::default()
        };
        let spec = ScenarioSpec::from_json_str(&ALL[2].spec_doc(1, &v)).expect("variant");
        assert_eq!((spec.steps, spec.observability.ring), (8, Some(0)));
        assert_eq!(spec.executor.kind(), "serial");
    }
}
